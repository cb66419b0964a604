//! Streaming/batch equivalence and wire-protocol properties.
//!
//! The streaming checker's contract is byte-comparability: over a
//! complete stream it must report exactly what the batch
//! [`AnalysisSession`] reports — same events, same epoch ordinals, same
//! canonical order, same deduplicated representative — so its serialized
//! findings are byte-identical to the batch diagnostics. Here it is held
//! to that on the bug archetypes and the fixed bodies (every built-in
//! body: the `streaming` column of `tests/differential.rs`), plus the
//! tie-break regression. The wire protocol's contract is that frames
//! round-trip and truncation is always detected, never silently parsed.

mod common;
use common::matrix::{cells, check_streaming};

use mc_checker::apps::bugs::trace_of;
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::prelude::*;
use mc_checker::serve::proto::{decode_frame, encode_frame_with, Frame, ProtoError, SessionOpts};
use mc_checker::serve::CodecKind;
use mc_checker::types::{EventKind, SourceLoc, WinId};
use proptest::prelude::*;

#[test]
fn streaming_findings_equal_batch_on_every_archetype() {
    for cell in cells().iter().filter(|c| c.is_archetype()) {
        let batch = cell.report(Engine::Sweep);
        assert!(!batch.diagnostics.is_empty(), "{}: archetype must exhibit its bug", cell.name());
        check_streaming(cell);
    }
}

#[test]
fn streaming_findings_equal_batch_on_fixed_variants() {
    cells().iter().filter(|c| c.fixed).for_each(|cell| {
        check_streaming(cell);
    });
}

/// Two unordered puts from one origin to one target produce an
/// intra-epoch finding *and* a cross-process finding for the same event
/// pair — equal canonical keys, distinct dedup keys. The batch stable
/// sort keeps the intra-epoch one first; streaming must tie-break the
/// same way (regression: hash-map iteration order leaked into ties).
#[test]
fn tie_between_intra_and_cross_findings_matches_batch_order() {
    fn double_put(p: &mut Proc) {
        let wbuf = p.alloc_i32s(2);
        let win = p.win_create(wbuf, 8, CommId::WORLD);
        p.win_fence(win);
        if p.rank() == 0 {
            let buf = p.alloc_i32s(1);
            p.put(buf, 1, DatatypeId::INT, 2, 0, 1, DatatypeId::INT, win);
            p.put(buf, 1, DatatypeId::INT, 2, 0, 1, DatatypeId::INT, win);
        }
        p.win_fence(win);
        p.win_free(win);
    }
    let trace = trace_of(3, 1, double_put);
    let batch = AnalysisSession::new().run(&trace).diagnostics;
    let intra = batch
        .iter()
        .filter(|e| matches!(e.scope, mc_checker::core::ErrorScope::IntraEpoch { .. }))
        .count();
    assert!(intra >= 1 && intra < batch.len(), "workload must exercise both scope classes");
    let (streamed, _) = StreamingChecker::run_over(&trace);
    assert_eq!(streamed, batch);
}

#[test]
fn streaming_findings_all_carry_complete_confidence() {
    use mc_checker::core::Confidence;
    for cell in cells().iter().filter(|c| c.is_archetype()) {
        let (streamed, _) = StreamingChecker::run_over(&cell.trace);
        for f in &streamed {
            assert_eq!(f.confidence, Confidence::Complete, "{}", cell.name());
        }
    }
}

fn arb_loc() -> impl Strategy<Value = SourceLoc> {
    (0..8u32, 1..5000u32).prop_map(|(f, line)| SourceLoc::new(format!("src/f{f}.c"), line, "fn"))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0..9u32, 0..64u32, 1..8u32, 0..4096u32, 0..2u8).prop_map(
            |(version, nprocs, threads, cap, durable)| Frame::Hello {
                version,
                nprocs,
                opts: SessionOpts {
                    threads,
                    max_buffered: cap,
                    durable: durable == 1,
                    governance: false
                },
            }
        ),
        (0..9u32, 0..u64::MAX, 0..3usize).prop_map(|(version, session, caps)| Frame::Welcome {
            version,
            session,
            capabilities: (0..caps).map(|i| format!("cap{i}")).collect(),
        }),
        (0..u64::MAX, 0..8u32, 0..16u32, arb_loc()).prop_map(|(seq, rank, win, loc)| {
            Frame::Event { seq, rank, kind: EventKind::Fence { win: WinId(win) }, loc }
        }),
        (0..u64::MAX, 0..8u32, arb_loc()).prop_map(|(seq, rank, loc)| Frame::Event {
            seq,
            rank,
            kind: EventKind::Barrier { comm: CommId::WORLD },
            loc,
        }),
        Just(Frame::Finish),
        Just(Frame::Stats),
        Just(Frame::Metrics),
        (0..u64::MAX).prop_map(|through| Frame::Ack { through }),
        (0..u64::MAX, 0..u64::MAX)
            .prop_map(|(session, from_seq)| Frame::Resume { session, from_seq }),
        (0..u64::MAX).prop_map(|session| Frame::Gone { session }),
        (0..100u32).prop_map(|i| Frame::MetricsReport { text: format!("mcc_x {i}\n") }),
        (0..100u32).prop_map(|i| Frame::Report { json: format!("{{\"i\":{i}}}") }),
        (0..100u32).prop_map(|i| Frame::StatsReport { json: format!("{{\"n\":{i}}}") }),
        (0..100u32).prop_map(|i| Frame::Error { message: format!("refused #{i}") }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame round-trips through the wire encoding unchanged.
    #[test]
    fn frames_round_trip(frame in arb_frame()) {
        let bytes = encode_frame_with(&frame, CodecKind::Json);
        let (back, used) = decode_frame(&bytes).expect("encoded frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// No strict prefix of a frame ever decodes — truncation is always
    /// reported, with an accurate byte count, never parsed as a frame.
    #[test]
    fn truncated_frames_are_rejected(frame in arb_frame(), keep in 0..100u32) {
        let bytes = encode_frame_with(&frame, CodecKind::Json);
        let cut = bytes.len() * keep as usize / 100; // < bytes.len()
        match decode_frame(&bytes[..cut]) {
            Err(ProtoError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut);
            }
            other => prop_assert!(false, "prefix of {} bytes decoded as {:?}", cut, other),
        }
    }

    /// Two frames written back to back decode to the same two frames —
    /// the length prefix delimits them exactly.
    #[test]
    fn concatenated_frames_split_cleanly(a in arb_frame(), b in arb_frame()) {
        let mut bytes = encode_frame_with(&a, CodecKind::Json);
        bytes.extend_from_slice(&encode_frame_with(&b, CodecKind::Json));
        let (fa, used) = decode_frame(&bytes).expect("first frame");
        let (fb, rest) = decode_frame(&bytes[used..]).expect("second frame");
        prop_assert_eq!(fa, a);
        prop_assert_eq!(fb, b);
        prop_assert_eq!(used + rest, bytes.len());
    }
}
