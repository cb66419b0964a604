//! The codec contract, end to end: every wire frame and journal record
//! survives both codecs unchanged, damaged binary input always comes
//! back as a typed error (never a panic, never a silently wrong value),
//! the daemon produces byte-identical reports whichever codec carried
//! the events (for every built-in case: the `serve` column of
//! `tests/differential.rs`) — and whichever frame shape, a durable
//! resume included — and journals written by the JSON-only builds replay
//! — including into `mcc serve --recover` — without any flag.

mod common;
use common::{sample_trace, start_server, BINARY_CFG, JSON_CFG, SAMPLE};

use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::codec::{decode_auto, encode_with, CodecKind};
use mc_checker::obs::names;
use mc_checker::serve::client;
use mc_checker::serve::journal::{read_journal, FsyncPolicy, JournalRecord};
use mc_checker::serve::proto::{
    decode_frame, encode_frame_with, EventBatch, Frame, FrameReader, ProtoError, SessionOpts,
    PROTOCOL_VERSION,
};
use mc_checker::serve::{ServeConfig, Server, SessionReport};
use mc_checker::types::{EventKind, SourceLoc};
use proptest::prelude::*;

/// Real events from the gallery — far more representative input for the
/// codecs than hand-built values, since every `EventKind` shape a bug
/// archetype produces shows up here.
fn event_pool() -> &'static Vec<(u32, EventKind, SourceLoc)> {
    static POOL: OnceLock<Vec<(u32, EventKind, SourceLoc)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let traces = (0..SAMPLE.len()).map(|i| sample_trace(i, 0xdead).1);
        traces.flat_map(|trace| client::flatten_events(&trace)).collect()
    })
}

fn arb_event() -> impl Strategy<Value = (u32, EventKind, SourceLoc)> {
    (0..event_pool().len()).prop_map(|i| event_pool()[i].clone())
}

fn arb_batch() -> impl Strategy<Value = EventBatch> {
    (0..u32::MAX as u64, proptest::collection::vec(arb_event(), 0..12)).prop_map(
        |(first_seq, events)| {
            let mut b = EventBatch::new(first_seq);
            for (rank, kind, loc) in events {
                b.push(rank, kind, &loc);
            }
            b
        },
    )
}

fn arb_opts() -> impl Strategy<Value = SessionOpts> {
    (1..8u32, 0..4096u32, 0..2u8, 0..2u8).prop_map(|(threads, max_buffered, durable, gov)| {
        SessionOpts { threads, max_buffered, durable: durable == 1, governance: gov == 1 }
    })
}

/// Every `Frame` variant.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0..9u32, 0..64u32, arb_opts()).prop_map(|(version, nprocs, opts)| Frame::Hello {
            version,
            nprocs,
            opts
        }),
        (0..9u32, 0..u64::MAX, 0..3usize).prop_map(|(version, session, caps)| {
            Frame::Welcome {
                version,
                session,
                capabilities: (0..caps).map(|i| format!("cap{i}")).collect(),
            }
        }),
        (0..u64::MAX, arb_event()).prop_map(|(seq, (rank, kind, loc))| Frame::Event {
            seq,
            rank,
            kind,
            loc
        }),
        arb_batch().prop_map(Frame::Batch),
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

/// Every `JournalRecord` variant.
fn arb_journal_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (0..u64::MAX, 1..64u32, arb_opts(), 0..4096u32).prop_map(|(session, nprocs, opts, cap)| {
            JournalRecord::Open { session, nprocs, opts, cap }
        }),
        (0..u64::MAX, arb_event()).prop_map(|(seq, (rank, kind, loc))| JournalRecord::Event {
            seq,
            rank,
            kind,
            loc
        }),
        arb_batch().prop_map(JournalRecord::Batch),
        Just(JournalRecord::Finish),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every frame decodes back to itself from either codec's bytes,
    /// with the auto-detecting decoder (the one the daemon runs).
    #[test]
    fn frames_round_trip_through_both_codecs(frame in arb_frame()) {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let payload = encode_with(kind, &frame);
            let back: Frame = decode_auto(&payload)
                .unwrap_or_else(|e| panic!("{kind} payload failed to decode: {e}"));
            prop_assert_eq!(&back, &frame, "codec {}", kind);
        }
    }

    /// Same contract for everything the WAL can hold.
    #[test]
    fn journal_records_round_trip_through_both_codecs(rec in arb_journal_record()) {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let payload = encode_with(kind, &rec);
            let back: JournalRecord = decode_auto(&payload)
                .unwrap_or_else(|e| panic!("{kind} payload failed to decode: {e}"));
            prop_assert_eq!(&back, &rec, "codec {}", kind);
        }
    }

    /// A torn (truncated) binary batch frame is a typed error or a
    /// "need more bytes" answer — never a panic, never a wrong frame.
    #[test]
    fn torn_binary_batches_error_out_typed(batch in arb_batch(), cut_back in 1usize..64) {
        let bytes = encode_frame_with(&Frame::Batch(batch), CodecKind::Binary);
        let cut = bytes.len().saturating_sub(cut_back);
        match decode_frame(&bytes[..cut]) {
            Err(ProtoError::Truncated { .. } | ProtoError::Malformed(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error type: {e}"),
            Ok(_) => prop_assert!(false, "a torn frame must not decode"),
        }
    }

    /// A bit-flipped binary batch frame is caught — by the CRC in the
    /// frame header, or (for raw payload bytes) by the binary decoder's
    /// own validation. Either way: typed error, no panic.
    #[test]
    fn bit_flipped_binary_batches_error_out_typed(
        batch in arb_batch(),
        pos in 0..usize::MAX,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_frame_with(&Frame::Batch(batch), CodecKind::Binary);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match decode_frame(&bytes) {
            Ok(_) | Err(_) => {} // decoding may legitimately still succeed
        }
        // Raw payload damage (no CRC shield) must still come back typed.
        let payload = &bytes[8..];
        let _ = decode_auto::<Frame>(payload);
    }
}

// ---------------------------------------------------------------------------
// Cross-codec end-to-end equality
// ---------------------------------------------------------------------------

/// A binary-preferring client against a `--no-binary` daemon falls back
/// to JSON cleanly — same session flow, same report.
#[test]
fn binary_client_falls_back_against_a_json_only_server() {
    let (addr, handle, _, join) =
        start_server(ServeConfig { no_binary: true, ..ServeConfig::default() });
    let trace = trace_of(2, 0xdead, bugs::pingpong::buggy);
    let opts = SessionOpts::default();
    let (fallback_report, info) =
        client::submit_tcp_cfg(&addr, &trace, &opts, &BINARY_CFG).expect("fallback submit");
    assert_eq!(info.codec, CodecKind::Json, "no `binary` capability → JSON");
    let (json_report, _) =
        client::submit_tcp_cfg(&addr, &trace, &opts, &JSON_CFG).expect("json submit");
    assert_eq!(fallback_report.to_json(), json_report.to_json());
    handle.shutdown();
    join.join().expect("server thread");
}

// ---------------------------------------------------------------------------
// One ingest path: every wire shape of the same stream is the same session
// ---------------------------------------------------------------------------

/// One way of putting an event stream on the wire.
#[derive(Clone, Copy)]
enum Shape {
    /// One `Event` frame per event, in this codec.
    PerEvent(CodecKind),
    /// Binary `Batch` frames of this many events (the last one short).
    Batches(usize),
}

impl Shape {
    /// Frames carrying `events[from..to]`, numbered from `from`.
    fn frames(
        self,
        events: &[(u32, EventKind, SourceLoc)],
        from: usize,
        to: usize,
    ) -> Vec<Vec<u8>> {
        match self {
            Shape::PerEvent(codec) => (from..to)
                .map(|i| {
                    let (rank, kind, loc) = events[i].clone();
                    encode_frame_with(&Frame::Event { seq: i as u64, rank, kind, loc }, codec)
                })
                .collect(),
            Shape::Batches(n) => (from..to)
                .step_by(n)
                .map(|start| {
                    let mut b = EventBatch::new(start as u64);
                    for (rank, kind, loc) in &events[start..(start + n).min(to)] {
                        b.push(*rank, kind.clone(), loc);
                    }
                    encode_frame_with(&Frame::Batch(b), CodecKind::Binary)
                })
                .collect(),
        }
    }
}

fn connect(addr: &str) -> FrameReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    FrameReader::new(stream)
}

fn send(reader: &mut FrameReader<TcpStream>, frames: &[Vec<u8>]) {
    for bytes in frames {
        reader.get_mut().write_all(bytes).expect("write frame");
    }
}

/// Reads frames until one satisfies `want`, skipping the rest (the
/// per-frame `Ack`s on the way to the one awaited).
fn await_frame(reader: &mut FrameReader<TcpStream>, want: impl Fn(&Frame) -> bool) -> Frame {
    let started = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Some(f)) if want(&f) => return f,
            Ok(Some(Frame::Ack { .. })) => {}
            Ok(Some(other)) => panic!("unexpected frame {other:?}"),
            Ok(None) => panic!("server closed the connection"),
            Err(ProtoError::Idle) => {
                assert!(started.elapsed() < Duration::from_secs(20), "awaited frame never came");
            }
            Err(e) => panic!("protocol error: {e}"),
        }
    }
}

/// The same trace streamed as per-event JSON, per-event binary, and
/// binary batches of 1, 7 and 256 — each as a durable session that loses
/// its connection two thirds in and resumes by re-sending from ten
/// events *before* the acknowledged offset, so the duplicate prefix ends
/// mid-batch for the multi-event shapes. Whatever the shape: the same
/// report bytes, event count, duplicate count, and journaled events.
#[test]
fn every_wire_shape_is_the_same_session() {
    let trace = trace_of(4, 0xdead, bugs::adlb::buggy);
    let events = client::flatten_events(&trace);
    let total = events.len();
    let cut = total * 2 / 3;
    let resend_from = cut - 10;
    assert!(
        !(cut - resend_from).is_multiple_of(7) && total - resend_from > 7,
        "prefix must end mid-batch"
    );

    let shapes = [
        ("per-event json", Shape::PerEvent(CodecKind::Json)),
        ("per-event binary", Shape::PerEvent(CodecKind::Binary)),
        ("batches of 1", Shape::Batches(1)),
        ("batches of 7", Shape::Batches(7)),
        ("batches of 256", Shape::Batches(256)),
    ];
    let mut outcomes = Vec::new();
    for (name, shape) in shapes {
        let dir = std::env::temp_dir().join(format!(
            "mcc-shapes-{}-{}",
            std::process::id(),
            name.replace(' ', "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // An Ack per ingested frame, so the test can wait for "all of
        // this leg is journaled" instead of sleeping.
        let cfg = ServeConfig {
            journal_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Never,
            ack_interval: 1,
            ..ServeConfig::default()
        };
        let recorder = cfg.recorder.clone();
        let (addr, handle, _, join) = start_server(cfg);

        // First leg: events [0, cut), then the client dies.
        let mut reader = connect(&addr);
        let opts = SessionOpts { durable: true, ..SessionOpts::default() };
        let hello = Frame::Hello { version: PROTOCOL_VERSION, nprocs: 4, opts };
        send(&mut reader, &[encode_frame_with(&hello, CodecKind::Json)]);
        let welcome = await_frame(&mut reader, |f| matches!(f, Frame::Welcome { .. }));
        let Frame::Welcome { session, .. } = welcome else { unreachable!() };
        send(&mut reader, &shape.frames(&events, 0, cut));
        await_frame(&mut reader, |f| *f == Frame::Ack { through: cut as u64 });
        drop(reader);

        // Second leg: resume and re-send from before the offset.
        let mut reader = connect(&addr);
        let resume = Frame::Resume { session, from_seq: 0 };
        send(&mut reader, &[encode_frame_with(&resume, CodecKind::Json)]);
        await_frame(&mut reader, |f| matches!(f, Frame::Welcome { .. }));
        await_frame(&mut reader, |f| *f == Frame::Ack { through: cut as u64 });
        send(&mut reader, &shape.frames(&events, resend_from, total));
        await_frame(&mut reader, |f| *f == Frame::Ack { through: total as u64 });
        let journaled = read_journal(&dir.join(format!("session-{session}.mccj")))
            .unwrap_or_else(|e| panic!("{name}: journal unreadable: {e}"));
        assert!(!journaled.torn && !journaled.finished, "{name}");
        send(&mut reader, &[encode_frame_with(&Frame::Finish, CodecKind::Json)]);
        let report = await_frame(&mut reader, |f| matches!(f, Frame::Report { .. }));
        let Frame::Report { json } = report else { unreachable!() };

        let ingested = SessionReport::from_json(&json).expect("report parses").events_ingested;
        let duplicates =
            recorder.snapshot().counters.get(names::EVENTS_DUPLICATE).copied().unwrap_or(0);
        outcomes.push((name, json, ingested, duplicates, journaled.events));
        handle.shutdown();
        join.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
    }

    let stream: Vec<_> = events
        .iter()
        .enumerate()
        .map(|(i, (rank, kind, loc))| (i as u64, *rank, kind.clone(), loc.clone()))
        .collect();
    let reference = outcomes[0].1.clone();
    for (name, json, ingested, duplicates, journaled) in outcomes {
        assert_eq!(json, reference, "{name}: report bytes differ from per-event json");
        assert_eq!(ingested, total as u64, "{name}");
        assert_eq!(duplicates, (cut - resend_from) as u64, "{name}");
        assert_eq!(journaled, stream, "{name}: journal must hold the stream exactly once");
    }
}

// ---------------------------------------------------------------------------
// The committed old-format fixture journal
// ---------------------------------------------------------------------------

/// Bytes written by the JSON-only journal format of earlier builds:
/// an unfinished durable pingpong session, 6 events in.
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/session-7.mccj")
}

#[test]
fn committed_json_journal_replays_without_a_flag() {
    let replay = read_journal(&fixture_path()).expect("old journal replays");
    assert_eq!(replay.session, 7);
    assert_eq!(replay.events.len(), 6);
    assert!(!replay.finished, "fixture is an unfinished session");
    assert!(!replay.torn);
    // The replayed prefix is exactly the pingpong stream's head.
    let expected = client::flatten_events(&trace_of(2, 0xdead, bugs::pingpong::buggy));
    for (i, (seq, rank, kind, loc)) in replay.events.iter().enumerate() {
        assert_eq!(*seq, i as u64);
        assert_eq!((*rank, kind, loc), (expected[i].0, &expected[i].1, &expected[i].2));
    }
}

/// `mcc serve --recover` on a journal dir holding the old-format
/// fixture parks the session for resume — no migration, no flag.
#[test]
fn committed_json_journal_recovers_into_a_parked_session() {
    let dir = std::env::temp_dir().join(format!("mcc-fixture-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture_path(), dir.join("session-7.mccj")).unwrap();
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        recover: true,
        resume_grace: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    assert_eq!(server.registry().parked_count(), 1, "fixture session is parked, resumable");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
