//! Socket-level protocol fuzzing against a live daemon. Every attack —
//! seeded random garbage, torn frame headers, single-bit flips on valid
//! frames, hostile event batches, oversized length prefixes — must end
//! in a typed `Error` frame or a clean close, never a wedged thread, a
//! leaked session, or a panic; afterwards the daemon still answers
//! control queries and completes a normal submission.

mod common;
use common::{start_server, wait_until};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::core::Confidence;
use mc_checker::prelude::*;
use mc_checker::serve::proto::{
    encode_frame_with, write_frame_with, EventBatch, Frame, FrameReader, SessionOpts,
    FRAME_HEADER_LEN, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use mc_checker::serve::{client, CodecKind, ProtoError, Registry, ServeConfig};
use mc_checker::types::{EventKind, SourceLoc};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn fuzz_cfg() -> ServeConfig {
    ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    stream
}

/// Reads frames until the server closes the connection (or stops
/// talking for `patience`), returning every frame received. A fuzzed
/// connection must end this way — the read side erroring out with
/// anything other than a timeout means the daemon broke framing.
fn drain_to_close(mut reader: FrameReader<TcpStream>, patience: Duration) -> Vec<Frame> {
    let mut got = Vec::new();
    let start = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Some(f)) => got.push(f),
            Ok(None) => return got,
            Err(ProtoError::Idle) => {
                if start.elapsed() >= patience {
                    return got;
                }
            }
            // The server hung up mid-frame or with unparseable bytes on
            // the wire: from the fuzzer's seat that is still a close,
            // and the post-fuzz liveness checks decide whether the
            // daemon survived.
            Err(_) => return got,
        }
    }
}

/// Reads until the first frame arrives (or `patience` passes without
/// one) and hangs up. For a connection the daemon rightly keeps open,
/// the first frame is all there is to check; holding the connection
/// would wait out the session's idle timeout at shutdown.
fn first_frame(mut reader: FrameReader<TcpStream>, patience: Duration) -> Option<Frame> {
    let start = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Some(f)) => return Some(f),
            Err(ProtoError::Idle) if start.elapsed() < patience => {}
            _ => return None,
        }
    }
}

/// After the abuse: no session may linger, control queries must answer,
/// and a well-formed submission must complete — the daemon took the
/// fuzzing without wedging.
fn assert_daemon_healthy(addr: &str, registry: &Registry) {
    assert!(
        wait_until(
            || {
                let f = registry.fleet();
                f.active == 0 && f.parked == 0
            },
            Duration::from_secs(10)
        ),
        "fuzzed connections leaked sessions: {:?}",
        registry.fleet()
    );
    let stats = client::stats_tcp(addr).expect("stats after fuzzing");
    assert!(stats.contains("sessions_active"), "{stats}");
    let health = client::health_tcp(addr).expect("health after fuzzing");
    assert!(health.contains("schema_version"), "{health}");
    let trace = trace_of(2, 0xF00D, bugs::pingpong::buggy);
    let report = client::submit_tcp(addr, &trace, &SessionOpts::default())
        .expect("a normal submission after fuzzing");
    assert_eq!(report.confidence, Confidence::Complete);
}

/// Pure random byte blobs: whatever the bytes happen to decode as —
/// an oversized length, a checksum mismatch, garbage JSON — the server
/// answers with nothing but typed `Error` frames and closes.
#[test]
fn random_garbage_never_wedges_the_daemon() {
    let (addr, handle, registry, join) = start_server(fuzz_cfg());
    let mut rng = StdRng::seed_from_u64(0x6172_6261_6765);
    for round in 0..48 {
        let len = rng.gen_range(1usize..2048);
        let blob: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut stream = connect(&addr);
        // A blob may exceed the socket buffer after the server already
        // gave up on the connection; a send error is an acceptable end.
        let _ = stream.write_all(&blob);
        // Hang up our side: a blob that reads as a frame prefix gets its
        // end-of-stream now, not when the patience runs out.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        for frame in drain_to_close(FrameReader::new(stream), Duration::from_millis(500)) {
            assert!(
                matches!(frame, Frame::Error { .. }),
                "round {round}: garbage elicited a non-Error frame: {frame:?}"
            );
        }
    }
    assert_daemon_healthy(&addr, &registry);
    handle.shutdown();
    join.join().unwrap();
}

/// A valid handshake followed by a torn frame header (the connection
/// dies mid-header): the session must be salvaged, not leaked.
#[test]
fn torn_header_after_handshake_salvages_the_session() {
    let (addr, handle, registry, join) = start_server(fuzz_cfg());
    let mut rng = StdRng::seed_from_u64(0x7465_6172);
    for _ in 0..8 {
        let stream = connect(&addr);
        let mut reader = FrameReader::new(stream);
        let opts = SessionOpts::default();
        write_frame_with(
            reader.get_mut(),
            &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts },
            CodecKind::Json,
        )
        .unwrap();
        match reader.next_frame() {
            Ok(Some(Frame::Welcome { .. })) => {}
            other => panic!("expected Welcome, got {other:?}"),
        }
        // Tear the stream inside the 8-byte header.
        let cut = rng.gen_range(1usize..FRAME_HEADER_LEN);
        let valid = encode_frame_with(
            &Frame::Event {
                seq: 0,
                rank: 0,
                kind: EventKind::Barrier { comm: CommId::WORLD },
                loc: SourceLoc::unknown(),
            },
            CodecKind::Json,
        );
        reader.get_mut().write_all(&valid[..cut]).unwrap();
        drop(reader);
    }
    assert_daemon_healthy(&addr, &registry);
    handle.shutdown();
    join.join().unwrap();
}

/// Single-bit corruption of a well-formed first frame: every flip lands
/// in the length, the checksum, or the payload, and each is caught as a
/// typed `Error` (checksum mismatch, oversized length) or a clean close
/// while the server waits for bytes that never come.
#[test]
fn bit_flipped_frames_are_rejected_with_typed_errors() {
    let (addr, handle, registry, join) = start_server(fuzz_cfg());
    let opts = SessionOpts::default();
    let pristine = encode_frame_with(
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 2, opts },
        CodecKind::Json,
    );
    let mut rng = StdRng::seed_from_u64(0x666C_6970);
    for round in 0..64 {
        let mut bytes = pristine.clone();
        let bit = rng.gen_range(0usize..bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut stream = connect(&addr);
        let _ = stream.write_all(&bytes);
        // A flip that enlarges the length leaves the daemon waiting for
        // bytes; hanging up our side ends that wait with end-of-stream.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let frames = drain_to_close(FrameReader::new(stream), Duration::from_millis(500));
        for frame in &frames {
            assert!(
                matches!(frame, Frame::Error { .. }),
                "round {round} (bit {bit}): corrupted Hello elicited {frame:?}"
            );
        }
        assert!(
            frames.len() <= 1,
            "round {round} (bit {bit}): one bad frame drew {} replies",
            frames.len()
        );
    }
    assert_daemon_healthy(&addr, &registry);
    handle.shutdown();
    join.join().unwrap();
}

/// Structurally hostile `EventBatch`es behind intact checksums — a loc
/// index past its table, disagreeing column lengths — in both payload
/// codecs: the validator answers with a typed `Error` naming the
/// defect and the session ends salvaged, not wedged.
#[test]
fn hostile_batches_get_typed_errors_in_both_codecs() {
    let (addr, handle, registry, join) = start_server(fuzz_cfg());
    for codec in [CodecKind::Json, CodecKind::Binary] {
        let hostile: [(EventBatch, &str); 2] = [
            (
                EventBatch {
                    first_seq: 0,
                    ranks: vec![0, 0],
                    loc_idx: vec![0, 99],
                    kinds: vec![
                        EventKind::Barrier { comm: CommId::WORLD },
                        EventKind::Barrier { comm: CommId::WORLD },
                    ],
                    locs: vec![SourceLoc::unknown()],
                },
                "loc index",
            ),
            (
                EventBatch {
                    first_seq: 0,
                    ranks: vec![0, 0, 0],
                    loc_idx: vec![0],
                    kinds: vec![EventKind::Barrier { comm: CommId::WORLD }],
                    locs: vec![SourceLoc::unknown()],
                },
                "columns disagree",
            ),
        ];
        for (batch, needle) in hostile {
            let stream = connect(&addr);
            let mut reader = FrameReader::new(stream);
            write_frame_with(
                reader.get_mut(),
                &Frame::Hello {
                    version: PROTOCOL_VERSION,
                    nprocs: 1,
                    opts: SessionOpts::default(),
                },
                CodecKind::Json,
            )
            .unwrap();
            match reader.next_frame() {
                Ok(Some(Frame::Welcome { .. })) => {}
                other => panic!("expected Welcome, got {other:?}"),
            }
            reader.get_mut().write_all(&encode_frame_with(&Frame::Batch(batch), codec)).unwrap();
            let frames = drain_to_close(reader, Duration::from_secs(2));
            let err = frames.iter().find_map(|f| match f {
                Frame::Error { message } => Some(message.clone()),
                _ => None,
            });
            match err {
                Some(message) => assert!(
                    message.contains(needle),
                    "{codec:?}: error should name the defect ({needle}): {message}"
                ),
                None => panic!("{codec:?}: hostile batch drew no Error: {frames:?}"),
            }
        }
    }
    assert_daemon_healthy(&addr, &registry);
    handle.shutdown();
    join.join().unwrap();
}

/// A length prefix past `MAX_FRAME_LEN` is refused from the header
/// alone — the server must answer with the typed oversize `Error`
/// without waiting for (or reading) the announced payload.
#[test]
fn oversized_length_prefix_is_refused_from_the_header() {
    let (addr, handle, registry, join) = start_server(fuzz_cfg());
    for announced in [MAX_FRAME_LEN + 1, u32::MAX as usize] {
        let mut header = Vec::with_capacity(FRAME_HEADER_LEN);
        header.extend_from_slice(&(announced as u32).to_le_bytes());
        header.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let mut stream = connect(&addr);
        stream.write_all(&header).unwrap();
        let started = Instant::now();
        let frames = drain_to_close(FrameReader::new(stream), Duration::from_secs(2));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "oversize rejection waited on payload bytes"
        );
        match frames.as_slice() {
            [Frame::Error { message }] => {
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected exactly one oversize Error, got {other:?}"),
        }
    }
    assert_daemon_healthy(&addr, &registry);
    handle.shutdown();
    join.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: a valid two-frame stream (`Hello` + one event) cut at
    /// ANY byte position and continued with arbitrary junk draws
    /// nothing but the handshake reply and typed `Error`s, leaks no
    /// session, and leaves the daemon answering a fresh handshake.
    #[test]
    fn prefix_plus_junk_streams_never_wedge_the_daemon(
        cut in 0usize..600,
        junk in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..256),
    ) {
        let (addr, handle, registry, join) = start_server(fuzz_cfg());
        let mut bytes = encode_frame_with(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                nprocs: 1,
                opts: SessionOpts::default(),
            },
            CodecKind::Json,
        );
        bytes.extend(encode_frame_with(
            &Frame::Event {
                seq: 0,
                rank: 0,
                kind: EventKind::Barrier { comm: CommId::WORLD },
                loc: SourceLoc::unknown(),
            },
            CodecKind::Json,
        ));
        let cut = cut.min(bytes.len());
        let mut stream = connect(&addr);
        let _ = stream.write_all(&bytes[..cut]);
        let _ = stream.write_all(&junk);
        for frame in drain_to_close(FrameReader::new(stream), Duration::from_millis(500)) {
            // A cut past a complete event may salvage the session when
            // the junk corrupts the stream: a Degraded Report next to
            // the typed Error is the contract, not a violation.
            prop_assert!(
                matches!(
                    frame,
                    Frame::Welcome { .. } | Frame::Error { .. } | Frame::Report { .. }
                ),
                "cut {cut}: mutated stream elicited {frame:?}"
            );
        }
        prop_assert!(
            wait_until(
                || {
                    let f = registry.fleet();
                    f.active == 0 && f.parked == 0
                },
                Duration::from_secs(10)
            ),
            "mutated stream leaked a session: {:?}",
            registry.fleet()
        );
        // The daemon still shakes hands after the abuse.
        let stream = connect(&addr);
        let mut reader = FrameReader::new(stream);
        write_frame_with(
            reader.get_mut(),
            &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts: SessionOpts::default() },
            CodecKind::Json,
        )
        .unwrap();
        let reply = first_frame(reader, Duration::from_millis(500));
        prop_assert!(
            matches!(reply, Some(Frame::Welcome { .. })),
            "no Welcome after fuzzing: {reply:?}"
        );
        handle.shutdown();
        join.join().unwrap();
    }
}
