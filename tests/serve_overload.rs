//! Overload and resource-governance tests for the daemon: admission
//! control (`--max-sessions`, pressure-aware `Busy`), per-session quotas
//! (events, buffered bytes, rate pacing, deadline), deterministic
//! priority load shedding under a memory ceiling, and the acceptance
//! scenario — a flooder and a slowloris among well-behaved sessions,
//! with the well-behaved reports byte-identical to an unloaded run.

mod common;
use common::{json_field, start_server, wait_until, write_json};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::core::{Confidence, StreamingChecker};
use mc_checker::prelude::*;
use mc_checker::serve::proto::{
    write_frame_with, Frame, FrameReader, SessionOpts, PROTOCOL_VERSION,
};
use mc_checker::serve::{client, CodecKind, ProtoError, RetryPolicy, ServeConfig, SessionReport};
use mc_checker::types::{EventKind, RmaKind, RmaOp, SourceLoc};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Mirrors `server::BYTES_REPORT_DELTA`: buffered-byte growth past this
/// triggers a progress report, which is what lands a session's bytes in
/// the supervisor's accounting.
const BYTES_REPORT_DELTA: u64 = 1 << 20;

/// Next frame from the server, tolerating read-timeout ticks up to a
/// deadline (client sockets carry a short read timeout so a wedged test
/// fails instead of hanging).
fn next_frame_within(reader: &mut FrameReader<TcpStream>, deadline: Duration) -> Frame {
    let start = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Some(f)) => return f,
            Ok(None) => panic!("connection closed while a frame was expected"),
            Err(ProtoError::Idle) => {
                assert!(start.elapsed() < deadline, "no frame within {deadline:?}");
            }
            Err(e) => panic!("protocol error while reading: {e}"),
        }
    }
}

/// Opens a raw session and returns the reader plus the server-assigned
/// session id.
fn open_session(addr: &str, nprocs: u32, governance: bool) -> (FrameReader<TcpStream>, u64) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut reader = FrameReader::new(stream);
    let opts = SessionOpts { governance, ..SessionOpts::default() };
    write_json(reader.get_mut(), &Frame::Hello { version: PROTOCOL_VERSION, nprocs, opts })
        .unwrap();
    let id = match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Welcome { session, .. } => session,
        other => panic!("expected Welcome, got {other:?}"),
    };
    (reader, id)
}

/// One-rank event stream that only buffers: a `WinCreate`, then puts to
/// disjoint displacements (no conflicts, so salvage analysis stays
/// cheap) carrying a large function name each, and no closing sync.
/// Events are appended until the local byte accountant crosses
/// `target_bytes`; the function returns the stream and its exact final
/// buffered-byte charge — which is also what the daemon will register,
/// because the crossing event triggers a progress report.
fn buffering_events(func_len: usize, target_bytes: u64) -> (Vec<(EventKind, SourceLoc)>, u64) {
    let mut sc = StreamingChecker::new(1).unwrap();
    let mut out: Vec<(EventKind, SourceLoc)> = Vec::new();
    let wc =
        EventKind::WinCreate { win: WinId(0), base: 0x1000, len: 1 << 30, comm: CommId::WORLD };
    sc.push(Rank(0), wc.clone(), SourceLoc::unknown()).unwrap();
    out.push((wc, SourceLoc::unknown()));
    let func = "f".repeat(func_len);
    let mut i = 0u64;
    while (sc.buffered_bytes() as u64) < target_bytes {
        let kind = EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(0),
            origin_addr: 0x4000_0000 + i * 8,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: i * 8,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        });
        let loc = SourceLoc::new("overload.c", i as u32 + 1, &func);
        sc.push(Rank(0), kind.clone(), loc.clone()).unwrap();
        out.push((kind, loc));
        i += 1;
    }
    (out, sc.buffered_bytes() as u64)
}

/// A stream of exactly 256 events (a `WinCreate` plus 255 disjoint
/// puts), so the final event lands on the daemon's every-256-events
/// progress cadence and the session's full buffered charge registers
/// with the supervisor the moment the stream ends. The charge scales
/// with `func_len`, giving each session a distinct, locally-measured
/// size without megabyte-scale frames.
fn sized_stream(func_len: usize) -> (Vec<(EventKind, SourceLoc)>, u64) {
    let mut sc = StreamingChecker::new(1).unwrap();
    let mut out: Vec<(EventKind, SourceLoc)> = Vec::new();
    let wc =
        EventKind::WinCreate { win: WinId(0), base: 0x1000, len: 1 << 30, comm: CommId::WORLD };
    sc.push(Rank(0), wc.clone(), SourceLoc::unknown()).unwrap();
    out.push((wc, SourceLoc::unknown()));
    let func = "f".repeat(func_len);
    for i in 0..255u64 {
        let kind = EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(0),
            origin_addr: 0x4000_0000 + i * 8,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: i * 8,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        });
        let loc = SourceLoc::new("overload.c", i as u32 + 1, &func);
        sc.push(Rank(0), kind.clone(), loc.clone()).unwrap();
        out.push((kind, loc));
    }
    (out, sc.buffered_bytes() as u64)
}

fn feed(reader: &mut FrameReader<TcpStream>, events: &[(EventKind, SourceLoc)], codec: CodecKind) {
    for (seq, (kind, loc)) in events.iter().enumerate() {
        write_frame_with(
            reader.get_mut(),
            &Frame::Event { seq: seq as u64, rank: 0, kind: kind.clone(), loc: loc.clone() },
            codec,
        )
        .unwrap();
    }
}

/// `--max-sessions 1`: the second `Hello` is refused — governance-aware
/// clients get a typed `Busy` carrying the configured retry hint, legacy
/// clients a plain `Error` — and the slot reopens once the first session
/// finishes.
#[test]
fn session_cap_refuses_hellos_with_typed_busy() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(5),
        max_sessions: 1,
        busy_retry_after: Duration::from_millis(123),
        ..ServeConfig::default()
    };
    let (addr, handle, registry, join) = start_server(cfg);

    let (mut first, _) = open_session(&addr, 1, true);

    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut reader = FrameReader::new(stream);
    let opts = SessionOpts { governance: true, ..SessionOpts::default() };
    write_json(reader.get_mut(), &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts })
        .unwrap();
    match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Busy { retry_after_ms, message } => {
            assert_eq!(retry_after_ms, 123);
            assert!(message.contains("capacity"), "{message}");
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // A client that never announced governance support must not see the
    // new frame type.
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut legacy = FrameReader::new(stream);
    write_json(
        legacy.get_mut(),
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts: SessionOpts::default() },
    )
    .unwrap();
    match next_frame_within(&mut legacy, Duration::from_secs(5)) {
        Frame::Error { message } => assert!(message.contains("capacity"), "{message}"),
        other => panic!("expected Error for a legacy client, got {other:?}"),
    }

    // Finish the admitted session; the slot reopens.
    write_json(first.get_mut(), &Frame::Finish).unwrap();
    assert!(matches!(next_frame_within(&mut first, Duration::from_secs(5)), Frame::Report { .. }));
    assert!(wait_until(|| registry.fleet().active == 0, Duration::from_secs(5)));
    let (_reader, _) = open_session(&addr, 1, true);

    let health = client::health_tcp(&addr).expect("health");
    assert!(json_field(&health, "rejected") >= Some(2), "{health}");
    assert_eq!(json_field(&health, "max_sessions"), Some(1), "{health}");
    handle.shutdown();
    join.join().unwrap();
}

/// Elevated memory pressure (>= 3/4 of the ceiling) refuses new
/// `Hello`s while existing sessions continue; the pressure clears when
/// the buffering session finishes, and admission resumes.
#[test]
fn elevated_pressure_refuses_new_sessions_until_it_clears() {
    let (events, bytes) = buffering_events(200_000, BYTES_REPORT_DELTA);
    // Ceiling such that the session's charge sits exactly at the 3/4
    // admission threshold but safely below the 9/10 shedding threshold.
    let ceiling = (bytes * 4 / 3) as usize;
    // The hog falls silent once fed and stays admitted for the idle
    // timeout, so that — not a shorter wall deadline — is how long its
    // charge may take to show up on a busy machine.
    let patience = Duration::from_secs(120);
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: patience,
        mem_ceiling: ceiling,
        ..ServeConfig::default()
    };
    let (addr, handle, registry, join) = start_server(cfg);

    // Binary frames: the daemon decodes this megabyte of `SourceLoc`
    // text in milliseconds, where per-event JSON costs a debug build
    // seconds of CPU it has to share with the sibling tests.
    let (mut hog, _) = open_session(&addr, 1, true);
    feed(&mut hog, &events, CodecKind::Binary);
    assert!(
        wait_until(|| registry.fleet().buffered_bytes == bytes, patience),
        "the hog's progress report never reached the accountant"
    );
    let health = client::health_tcp(&addr).expect("health");
    assert_eq!(json_field(&health, "buffered_bytes"), Some(bytes), "{health}");
    assert!(health.contains("\"level\":\"elevated\""), "{health}");

    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut reader = FrameReader::new(stream);
    let opts = SessionOpts { governance: true, ..SessionOpts::default() };
    write_json(reader.get_mut(), &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts })
        .unwrap();
    match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Busy { message, .. } => assert!(message.contains("pressure"), "{message}"),
        other => panic!("expected Busy under elevated pressure, got {other:?}"),
    }

    // The buffering session itself is below every hard quota: it may
    // finish normally, and its exit clears the pressure.
    write_json(hog.get_mut(), &Frame::Finish).unwrap();
    let report = match next_frame_within(&mut hog, Duration::from_secs(10)) {
        Frame::Report { json } => SessionReport::from_json(&json).unwrap(),
        other => panic!("expected Report, got {other:?}"),
    };
    assert_eq!(report.confidence, Confidence::Complete);
    assert!(
        wait_until(|| registry.fleet().buffered_bytes == 0, patience),
        "pressure never cleared after the hog finished"
    );
    let health = client::health_tcp(&addr).expect("health");
    assert!(health.contains("\"level\":\"normal\""), "{health}");
    // Admission resumes; the probe hangs up at once so shutdown does not
    // sit out its idle timeout.
    drop(open_session(&addr, 1, true));
    handle.shutdown();
    join.join().unwrap();
}

/// The per-session event-count quota evicts with a typed
/// `QuotaExceeded` (legacy clients: a plain `Error`) followed by a
/// degraded report counting exactly the ingested events.
#[test]
fn max_events_quota_evicts_into_degraded_report() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(5),
        quota_max_events: 10,
        ..ServeConfig::default()
    };
    let (addr, handle, _registry, join) = start_server(cfg);

    let (mut reader, _) = open_session(&addr, 1, true);
    for seq in 0..12u64 {
        write_json(
            reader.get_mut(),
            &Frame::Event {
                seq,
                rank: 0,
                kind: EventKind::Barrier { comm: CommId::WORLD },
                loc: SourceLoc::unknown(),
            },
        )
        .unwrap();
    }
    match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::QuotaExceeded { quota, limit, observed } => {
            assert_eq!(quota, "max-events");
            assert_eq!(limit, 10);
            assert_eq!(observed, 11);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let report = match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Report { json } => SessionReport::from_json(&json).unwrap(),
        other => panic!("expected Report, got {other:?}"),
    };
    assert_eq!(report.confidence, Confidence::Degraded);
    assert_eq!(report.events_ingested, 11);

    // Legacy client: same eviction, plain Error.
    let (mut legacy, _) = open_session(&addr, 1, false);
    for seq in 0..12u64 {
        write_json(
            legacy.get_mut(),
            &Frame::Event {
                seq,
                rank: 0,
                kind: EventKind::Barrier { comm: CommId::WORLD },
                loc: SourceLoc::unknown(),
            },
        )
        .unwrap();
    }
    match next_frame_within(&mut legacy, Duration::from_secs(5)) {
        Frame::Error { message } => assert!(message.contains("max-events"), "{message}"),
        other => panic!("expected Error for a legacy client, got {other:?}"),
    }
    handle.shutdown();
    join.join().unwrap();
}

/// The per-session buffered-bytes quota evicts a session whose checker
/// charge grows past the limit.
#[test]
fn max_buffered_bytes_quota_evicts_hoarders() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(5),
        quota_max_bytes: 60_000,
        ..ServeConfig::default()
    };
    let (addr, handle, _registry, join) = start_server(cfg);

    let (events, _) = buffering_events(1_000, 120_000);
    let (mut reader, _) = open_session(&addr, 1, true);
    feed(&mut reader, &events, CodecKind::Json);
    match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::QuotaExceeded { quota, limit, observed } => {
            assert_eq!(quota, "max-buffered-bytes");
            assert_eq!(limit, 60_000);
            assert!(observed > 60_000, "observed {observed} must exceed the limit");
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let report = match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Report { json } => SessionReport::from_json(&json).unwrap(),
        other => panic!("expected Report, got {other:?}"),
    };
    assert_eq!(report.confidence, Confidence::Degraded);
    handle.shutdown();
    join.join().unwrap();
}

/// The event-rate quota paces instead of evicting: the stream completes
/// with a full report, the client sees a `Throttled` advisory, and the
/// fleet counts the session as throttled exactly once.
#[test]
fn event_rate_quota_paces_without_evicting() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(10),
        quota_event_rate: 200,
        ..ServeConfig::default()
    };
    let (addr, handle, registry, join) = start_server(cfg);

    let (mut reader, _) = open_session(&addr, 1, true);
    for seq in 0..400u64 {
        write_json(
            reader.get_mut(),
            &Frame::Event {
                seq,
                rank: 0,
                kind: EventKind::Barrier { comm: CommId::WORLD },
                loc: SourceLoc::unknown(),
            },
        )
        .unwrap();
    }
    write_json(reader.get_mut(), &Frame::Finish).unwrap();
    let mut throttled_frames = 0;
    let report = loop {
        match next_frame_within(&mut reader, Duration::from_secs(30)) {
            Frame::Throttled { retry_after_ms: _ } => throttled_frames += 1,
            Frame::Report { json } => break SessionReport::from_json(&json).unwrap(),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(throttled_frames >= 1, "the crossing must be announced");
    assert_eq!(report.confidence, Confidence::Complete, "pacing never degrades");
    assert_eq!(report.events_ingested, 400);
    assert_eq!(registry.fleet().throttled, 1, "one crossing, one count");
    handle.shutdown();
    join.join().unwrap();
}

/// The wall-clock deadline evicts an open-ended session through the
/// same typed path.
#[test]
fn session_deadline_evicts_stale_sessions() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(10),
        session_deadline: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let (addr, handle, _registry, join) = start_server(cfg);

    let (mut reader, _) = open_session(&addr, 1, true);
    write_json(
        reader.get_mut(),
        &Frame::Event {
            seq: 0,
            rank: 0,
            kind: EventKind::Barrier { comm: CommId::WORLD },
            loc: SourceLoc::unknown(),
        },
    )
    .unwrap();
    // Say nothing further; the deadline must fire well before the idle
    // timeout would.
    match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::QuotaExceeded { quota, limit, observed } => {
            assert_eq!(quota, "deadline");
            assert_eq!(limit, 300);
            assert!(observed >= 300, "elapsed {observed}ms must be past the deadline");
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let report = match next_frame_within(&mut reader, Duration::from_secs(5)) {
        Frame::Report { json } => SessionReport::from_json(&json).unwrap(),
        other => panic!("expected Report, got {other:?}"),
    };
    assert_eq!(report.confidence, Confidence::Degraded);
    assert_eq!(report.events_ingested, 1);
    handle.shutdown();
    join.join().unwrap();
}

/// One run of the shedding scenario: four sessions with distinct,
/// locally-measured buffer charges under a ceiling sized so that
/// crossing into Critical requires all four — and relieving it requires
/// exactly the two largest. Returns the shed log and every session's
/// report JSON (victims degraded, survivors complete), in session-id
/// order.
fn shed_scenario(tick_ms: u64, codec: CodecKind) -> (Vec<u64>, Vec<String>) {
    let streams: Vec<(Vec<(EventKind, SourceLoc)>, u64)> =
        [1400, 1300, 1200, 1100].iter().map(|&len| sized_stream(len)).collect();
    let r: Vec<u64> = streams.iter().map(|(_, bytes)| *bytes).collect();
    let total: u64 = r.iter().sum();
    assert!(
        r[0] > r[1] && r[1] > r[2] && r[2] > r[3],
        "charges must be distinct and descending: {r:?}"
    );
    // Critical (>= 9/10) only once all four sessions have registered;
    // shedding to the 3/4 target must need the largest two victims.
    let lower = ((r[0] + r[1] + r[2]) * 10 / 9 + 1).max((total - r[0] - r[1]) * 4 / 3 + 1);
    let upper = (total * 10 / 9).min((total - r[0]) * 4 / 3);
    assert!(lower + 65_536 < upper, "scenario sizing collapsed: {lower}..{upper} for {r:?}");
    let ceiling = ((lower + upper) / 2) as usize;

    let cfg = ServeConfig {
        tick: Duration::from_millis(tick_ms),
        idle_timeout: Duration::from_secs(20),
        mem_ceiling: ceiling,
        ..ServeConfig::default()
    };
    let (addr, handle, registry, join) = start_server(cfg);

    // Admit all four up front (feeding would trip pressure-aware
    // admission), sequentially so the session ids are deterministic.
    let mut sessions: Vec<(FrameReader<TcpStream>, u64)> =
        (0..4).map(|_| open_session(&addr, 1, true)).collect();
    let ids: Vec<u64> = sessions.iter().map(|(_, id)| *id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4], "sequential admission must assign sequential ids");

    // Feed one session at a time and wait for its charge to register, so
    // the supervisor observes the same deterministic sequence of fleet
    // states in every run. The last session's registration tips the
    // accountant into Critical and shedding starts draining the total
    // immediately, so its arrival is observed via the shed log below,
    // not via a racy read of the momentary fleet total.
    let mut registered = 0u64;
    for (i, (reader, _)) in sessions.iter_mut().enumerate() {
        feed(reader, &streams[i].0, codec);
        registered += r[i];
        let expect = registered;
        if i < 3 {
            assert!(
                wait_until(|| registry.fleet().buffered_bytes == expect, Duration::from_secs(10)),
                "session {} never registered its {} bytes",
                i + 1,
                r[i]
            );
        }
    }

    // The janitor crosses into Critical and sheds the two largest.
    assert!(
        wait_until(|| registry.shed_log().len() == 2, Duration::from_secs(10)),
        "shedding never happened (log: {:?})",
        registry.shed_log()
    );
    let shed = registry.shed_log();

    let mut reports = Vec::new();
    for (reader, id) in sessions.iter_mut() {
        let victim = shed.contains(id);
        if !victim {
            write_json(reader.get_mut(), &Frame::Finish).unwrap();
        }
        let json = loop {
            match next_frame_within(reader, Duration::from_secs(10)) {
                Frame::QuotaExceeded { quota, limit, .. } => {
                    assert!(victim, "session {id} evicted without being shed");
                    assert_eq!(quota, "memory-pressure");
                    assert_eq!(limit, ceiling as u64);
                }
                Frame::Report { json } => break json,
                other => panic!("unexpected frame {other:?}"),
            }
        };
        let report = SessionReport::from_json(&json).unwrap();
        assert_eq!(
            report.confidence,
            if victim { Confidence::Degraded } else { Confidence::Complete },
            "session {id}"
        );
        reports.push(json);
    }
    // One shedding pass settles the pressure: no victim beyond the
    // necessary two, ever.
    assert_eq!(registry.shed_log().len(), 2);
    handle.shutdown();
    join.join().unwrap();
    (shed, reports)
}

/// Shedding is deterministic: the same four unequal sessions shed the
/// same victims in the same largest-buffer-first order, and every
/// session's report is byte-identical, across supervisor tick lengths
/// and both wire codecs.
#[test]
fn shedding_order_and_reports_are_deterministic() {
    let mut baseline: Option<(Vec<u64>, Vec<String>)> = None;
    for &tick_ms in &[15u64, 30, 60] {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            let (shed, reports) = shed_scenario(tick_ms, codec);
            assert_eq!(
                shed,
                vec![1, 2],
                "largest-buffer-first order broke at tick {tick_ms}ms / {codec:?}"
            );
            match &baseline {
                None => baseline = Some((shed, reports)),
                Some((shed0, reports0)) => {
                    assert_eq!(&shed, shed0, "shed order diverged at {tick_ms}ms / {codec:?}");
                    assert_eq!(
                        &reports, reports0,
                        "reports diverged at tick {tick_ms}ms / {codec:?}"
                    );
                }
            }
        }
    }
}

/// The acceptance scenario: under a hard ceiling, an event-flooder and a
/// slowloris run alongside fourteen well-behaved sessions. The daemon's
/// own accounting never exceeds the ceiling, only the flooder is shed
/// (the slowloris dies of idleness), and every well-behaved report is
/// byte-identical to an unloaded run.
#[test]
fn overload_spares_well_behaved_sessions() {
    type BugBody = fn(&mut mc_checker::prelude::Proc);
    let cases: [(&'static str, u32, BugBody); 7] = [
        ("emulate", 4, bugs::emulate::buggy),
        ("emulate-fixed", 4, bugs::emulate::fixed),
        ("mpi3_queue", 4, bugs::mpi3_queue::buggy),
        ("jacobi-fixed", 4, bugs::jacobi::fixed),
        ("adlb", 4, bugs::adlb::buggy),
        ("pingpong", 2, bugs::pingpong::buggy),
        ("emulate-2", 4, bugs::emulate::buggy),
    ];
    let traces: Vec<(&'static str, Trace)> = (0..14)
        .map(|i| {
            let (name, nprocs, body) = cases[i % cases.len()];
            (name, trace_of(nprocs, 0xbeef + i as u64, body))
        })
        .collect();
    let policy = RetryPolicy {
        retries: 40,
        base_backoff: Duration::from_millis(25),
        max_backoff: Duration::from_millis(250),
        reply_deadline: Duration::from_secs(15),
        ..RetryPolicy::default()
    };

    // Unloaded baseline: same traces, same client path, no hostiles.
    let baseline_cfg = ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (addr, handle, _registry, join) = start_server(baseline_cfg);
    let baseline: Vec<String> = traces
        .iter()
        .map(|(name, trace)| {
            let opts = SessionOpts::default();
            let (report, _) = client::submit_durable_tcp(&addr, trace, &opts, &policy)
                .unwrap_or_else(|e| panic!("{name}: baseline submit failed: {e}"));
            assert_eq!(report.confidence, Confidence::Complete, "{name}");
            report.to_json()
        })
        .collect();
    handle.shutdown();
    join.join().unwrap();

    // The governed run: 24 MiB ceiling, fast janitor, short idle so the
    // slowloris dies promptly.
    let ceiling = 24 << 20;
    let cfg = ServeConfig {
        tick: Duration::from_millis(5),
        idle_timeout: Duration::from_millis(600),
        mem_ceiling: ceiling,
        ..ServeConfig::default()
    };
    let (addr, handle, registry, join) = start_server(cfg);

    // The slowloris: one event, then silence. Holds its socket open from
    // the main thread for the whole scenario.
    let (mut slowloris, slowloris_id) = open_session(&addr, 1, true);
    write_json(
        slowloris.get_mut(),
        &Frame::Event {
            seq: 0,
            rank: 0,
            kind: EventKind::Barrier { comm: CommId::WORLD },
            loc: SourceLoc::unknown(),
        },
    )
    .unwrap();

    // The flooder: giant events, no syncs, as fast as the socket takes
    // them, until the daemon cuts it off.
    let flooder_addr = addr.clone();
    let flooder = thread::spawn(move || {
        let (mut reader, id) = open_session(&flooder_addr, 1, true);
        let wc =
            EventKind::WinCreate { win: WinId(0), base: 0x1000, len: 1 << 30, comm: CommId::WORLD };
        if write_json(
            reader.get_mut(),
            &Frame::Event { seq: 0, rank: 0, kind: wc, loc: SourceLoc::unknown() },
        )
        .is_err()
        {
            return id;
        }
        let func = "f".repeat(8 << 10);
        for i in 0..8_000u64 {
            let kind = EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(0),
                origin_addr: 0x4000_0000 + i * 8,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: i * 8,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            });
            let frame = Frame::Event {
                seq: 1 + i,
                rank: 0,
                kind,
                loc: SourceLoc::new("flood.c", i as u32 + 1, &func),
            };
            if write_frame_with(reader.get_mut(), &frame, CodecKind::Json).is_err() {
                break; // evicted: the daemon closed the socket on us
            }
        }
        id
    });

    let workers: Vec<_> = traces
        .iter()
        .map(|(name, trace)| {
            let addr = addr.clone();
            let policy = policy.clone();
            let trace = trace.clone();
            let name = *name;
            thread::spawn(move || {
                let opts = SessionOpts::default();
                let (report, _) = client::submit_durable_tcp(&addr, &trace, &opts, &policy)
                    .unwrap_or_else(|e| panic!("{name}: submit under load failed: {e}"));
                report.to_json()
            })
        })
        .collect();

    let flooder_id = flooder.join().expect("flooder thread");
    let under_load: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // The slowloris is idle-salvaged (degraded report), never shed.
    let report = match next_frame_within(&mut slowloris, Duration::from_secs(10)) {
        Frame::Report { json } => SessionReport::from_json(&json).unwrap(),
        other => panic!("slowloris expected a salvage report, got {other:?}"),
    };
    assert_eq!(report.confidence, Confidence::Degraded);
    assert_eq!(report.events_ingested, 1);

    // Only the flooder was shed, and the accountant never saw the fleet
    // above the ceiling.
    assert!(
        wait_until(|| !registry.shed_log().is_empty(), Duration::from_secs(10)),
        "the flooder was never shed"
    );
    assert!(!registry.shed_log().contains(&slowloris_id), "the slowloris must idle out, not shed");
    assert_eq!(registry.shed_log(), vec![flooder_id], "shed something other than the flooder");
    let f = registry.fleet();
    assert!(
        f.peak_accounted_bytes <= ceiling as u64,
        "accounting peaked at {} over the {} ceiling",
        f.peak_accounted_bytes,
        ceiling
    );
    for (i, (json, base)) in under_load.iter().zip(baseline.iter()).enumerate() {
        assert_eq!(json, base, "{}: report diverged under load", traces[i].0);
    }
    handle.shutdown();
    join.join().unwrap();
}
