//! End-to-end tests of the checker daemon: concurrent sessions over real
//! sockets, batch-equivalent reports, handshake rejection, bounded-memory
//! degradation, and salvage of sessions that die mid-stream — with the
//! supervisor's `STATS` verb proving no session ever leaks.

mod common;
use common::{json_field, start_server, wait_until, write_json};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::apps::case;
use mc_checker::core::Confidence;
use mc_checker::prelude::*;
use mc_checker::serve::proto::{Frame, FrameReader, SessionOpts, PROTOCOL_VERSION};
use mc_checker::serve::{client, ServeConfig};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    }
}

/// The acceptance scenario: six concurrent client sessions — buggy and
/// clean mixed — each receiving exactly the findings a batch
/// `AnalysisSession` produces over its trace, all `Complete`.
#[test]
fn concurrent_sessions_each_get_their_batch_report() {
    // Registry cases: (name, ranks, fixed variant?).
    let sessions = [
        ("emulate", 4, false),
        ("emulate", 4, true),
        ("mpi3-queue", 4, false),
        ("jacobi", 4, true),
        ("adlb", 4, false),
        ("ping-pong", 2, false),
    ];
    let (addr, handle, _, join) = start_server(quick_cfg());

    let workers: Vec<_> = sessions
        .iter()
        .map(|&(name, nprocs, fixed)| {
            let addr = addr.clone();
            let body = case(name).and_then(|c| c.body(fixed)).expect("a registry body");
            thread::spawn(move || {
                let trace = trace_of(nprocs, 0xdead, body);
                let batch = AnalysisSession::new().run(&trace).diagnostics;
                let report = client::submit_tcp(&addr, &trace, &SessionOpts::default())
                    .unwrap_or_else(|e| panic!("{name}: submit failed: {e}"));
                assert_eq!(report.confidence, Confidence::Complete, "{name}");
                assert_eq!(report.findings, batch, "{name}: daemon diverged from batch");
                assert_eq!(report.events_ingested, trace.total_events() as u64, "{name}");
                (name, fixed, report.findings.len())
            })
        })
        .collect();
    let mut buggy_with_findings = 0;
    for w in workers {
        let (name, fixed, n) = w.join().expect("client thread");
        if !fixed {
            assert!(n > 0, "{name}: buggy case must produce findings");
            buggy_with_findings += 1;
        } else {
            assert_eq!(n, 0, "{name}: fixed case must be clean");
        }
    }
    assert_eq!(buggy_with_findings, 4);

    let stats = client::stats_tcp(&addr).expect("stats");
    assert_eq!(json_field(&stats, "sessions_active"), Some(0), "{stats}");
    assert_eq!(json_field(&stats, "sessions_completed"), Some(6), "{stats}");
    assert_eq!(json_field(&stats, "sessions_salvaged"), Some(0), "{stats}");
    handle.shutdown();
    join.join().unwrap();
}

/// A client killed mid-stream is salvaged: the supervisor ends the
/// session as salvaged (never leaked) and counts its events.
#[test]
fn killed_session_is_salvaged_not_leaked() {
    let (addr, handle, _, join) = start_server(quick_cfg());

    {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = FrameReader::new(stream);
        write_json(
            reader.get_mut(),
            &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 2, opts: SessionOpts::default() },
        )
        .unwrap();
        assert!(matches!(reader.next_frame().unwrap(), Some(Frame::Welcome { .. })));
        for rank in 0..2u32 {
            write_json(
                reader.get_mut(),
                &Frame::Event {
                    seq: rank as u64,
                    rank,
                    kind: mc_checker::types::EventKind::Barrier { comm: CommId::WORLD },
                    loc: mc_checker::types::SourceLoc::unknown(),
                },
            )
            .unwrap();
        }
        // Drop the connection with the stream unfinished — a dead client.
    }

    let salvaged = wait_until(
        || {
            let stats = client::stats_tcp(&addr).expect("stats");
            json_field(&stats, "sessions_active") == Some(0)
                && json_field(&stats, "sessions_salvaged") == Some(1)
        },
        Duration::from_secs(5),
    );
    let stats = client::stats_tcp(&addr).expect("stats");
    assert!(salvaged, "session neither salvaged nor reaped: {stats}");
    assert_eq!(json_field(&stats, "events_ingested"), Some(2), "{stats}");
    handle.shutdown();
    join.join().unwrap();
}

/// A session that goes silent is idle-timed-out; the daemon pushes a
/// degraded report before closing, and the registry records a salvage.
#[test]
fn idle_session_receives_degraded_report() {
    let (addr, handle, _, join) = start_server(quick_cfg());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(
        reader.get_mut(),
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts: SessionOpts::default() },
    )
    .unwrap();
    assert!(matches!(reader.next_frame().unwrap(), Some(Frame::Welcome { .. })));
    write_json(
        reader.get_mut(),
        &Frame::Event {
            seq: 0,
            rank: 0,
            kind: mc_checker::types::EventKind::Barrier { comm: CommId::WORLD },
            loc: mc_checker::types::SourceLoc::unknown(),
        },
    )
    .unwrap();
    // ... and then say nothing until the idle timeout fires.
    let report = match reader.next_frame().expect("daemon pushes a report before closing") {
        Some(Frame::Report { json }) => mc_checker::serve::SessionReport::from_json(&json).unwrap(),
        Some(other) => panic!("unexpected frame {other:?}"),
        None => panic!("connection closed without a salvage report"),
    };
    assert_eq!(report.confidence, Confidence::Degraded);
    assert_eq!(report.events_ingested, 1);

    let stats = client::stats_tcp(&addr).expect("stats");
    assert_eq!(json_field(&stats, "sessions_active"), Some(0), "{stats}");
    assert_eq!(json_field(&stats, "sessions_salvaged"), Some(1), "{stats}");
    handle.shutdown();
    join.join().unwrap();
}

/// Bad handshakes get an `Error` frame, not a dropped connection, and are
/// counted as rejections — zero ranks, absurd rank counts, and version
/// mismatches alike.
#[test]
fn bad_hellos_are_answered_with_error_frames() {
    let (addr, handle, _, join) = start_server(quick_cfg());

    let hellos = [
        Frame::Hello { version: PROTOCOL_VERSION, nprocs: 0, opts: SessionOpts::default() },
        Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1 << 20, opts: SessionOpts::default() },
        Frame::Hello { version: PROTOCOL_VERSION + 7, nprocs: 2, opts: SessionOpts::default() },
    ];
    for hello in hellos {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = FrameReader::new(stream);
        write_json(reader.get_mut(), &hello).unwrap();
        match reader.next_frame().unwrap() {
            Some(Frame::Error { message }) => {
                assert!(!message.is_empty(), "refusal must say why");
            }
            other => panic!("expected an Error frame for {hello:?}, got {other:?}"),
        }
    }
    let stats = client::stats_tcp(&addr).expect("stats");
    assert_eq!(json_field(&stats, "hellos_rejected"), Some(3), "{stats}");
    assert_eq!(json_field(&stats, "sessions_active"), Some(0), "{stats}");
    handle.shutdown();
    join.join().unwrap();
}

/// A tiny per-session buffer cap degrades the report instead of letting
/// the daemon buffer without bound.
#[test]
fn hard_buffer_cap_degrades_instead_of_buffering_unboundedly() {
    let cfg = ServeConfig { hard_watermark: 4, ..quick_cfg() };
    let (addr, handle, _, join) = start_server(cfg);

    let trace = trace_of(2, 0xdead, bugs::emulate::buggy);
    let report = client::submit_tcp(&addr, &trace, &SessionOpts::default()).expect("submit");
    assert_eq!(report.confidence, Confidence::Degraded);
    assert!(report.evictions >= 1, "the cap must have forced an eviction");
    assert!(report.peak_buffered <= 4, "peak {} exceeds the cap", report.peak_buffered);
    for f in &report.findings {
        assert_eq!(f.confidence, Confidence::Degraded);
    }
    handle.shutdown();
    join.join().unwrap();
}

/// Serializes tests that install a process-global recorder: the client
/// reads `mcc_obs::global()` when deciding whether to stamp a session
/// with a trace context, so two tests swapping it concurrently would
/// race.
static GLOBAL_OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The cross-process tracing acceptance path, in-process: a client with
/// an enabled recorder stamps its session, and the daemon's
/// `serve.session` span exports `remoteTrace`/`remoteParent` pointing at
/// the client's trace id and `client.submit` span id — exactly what
/// `mcc trace-merge` rewrites into a parent edge.
#[test]
fn trace_context_links_daemon_session_to_client_span() {
    let _serialize = GLOBAL_OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server_obs = RecorderHandle::enabled();
    let cfg = ServeConfig { recorder: server_obs.clone(), ..quick_cfg() };
    let (addr, handle, _, join) = start_server(cfg);

    let client_obs = RecorderHandle::enabled();
    mc_checker::obs::set_global(client_obs.clone());
    let trace = trace_of(2, 0xdead, bugs::pingpong::buggy);
    let report = client::submit_tcp(&addr, &trace, &SessionOpts::default()).expect("submit");
    mc_checker::obs::set_global(RecorderHandle::disabled());
    assert_eq!(report.confidence, Confidence::Complete);

    let trace_id = client_obs.trace_id().expect("the client must have stamped a trace id");
    // Tests that do not swap the recorder still read the global one: a
    // submit of theirs that overlaps this window leaves a
    // `client.submit` span here too. This daemon saw only our session,
    // so its link must name one of them — ours.
    let links: Vec<String> = client_obs
        .spans()
        .into_iter()
        .filter(|s| s.name == "client.submit")
        .map(|s| format!("\"remoteTrace\":{trace_id},\"remoteParent\":{}", s.id))
        .collect();
    assert!(!links.is_empty(), "the client records a client.submit span");

    handle.shutdown();
    join.join().unwrap();

    let daemon_trace = server_obs.to_chrome_trace();
    assert!(
        daemon_trace.contains("\"name\":\"serve.session\""),
        "daemon trace must contain the session span: {daemon_trace}"
    );
    assert!(
        links.iter().any(|link| daemon_trace.contains(link)),
        "daemon trace must carry one of the remote links {links:?}: {daemon_trace}"
    );
}

/// Mixed-version safety, both directions. An opted-out (pre-tracectx)
/// server never announces the capability, so a new client stays silent
/// and the session completes; a client without a recorder (an old
/// build) sends nothing, and the daemon trace carries no remote links.
#[test]
fn tracectx_unaware_peers_round_trip_cleanly() {
    let _serialize = GLOBAL_OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // New client, opted-out server.
    let server_obs = RecorderHandle::enabled();
    let cfg = ServeConfig { no_tracectx: true, recorder: server_obs.clone(), ..quick_cfg() };
    let (addr, handle, _, join) = start_server(cfg);
    mc_checker::obs::set_global(RecorderHandle::enabled());
    let trace = trace_of(2, 0xdead, bugs::pingpong::buggy);
    let report = client::submit_tcp(&addr, &trace, &SessionOpts::default())
        .expect("a tracing client must interoperate with an opted-out server");
    mc_checker::obs::set_global(RecorderHandle::disabled());
    assert_eq!(report.confidence, Confidence::Complete);
    handle.shutdown();
    join.join().unwrap();
    assert!(
        !server_obs.to_chrome_trace().contains("remoteTrace"),
        "an opted-out server must not record remote links"
    );

    // Old client (no recorder installed), new server.
    let server_obs = RecorderHandle::enabled();
    let cfg = ServeConfig { recorder: server_obs.clone(), ..quick_cfg() };
    let (addr, handle, _, join) = start_server(cfg);
    let report = client::submit_tcp(&addr, &trace, &SessionOpts::default())
        .expect("a non-tracing client must interoperate with a tracing server");
    assert_eq!(report.confidence, Confidence::Complete);
    handle.shutdown();
    join.join().unwrap();
    assert!(
        !server_obs.to_chrome_trace().contains("remoteTrace"),
        "a silent client must leave no remote links"
    );
}

/// An opted-out server does not list `tracectx` in its `Welcome` and
/// refuses a `TraceCtx` frame the way a pre-tracectx build refuses any
/// unknown frame: with an `Error`, not a hang or a crash.
#[test]
fn opted_out_server_refuses_tracectx_frames() {
    let cfg = ServeConfig { no_tracectx: true, ..quick_cfg() };
    let (addr, handle, _, join) = start_server(cfg);

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(
        reader.get_mut(),
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 2, opts: SessionOpts::default() },
    )
    .unwrap();
    match reader.next_frame().unwrap() {
        Some(Frame::Welcome { capabilities, .. }) => {
            assert!(
                !capabilities.iter().any(|c| c == "tracectx"),
                "--no-tracectx must drop the capability, got {capabilities:?}"
            );
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    write_json(reader.get_mut(), &Frame::TraceCtx { trace_id: 7, parent_span: 3 }).unwrap();
    match reader.next_frame().unwrap() {
        Some(Frame::Error { message }) => assert!(!message.is_empty()),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    handle.shutdown();
    join.join().unwrap();
}

/// The `HEALTH` verb answers mid-session with a parseable snapshot whose
/// session gauges reflect the live registry.
#[test]
fn health_verb_reports_live_counters() {
    let (addr, handle, _, join) = start_server(quick_cfg());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(
        reader.get_mut(),
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: 1, opts: SessionOpts::default() },
    )
    .unwrap();
    assert!(matches!(reader.next_frame().unwrap(), Some(Frame::Welcome { .. })));
    write_json(reader.get_mut(), &Frame::Health).unwrap();
    let health = match reader.next_frame().unwrap() {
        Some(Frame::HealthReport { json }) => json,
        other => panic!("expected HealthReport, got {other:?}"),
    };
    let doc = serde_json::parse_value_str(&health).expect("health must be valid JSON");
    drop(doc);
    assert_eq!(json_field(&health, "schema_version"), Some(2), "{health}");
    assert!(health.contains("\"pressure\""), "v2 must carry the pressure section: {health}");
    assert!(health.contains("\"admission\""), "v2 must carry the admission section: {health}");
    assert!(
        health.contains("\"level\":\"normal\""),
        "an unconfigured ceiling reads as normal pressure: {health}"
    );
    let active = json_field(&health, "active").expect("active gauge");
    assert_eq!(active, 1, "this session itself must be counted: {health}");

    // The standalone client helper sees the same document shape.
    drop(reader);
    let via_client = client::health_tcp(&addr).expect("health over a dedicated connection");
    assert!(json_field(&via_client, "uptime_ms").is_some(), "{via_client}");
    handle.shutdown();
    join.join().unwrap();
}

/// The client may ask for a lower cap than the server's; the request is
/// honored, and the stats document remains parseable JSON throughout.
/// The other thing a `Hello` can ask for, `threads`, is inert: a v1 peer
/// that still sends one is welcomed and gets the default session's report.
#[test]
fn client_requested_cap_and_stats_json_shape() {
    let (addr, handle, _, join) = start_server(quick_cfg());

    let trace = trace_of(2, 0xdead, bugs::emulate::buggy);
    let opts = SessionOpts { max_buffered: 4, ..SessionOpts::default() };
    let report = client::submit_tcp(&addr, &trace, &opts).expect("submit");
    assert_eq!(report.confidence, Confidence::Degraded);
    assert!(report.peak_buffered <= 4);

    let default = client::submit_tcp(&addr, &trace, &SessionOpts::default()).expect("submit");
    assert!(!default.findings.is_empty());
    let opts = SessionOpts { threads: 8, ..SessionOpts::default() };
    let eight = client::submit_tcp(&addr, &trace, &opts).expect("threads: 8 is welcomed");
    assert_eq!(eight.to_json(), default.to_json(), "`threads` must not change the report");

    let stats = client::stats_tcp(&addr).expect("stats");
    let parsed = serde_json::parse_value_str(&stats).expect("stats must be valid JSON");
    drop(parsed);
    handle.shutdown();
    join.join().unwrap();
}
