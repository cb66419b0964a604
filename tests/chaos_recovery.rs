//! Durability under chaos: a bug case streamed through a fault-injecting
//! TCP proxy at many fault positions must still end with the exact report
//! a batch analysis produces — the durable client resumes through drops,
//! resets, partial writes, delays, and bit flips; the daemon parks and
//! recovers sessions instead of losing them. (One fault per registry
//! case is the `durable` column of `tests/differential.rs`.) A journal
//! damaged at an arbitrary byte must come back through recovery
//! degraded, never as a panic or a silently different report.

mod common;
use common::{chaos_cfg, chaos_policy, run_through_fault, scratch, start_server, wait_until};
use common::{wire_len, write_json};

use mc_checker::apps::bugs::{self, trace_of, trace_under_faults};
use mc_checker::apps::{cases, Case, Source};
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::Confidence;
use mc_checker::prelude::*;
use mc_checker::serve::journal::{read_journal, FsyncPolicy, Journal, JournalRecord};
use mc_checker::serve::proto::{Frame, FrameReader, ProtoError, SessionOpts};
use mc_checker::serve::CodecKind;
use mc_checker::serve::{client, FaultKind, FaultSchedule, ServeConfig, Server};
use mc_checker::types::Rank;
use proptest::prelude::*;
use std::fs;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Deep sweep: one bug case, every fault kind, 16 seeds each — the
/// fault lands at 16 different stream positions per kind.
#[test]
fn sixteen_seeds_per_fault_on_one_archetype() {
    let trace = trace_of(4, 0xdead, bugs::mpi3_queue::buggy);
    let max_pos = wire_len(&trace);
    for kind in FaultKind::ALL {
        for seed in 0..16u64 {
            let schedule = FaultSchedule::from_seed(seed, kind, max_pos);
            run_through_fault("mpi3_queue", &trace, schedule, seed);
        }
    }
}

/// Sending the whole stream twice (duplicate seqs 0..n) is idempotent:
/// the daemon skips the duplicates and the report matches batch exactly.
#[test]
fn duplicate_resend_is_idempotent() {
    let trace = trace_of(4, 0xdead, bugs::emulate::buggy);
    let batch = AnalysisSession::new().run(&trace).diagnostics;
    let (addr, handle, _, join) = start_server(chaos_cfg());

    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut reader = FrameReader::new(stream);
    let opts = SessionOpts { durable: true, ..SessionOpts::default() };
    write_json(
        reader.get_mut(),
        &Frame::Hello { version: mc_checker::serve::PROTOCOL_VERSION, nprocs: 4, opts },
    )
    .unwrap();
    assert!(matches!(read_progress(&mut reader), Some(Frame::Welcome { .. })));

    let encoded = client::encode_stream(&client::flatten_events(&trace), 0, CodecKind::Json, 1);
    for round in 0..2 {
        for bytes in &encoded {
            use std::io::Write;
            reader.get_mut().write_all(bytes).unwrap();
        }
        let _ = round;
        drain_acks(&mut reader);
    }
    write_json(reader.get_mut(), &Frame::Finish).unwrap();

    let report = loop {
        match read_progress(&mut reader) {
            Some(Frame::Report { json }) => {
                break mc_checker::serve::SessionReport::from_json(&json).unwrap()
            }
            Some(Frame::Ack { .. }) => {}
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon closed before the report"),
        }
    };
    assert_eq!(report.events_ingested, trace.total_events() as u64, "duplicates must be skipped");
    assert_eq!(report.confidence, Confidence::Complete);
    assert_eq!(report.findings, batch);
    handle.shutdown();
    join.join().unwrap();
}

/// Reads the next frame, waiting through idle timeouts (bounded).
fn read_progress<R: std::io::Read>(reader: &mut FrameReader<R>) -> Option<Frame> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match reader.next_frame() {
            Ok(f) => return f,
            Err(ProtoError::Idle) => {
                assert!(Instant::now() < deadline, "no frame within 10s");
            }
            Err(e) => panic!("protocol error: {e}"),
        }
    }
}

/// Discards buffered `Ack`s until the socket goes idle.
fn drain_acks<R: std::io::Read>(reader: &mut FrameReader<R>) {
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Ack { .. })) => {}
            Ok(Some(other)) => panic!("unexpected frame while draining acks: {other:?}"),
            Ok(None) => return,
            Err(ProtoError::Idle) => return,
            Err(e) => panic!("protocol error: {e}"),
        }
    }
}

/// The crash story end to end, in process: a durable session streams
/// half its events against daemon A (journaling with fsync=always), the
/// connection dies, daemon A shuts down entirely; daemon B recovers the
/// session from the journal directory, the client resumes by sequence
/// number, and the final report is byte-identical to batch.
#[test]
fn daemon_restart_recovers_journal_and_report_matches_batch() {
    let trace = trace_of(4, 0xdead, bugs::mpi3_queue::buggy);
    let batch = AnalysisSession::new().run(&trace).diagnostics;
    let dir = scratch("chaos-restart");
    let cfg = |recover| ServeConfig {
        journal_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        recover,
        ..chaos_cfg()
    };

    // --- Daemon A: stream the first half, then vanish. ---
    let server_a = Server::bind("127.0.0.1:0", cfg(false)).unwrap();
    let addr_a = server_a.local_addr().to_string();
    let registry_a = server_a.registry();
    let handle_a = server_a.handle();
    let join_a = thread::spawn(move || server_a.run().expect("serve loop A"));

    let encoded = client::encode_stream(&client::flatten_events(&trace), 0, CodecKind::Json, 1);
    let half = encoded.len() / 2;
    let session_id;
    {
        let stream = TcpStream::connect(&addr_a).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut reader = FrameReader::new(stream);
        let opts = SessionOpts { durable: true, ..SessionOpts::default() };
        write_json(
            reader.get_mut(),
            &Frame::Hello { version: mc_checker::serve::PROTOCOL_VERSION, nprocs: 4, opts },
        )
        .unwrap();
        session_id = match read_progress(&mut reader) {
            Some(Frame::Welcome { session, .. }) => session,
            other => panic!("expected Welcome, got {other:?}"),
        };
        use std::io::Write;
        for bytes in &encoded[..half] {
            reader.get_mut().write_all(bytes).unwrap();
        }
        reader.get_mut().flush().unwrap();
        // Wait for an ack so the daemon has provably ingested (and, at
        // fsync=always, journaled) a prefix.
        let acked = match read_progress(&mut reader) {
            Some(Frame::Ack { through }) => through,
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon closed mid-stream"),
        };
        assert!(acked > 0, "daemon must have acked a prefix");
        // Drop the connection abruptly, mid-session.
    }

    // The dead connection parks the durable session...
    let parked = wait_until(|| registry_a.parked_count() == 1, Duration::from_secs(5));
    assert!(parked, "durable session must park on disconnect");
    // ...and then the whole daemon dies.
    handle_a.shutdown();
    join_a.join().unwrap();

    // --- Daemon B: recover from the journal, serve the resume. ---
    let server_b = Server::bind("127.0.0.1:0", cfg(true)).unwrap();
    let addr_b = server_b.local_addr().to_string();
    let registry_b = server_b.registry();
    assert_eq!(registry_b.parked_count(), 1, "recovery must re-park the journaled session");
    let handle_b = server_b.handle();
    let join_b = thread::spawn(move || server_b.run().expect("serve loop B"));

    let stream = TcpStream::connect(&addr_b).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(reader.get_mut(), &Frame::Resume { session: session_id, from_seq: 0 }).unwrap();
    assert!(matches!(read_progress(&mut reader), Some(Frame::Welcome { .. })));
    let through = match read_progress(&mut reader) {
        Some(Frame::Ack { through }) => through,
        other => panic!("expected resume Ack, got {other:?}"),
    };
    assert!(through > 0, "recovered session must remember its progress");
    assert!(through <= half as u64);
    {
        use std::io::Write;
        for bytes in &encoded[through as usize..] {
            reader.get_mut().write_all(bytes).unwrap();
        }
        reader.get_mut().flush().unwrap();
    }
    drain_acks(&mut reader);
    write_json(reader.get_mut(), &Frame::Finish).unwrap();
    let report = loop {
        match read_progress(&mut reader) {
            Some(Frame::Report { json }) => {
                break mc_checker::serve::SessionReport::from_json(&json).unwrap()
            }
            Some(Frame::Ack { .. }) => {}
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon B closed before the report"),
        }
    };

    assert_eq!(report.confidence, Confidence::Complete);
    assert_eq!(report.events_ingested, trace.total_events() as u64);
    assert_eq!(report.findings, batch, "recovered report diverges from batch");
    let a = serde_json::to_string(&report.findings).unwrap();
    let b = serde_json::to_string(&batch).unwrap();
    assert_eq!(a, b, "recovered report not byte-identical to batch");

    // The delivered session's journal is retired from disk.
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("session-"))
        .collect();
    assert!(leftovers.is_empty(), "journal must be retired after delivery: {leftovers:?}");

    handle_b.shutdown();
    join_b.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Journals `trace` in stream order the way daemons before the unified
/// ingest path did — one `JournalRecord::Event` per event — so recovery
/// stays pinned on the journals already on disk. Returns the event count.
fn journal_per_event(j: &mut Journal, trace: &Trace) -> usize {
    for (seq, (rank, kind, loc)) in trace.stream_order().enumerate() {
        j.append(&JournalRecord::Event { seq: seq as u64, rank: rank.0, kind, loc }).unwrap();
    }
    trace.total_events()
}

/// A session whose journal finished before the crash is recovered as a
/// retired report: a resume gets the full report without resending.
#[test]
fn finished_journal_recovers_to_a_retired_report() {
    let trace = trace_of(2, 0xdead, bugs::pingpong::buggy);
    let batch = AnalysisSession::new().run(&trace).diagnostics;
    let dir = scratch("chaos-retired");

    // Write a complete journal by hand — Open, every event, Finish.
    let opts = SessionOpts { durable: true, ..SessionOpts::default() };
    let mut j = Journal::create(&dir, 7, 2, &opts, 0, FsyncPolicy::Never).unwrap();
    journal_per_event(&mut j, &trace);
    j.append_finish().unwrap();
    drop(j);

    let cfg = ServeConfig { journal_dir: Some(dir.clone()), recover: true, ..chaos_cfg() };
    let (addr, handle, _, join) = start_server(cfg);
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(reader.get_mut(), &Frame::Resume { session: 7, from_seq: 0 }).unwrap();
    assert!(matches!(read_progress(&mut reader), Some(Frame::Welcome { .. })));
    let report = loop {
        match read_progress(&mut reader) {
            Some(Frame::Report { json }) => {
                break mc_checker::serve::SessionReport::from_json(&json).unwrap()
            }
            Some(Frame::Ack { .. }) => {}
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon closed before the report"),
        }
    };
    assert_eq!(report.confidence, Confidence::Complete);
    assert_eq!(report.findings, batch, "recovered finished session diverges from batch");

    handle.shutdown();
    join.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Resuming a session nobody knows draws `Gone`, and the durable client
/// is expected to fall back to a fresh submission (which the retry loop
/// does; here we check the frame itself).
#[test]
fn resume_of_unknown_session_draws_gone() {
    let (addr, handle, _, join) = start_server(chaos_cfg());
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(reader.get_mut(), &Frame::Resume { session: 999, from_seq: 0 }).unwrap();
    assert!(matches!(read_progress(&mut reader), Some(Frame::Gone { session: 999 })));
    handle.shutdown();
    join.join().unwrap();
}

/// Writes an UNFINISHED journal of the adlb bug (the crash-recovery
/// workhorse case) and returns its path plus the events written.
fn written_journal(tag: &str) -> (PathBuf, PathBuf, usize) {
    let dir = scratch(&format!("chaos-{tag}"));
    let trace = trace_of(2, 5, bugs::adlb::buggy);
    let opts = SessionOpts { durable: true, ..SessionOpts::default() };
    let mut j = Journal::create(&dir, 3, 2, &opts, 0, FsyncPolicy::Never).unwrap();
    let events = journal_per_event(&mut j, &trace);
    let path = j.path().to_path_buf();
    drop(j);
    (dir, path, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite (d): truncate the session journal at ANY byte; the
    /// tolerant reader must return a clean prefix — no panic, dense
    /// seqs from 0 — and replaying it through the streaming checker in
    /// degraded mode must not panic either.
    #[test]
    fn journal_truncated_anywhere_recovers_a_prefix(cut in 0usize..4000) {
        let (dir, path, written) = written_journal("prop-cut");
        let data = fs::read(&path).unwrap();
        let cut = cut.min(data.len());
        fs::write(&path, &data[..cut]).unwrap();

        let rs = read_journal(&path).expect("tolerant read of a truncated journal");
        prop_assert!(rs.events.len() <= written);
        prop_assert!(!rs.finished, "an unfinished journal cannot read as finished");
        for (i, (seq, ..)) in rs.events.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64, "recovered seqs must be dense from 0");
        }

        let mut checker = StreamingChecker::new(rs.nprocs as usize).expect("rebuild checker");
        checker
            .replay(rs.events.into_iter().map(|(_, r, k, l)| (Rank(r), k, l)))
            .expect("replay never fails on a clean prefix");
        let _findings = checker.finish_degraded(); // must not panic
        fs::remove_dir_all(&dir).ok();
    }

    /// Satellite (d): flip ANY bit of the journal; recovery must come
    /// back Salvaged/Degraded or as a clean shorter prefix — never a
    /// panic, and never events past the corruption.
    #[test]
    fn journal_bit_flip_never_panics_recovery(pos in 0usize..4000, bit in 0u8..8) {
        let (dir, path, written) = written_journal("prop-flip");
        let mut data = fs::read(&path).unwrap();
        let pos = pos % data.len();
        data[pos] ^= 1 << bit;
        fs::write(&path, &data).unwrap();

        // The reader either stops at the corrupt record (clean prefix)
        // or rejects the file; both are fine, a panic is not.
        if let Ok(rs) = read_journal(&path) {
            prop_assert!(rs.events.len() <= written);
            for (i, (seq, ..)) in rs.events.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64, "recovered seqs must be dense from 0");
            }
            let mut checker = StreamingChecker::new(rs.nprocs.max(1) as usize).expect("rebuild checker");
            checker
                .replay(rs.events.into_iter().map(|(_, r, k, l)| (Rank(r), k, l)))
                .expect("replay never fails on a clean prefix");
            let _ = checker.finish_degraded();
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// Recovery over a directory holding a damaged journal must not panic
/// the daemon at startup — the damaged session parks with whatever clean
/// prefix survived, or is skipped entirely.
#[test]
fn recover_over_damaged_directory_never_panics() {
    let (dir, path, _written) = written_journal("damaged-dir");
    let mut data = fs::read(&path).unwrap();
    let mid = data.len() / 2;
    data.truncate(mid.max(1));
    data[mid / 2] ^= 0x40;
    fs::write(&path, &data).unwrap();

    let cfg = ServeConfig { journal_dir: Some(dir.clone()), recover: true, ..chaos_cfg() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("recovery must tolerate damage");
    let registry: Arc<_> = server.registry();
    assert!(registry.parked_count() <= 1);
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// The failure-aware pipeline through the crash story: a *rank-failure*
/// session (each recovery-gallery workload in turn) streams durably,
/// daemon A dies mid-session, daemon B recovers the journal and serves
/// the resume. The recovered report must carry `recovered` confidence
/// and be byte-identical to an uninterrupted daemon run and to batch.
#[test]
fn daemon_restart_preserves_a_rank_failure_report() {
    cases()
        .iter()
        .filter(|c| matches!(c.source, Source::Recovery(_)))
        .for_each(restart_mid_recovery);
}

fn restart_mid_recovery(case: &Case) {
    let faults = case.faults.expect("a recovery workload ships its failure");
    let (trace, error) = trace_under_faults(case.procs, 11, faults(), case.buggy);
    assert!(error.is_none(), "{}: survivable failure is not an error", case.name);
    let batch = AnalysisSession::new().run(&trace);
    assert_eq!(batch.confidence, Confidence::Recovered, "{}", case.name);

    // Uninterrupted daemon run, for the byte-identity baseline.
    let (addr0, handle0, _, join0) = start_server(chaos_cfg());
    let (uninterrupted, _stats) = client::submit_durable_tcp(
        &addr0,
        &trace,
        &SessionOpts { durable: true, ..SessionOpts::default() },
        &chaos_policy(0),
    )
    .expect("uninterrupted submit");
    handle0.shutdown();
    join0.join().unwrap();
    assert_eq!(uninterrupted.confidence, Confidence::Recovered, "session verdict is recovered");
    assert_eq!(uninterrupted.findings, batch.diagnostics);

    let dir = scratch(&format!("chaos-rankfail-restart-{}", case.name));
    // The gallery trace is small; ack every other event so a provably
    // journaled prefix exists before the daemon dies.
    let cfg = |recover| ServeConfig {
        journal_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        recover,
        ack_interval: 2,
        ..chaos_cfg()
    };

    // --- Daemon A: stream the first half, then vanish mid-recovery. ---
    let server_a = Server::bind("127.0.0.1:0", cfg(false)).unwrap();
    let addr_a = server_a.local_addr().to_string();
    let registry_a = server_a.registry();
    let handle_a = server_a.handle();
    let join_a = thread::spawn(move || server_a.run().expect("serve loop A"));

    let encoded = client::encode_stream(&client::flatten_events(&trace), 0, CodecKind::Json, 1);
    let half = encoded.len() / 2;
    let session_id;
    {
        let stream = TcpStream::connect(&addr_a).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut reader = FrameReader::new(stream);
        let opts = SessionOpts { durable: true, ..SessionOpts::default() };
        write_json(
            reader.get_mut(),
            &Frame::Hello {
                version: mc_checker::serve::PROTOCOL_VERSION,
                nprocs: case.procs,
                opts,
            },
        )
        .unwrap();
        session_id = match read_progress(&mut reader) {
            Some(Frame::Welcome { session, .. }) => session,
            other => panic!("expected Welcome, got {other:?}"),
        };
        use std::io::Write;
        for bytes in &encoded[..half] {
            reader.get_mut().write_all(bytes).unwrap();
        }
        reader.get_mut().flush().unwrap();
        let acked = match read_progress(&mut reader) {
            Some(Frame::Ack { through }) => through,
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon closed mid-stream"),
        };
        assert!(acked > 0, "daemon must have acked a prefix");
    }
    assert!(
        wait_until(|| registry_a.parked_count() == 1, Duration::from_secs(5)),
        "durable session must park on disconnect"
    );
    handle_a.shutdown();
    join_a.join().unwrap();

    // --- Daemon B: recover, resume, finish. ---
    let server_b = Server::bind("127.0.0.1:0", cfg(true)).unwrap();
    let addr_b = server_b.local_addr().to_string();
    assert_eq!(server_b.registry().parked_count(), 1);
    let handle_b = server_b.handle();
    let join_b = thread::spawn(move || server_b.run().expect("serve loop B"));

    let stream = TcpStream::connect(&addr_b).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut reader = FrameReader::new(stream);
    write_json(reader.get_mut(), &Frame::Resume { session: session_id, from_seq: 0 }).unwrap();
    assert!(matches!(read_progress(&mut reader), Some(Frame::Welcome { .. })));
    let through = match read_progress(&mut reader) {
        Some(Frame::Ack { through }) => through,
        other => panic!("expected resume Ack, got {other:?}"),
    };
    {
        use std::io::Write;
        for bytes in &encoded[through as usize..] {
            reader.get_mut().write_all(bytes).unwrap();
        }
        reader.get_mut().flush().unwrap();
    }
    drain_acks(&mut reader);
    write_json(reader.get_mut(), &Frame::Finish).unwrap();
    let report = loop {
        match read_progress(&mut reader) {
            Some(Frame::Report { json }) => {
                break mc_checker::serve::SessionReport::from_json(&json).unwrap()
            }
            Some(Frame::Ack { .. }) => {}
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("daemon B closed before the report"),
        }
    };

    assert_eq!(report.confidence, Confidence::Recovered, "recovered session verdict");
    assert_eq!(report.events_ingested, trace.total_events() as u64);
    assert_eq!(
        report.to_json(),
        uninterrupted.to_json(),
        "{}: rank-failure report must be byte-identical across the daemon restart",
        case.name
    );
    let a = serde_json::to_string(&report.findings).unwrap();
    let b = serde_json::to_string(&batch.diagnostics).unwrap();
    assert_eq!(a, b, "{}: recovered report not byte-identical to batch", case.name);

    handle_b.shutdown();
    join_b.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}
