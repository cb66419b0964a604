//! Every trace is hostile input. A trace is the checker's only input, and
//! `mcc serve` takes traces from any peer, so no edit of a trace may
//! panic the checker or take the daemon down: each path ends in a report
//! or a typed [`TraceError`].
//!
//! Two halves. The named rows are one-field edits of registry traces
//! that once panicked, aborted on a 64 GB allocation, or wrapped an
//! address silently; each must be a `TraceError` naming rank, event and
//! value in strict batch and streaming, a Degraded report in tolerant
//! mode, and a typed `Error` frame from the daemon. The mutator then
//! applies seeded, structure-aware edits — handle ids, ranks, counts,
//! addresses and displacements next to `u64::MAX`, dropped and
//! duplicated events, the rank count — to registry traces, and runs every
//! mutant through strict batch, the tolerant repair and the streaming
//! checker, and a fixed sample through one in-process daemon.

mod common;

use common::start_server;
use mc_checker::apps::{bugs, case, cases};
use mc_checker::core::preprocess::TraceError;
use mc_checker::core::streaming::{StreamError, StreamingChecker};
use mc_checker::core::{AnalysisSession, CheckReport, Confidence, DegradedInfo};
use mc_checker::serve::client::{self, ClientError};
use mc_checker::serve::proto::SessionOpts;
use mc_checker::serve::ServeConfig;
use mc_checker::types::{
    CommId, DatatypeId, Event, EventKind, GroupId, LocId, Rank, SourceLoc, Tag, Trace, WinId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Mutants per run, and how many of them also go through the daemon.
const MUTANTS: usize = 2_000;
const DAEMON_SAMPLE: usize = 24;

/// The buggy body of a registry case, traced (under its fault plan, if
/// it has one).
fn registry_trace(name: &str) -> Trace {
    let case = case(name).expect("a registry case");
    match case.faults {
        None => bugs::trace_of(case.procs.min(4), 0xdead, case.buggy),
        Some(plan) => bugs::trace_under_faults(case.procs, 0xdead, plan(), case.buggy).0,
    }
}

/// The first event of rank 0 that `pick` selects, for editing.
fn first(t: &mut Trace, pick: impl Fn(&EventKind) -> bool) -> &mut EventKind {
    let event = t.procs[0].events.iter_mut().find(|e| pick(&e.kind)).expect("event to edit");
    &mut event.kind
}

fn put_op(t: &mut Trace) -> &mut mc_checker::types::RmaOp {
    let EventKind::Rma(op) = first(t, |k| matches!(k, EventKind::Rma(_))) else { unreachable!() };
    op
}

/// The one-field edits that once panicked, aborted or wrapped, plus a
/// failure trace missing a `WinCreate`: `(name, trace, what the strict
/// error must say)`.
fn rows() -> Vec<(&'static str, Trace, &'static str)> {
    let base = registry_trace("ping-pong");
    let edit = |f: &dyn Fn(&mut Trace)| {
        let mut t = base.clone();
        f(&mut t);
        t
    };
    let mut cross = Trace::new(2);
    for (me, peer) in [(0, 1), (1, 0)] {
        let events = &mut cross.procs[me].events;
        let (comm, tag) = (CommId::WORLD, Tag(0));
        events
            .push(Event::new(EventKind::Recv { comm, from: Rank(peer), tag, bytes: 4 }, LocId(0)));
        events.push(Event::new(EventKind::Send { comm, to: Rank(peer), tag, bytes: 4 }, LocId(0)));
        cross.procs[me].locs.push(SourceLoc::new("cross.c", 1, "main"));
    }
    let mut recovery = registry_trace("pingpong-reexpose");
    let create =
        recovery.procs[0].events.iter().position(|e| matches!(e.kind, EventKind::WinCreate { .. }));
    recovery.procs[0].events.remove(create.expect("rank 0 creates a window"));
    vec![
        ("put target 1 -> 9", edit(&|t| put_op(t).target = Rank(9)), "target P9 out of range"),
        (
            "put target_dtype 1 -> 777",
            edit(&|t| put_op(t).target_dtype = DatatypeId(777)),
            "unknown dtype777",
        ),
        ("put win 0 -> 5", edit(&|t| put_op(t).win = WinId(5)), "on incomplete win5"),
        (
            "put target_count 8 -> 4e9",
            edit(&|t| put_op(t).target_count = 4_000_000_000),
            "4000000000 element(s) at displacement 0 runs past",
        ),
        ("nprocs 2 -> 1", edit(&|t| t.procs.truncate(1)), "target P1 out of range"),
        (
            "store addr near u64::MAX",
            edit(&|t| {
                *first(t, |k| matches!(k, EventKind::Store { .. })) =
                    EventKind::Store { addr: u64::MAX - 1, len: 4 };
            }),
            "at 0xfffffffffffffffe wraps the address space",
        ),
        (
            "put target_disp near u64::MAX",
            edit(&|t| put_op(t).target_disp = u64::MAX - 5),
            "displacement 18446744073709551610 runs past",
        ),
        ("recv/send cross", cross, "closes a happens-before cycle"),
        ("reexpose without rank 0's WinCreate", recovery, "on incomplete win0"),
    ]
}

/// Strict batch, the tolerant repair and the streaming checker, none of
/// which may panic. Returns the three results.
fn every_path(
    t: &Trace,
) -> (Result<CheckReport, TraceError>, Result<(), StreamError>, (CheckReport, DegradedInfo)) {
    let session = AnalysisSession::new();
    let strict = no_panic("strict batch", t, || session.try_run(t));
    let repaired = no_panic("repair", t, || session.run_with_repair(t));
    let streamed = no_panic("streaming", t, || StreamingChecker::run_over(t).map(drop));
    (strict, streamed, repaired)
}

fn no_panic<T>(path: &str, t: &Trace, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{path} panicked on {t:?}"))
}

#[test]
fn hostile_table_rows_get_typed_errors_on_every_path() {
    let rows = rows();
    let (addr, handle, _registry, join) = start_server(ServeConfig::default());
    for (name, trace, says) in &rows {
        let (strict, streamed, repaired) = every_path(trace);
        let e = strict.expect_err(name);
        assert!(e.to_string().contains(says), "{name}: {e}");
        match streamed {
            Err(StreamError::Trace(s)) => assert_eq!((s.rank, s.idx), (e.rank, e.idx), "{name}"),
            other => panic!("{name}: streaming gave {other:?}"),
        }
        assert_eq!(repaired.0.confidence, Confidence::Degraded, "{name}");
        match client::submit_tcp(&addr, trace, &SessionOpts::default()) {
            Err(ClientError::Rejected(m)) => assert!(m.contains(says), "{name}: {m}"),
            other => panic!("{name}: daemon gave {other:?}"),
        }
    }
    // A durable session cannot resume past an invalid region: it ends
    // with an error, never with a report that silently lacks the region.
    let policy = client::RetryPolicy {
        retries: 2,
        base_backoff: Duration::from_millis(5),
        ..client::RetryPolicy::default()
    };
    let durable = SessionOpts { durable: true, ..SessionOpts::default() };
    let refused = client::submit_durable_tcp(&addr, &rows[0].1, &durable, &policy);
    match refused {
        Err(ClientError::Rejected(m)) => assert!(m.contains(rows[0].2), "{m}"),
        other => panic!("durable submit gave {other:?}"),
    }
    daemon_still_serves(&addr);
    handle.shutdown();
    join.join().unwrap();
}

/// Two ranks that each receive from the other before sending, once per
/// tag: `pairs` independent happens-before cycles and no global sync.
fn crossed_pairs(pairs: u32) -> Trace {
    let mut t = Trace::new(2);
    for (me, peer) in [(0, 1), (1, 0)] {
        let (comm, events) = (CommId::WORLD, &mut t.procs[me].events);
        for tag in (0..pairs).map(Tag) {
            let recv = EventKind::Recv { comm, from: Rank(peer), tag, bytes: 4 };
            events.push(Event::new(recv, LocId(0)));
            events.push(Event::new(
                EventKind::Send { comm, to: Rank(peer), tag, bytes: 4 },
                LocId(0),
            ));
        }
        t.procs[me].locs.push(SourceLoc::new("cross.c", 1, "main"));
    }
    t
}

#[test]
fn a_thousand_cycles_cost_one_extra_repair_round() {
    // The repair breaks every cycle of a round at once; one round per
    // cycle would rebuild the pipeline a thousand times.
    let trace = crossed_pairs(1_000);
    let started = Instant::now();
    let (report, info) = AnalysisSession::new().run_with_repair(&trace);
    let took = started.elapsed();
    assert_eq!(info.dropped.len(), 1_000, "{}", info.summary());
    assert_eq!(report.confidence, Confidence::Degraded);
    assert!(took < Duration::from_secs(3), "repair took {took:?}");

    // Through a daemon whose watermark the trace crosses eight times
    // with no flushable region: every eviction repairs what it holds.
    let cfg = ServeConfig { hard_watermark: 500, ..ServeConfig::default() };
    let (addr, handle, _registry, join) = start_server(cfg);
    let started = Instant::now();
    match client::submit_tcp(&addr, &trace, &SessionOpts::default()) {
        Ok(r) => assert!(r.evictions > 0 && r.confidence == Confidence::Degraded, "{r:?}"),
        Err(ClientError::Rejected(m)) => assert!(m.contains("happens-before cycle"), "{m}"),
        Err(e) => panic!("daemon session failed untyped: {e}"),
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "the session took {took:?}");
    daemon_still_serves(&addr);
    handle.shutdown();
    join.join().unwrap();
}

/// The daemon answers `HEALTH` and completes a well-formed session with
/// the batch findings.
fn daemon_still_serves(addr: &str) {
    assert!(client::health_tcp(addr).expect("HEALTH").contains("sessions"));
    let good = registry_trace("ping-pong");
    let report = client::submit_tcp(addr, &good, &SessionOpts::default()).expect("a clean session");
    let batch = AnalysisSession::new().run(&good);
    assert_eq!(
        serde_json::to_string(&report.findings).unwrap(),
        serde_json::to_string(&batch.diagnostics).unwrap()
    );
}

/// A value next to an edge: small, or within a few of the type's maximum.
fn edge_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(0..64),
        1 => u64::MAX - rng.gen_range(0..8),
        _ => rng.gen_range(0..u64::MAX),
    }
}

fn edge_u32(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(0..16),
        1 => u32::MAX - rng.gen_range(0..8),
        _ => rng.gen_range(0..u32::MAX),
    }
}

/// Overwrites one handle, rank, count, address or displacement of `kind`.
fn mutate_field(kind: &mut EventKind, nprocs: usize, rng: &mut StdRng) {
    let rank = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => Rank(rng.gen_range(0..nprocs as u32 + 2)),
        1 => Rank(u32::MAX),
        _ => Rank(rng.gen_range(0..u32::MAX)),
    };
    let handle = |rng: &mut StdRng| if rng.gen_bool(0.8) { rng.gen_range(0..20) } else { u32::MAX };
    let pick = rng.gen_range(0..8usize);
    match kind {
        EventKind::Rma(op) | EventKind::RmaReq { op, .. } => match pick {
            0 => op.win = WinId(handle(rng)),
            1 => op.target = rank(rng),
            2 => op.origin_addr = edge_u64(rng),
            3 => op.origin_count = edge_u32(rng),
            4 => op.origin_dtype = DatatypeId(handle(rng)),
            5 => op.target_disp = edge_u64(rng),
            6 => op.target_count = edge_u32(rng),
            _ => op.target_dtype = DatatypeId(handle(rng)),
        },
        EventKind::RmaAtomic(op) => match pick {
            0 => op.win = WinId(handle(rng)),
            1 => op.target = rank(rng),
            2 => op.origin_addr = edge_u64(rng),
            3 => op.result_addr = edge_u64(rng),
            4 => op.count = edge_u32(rng),
            5 => op.dtype = DatatypeId(handle(rng)),
            _ => op.target_disp = edge_u64(rng),
        },
        EventKind::WinCreate { win, base, len, comm } => match pick % 4 {
            0 => *win = WinId(handle(rng)),
            1 => *base = edge_u64(rng),
            2 => *len = edge_u64(rng),
            _ => *comm = CommId(handle(rng)),
        },
        EventKind::Lock { win, target, .. }
        | EventKind::Unlock { win, target }
        | EventKind::Flush { win, target } => match pick % 2 {
            0 => *win = WinId(handle(rng)),
            _ => *target = rank(rng),
        },
        EventKind::Fence { win }
        | EventKind::WinFree { win }
        | EventKind::LockAll { win }
        | EventKind::UnlockAll { win }
        | EventKind::FlushAll { win }
        | EventKind::Complete { win }
        | EventKind::WaitWin { win } => *win = WinId(handle(rng)),
        EventKind::Post { win, group } | EventKind::Start { win, group } => match pick % 2 {
            0 => *win = WinId(handle(rng)),
            _ => *group = GroupId(handle(rng)),
        },
        EventKind::Send { comm, to: peer, .. }
        | EventKind::Isend { comm, to: peer, .. }
        | EventKind::Recv { comm, from: peer, .. }
        | EventKind::Irecv { comm, from: peer, .. }
        | EventKind::Bcast { comm, root: peer, .. }
        | EventKind::Reduce { comm, root: peer, .. } => match pick % 2 {
            0 => *comm = CommId(handle(rng)),
            _ => *peer = rank(rng),
        },
        EventKind::Barrier { comm } | EventKind::Allreduce { comm, .. } => {
            *comm = CommId(handle(rng))
        }
        EventKind::TypeContiguous { count, elem, .. } => match pick % 2 {
            0 => *count = edge_u32(rng),
            _ => *elem = DatatypeId(handle(rng)),
        },
        EventKind::TypeVector { count, blocklen, stride, elem, .. } => match pick % 4 {
            0 => *count = edge_u32(rng),
            1 => *blocklen = edge_u32(rng),
            2 => *stride = edge_u32(rng),
            _ => *elem = DatatypeId(handle(rng)),
        },
        EventKind::GroupIncl { old, ranks, .. } => match (pick % 2, ranks.first_mut()) {
            (0, Some(r)) => *r = edge_u32(rng),
            _ => *old = GroupId(handle(rng)),
        },
        EventKind::Load { addr, len } | EventKind::Store { addr, len } => match pick % 2 {
            0 => *addr = edge_u64(rng),
            _ => *len = edge_u64(rng),
        },
        EventKind::RankFailed { failed, .. } => *failed = rank(rng),
        _ => {}
    }
}

/// One seeded mutant of `base`: one to three edits.
fn mutant(base: &Trace, rng: &mut StdRng) -> Trace {
    let mut t = base.clone();
    for _ in 0..rng.gen_range(1..4) {
        let r = rng.gen_range(0..t.nprocs());
        let len = t.procs[r].events.len();
        match rng.gen_range(0..10) {
            // The rank count: a rank's log lost, or an empty one added.
            0 if t.nprocs() > 1 => {
                t.procs.pop();
            }
            0 => t.procs.push(Trace::new(1).procs.remove(0)),
            1 if len > 0 => {
                t.procs[r].events.remove(rng.gen_range(0..len));
            }
            2 if len > 0 => {
                let at = rng.gen_range(0..len);
                let dup = t.procs[r].events[at].clone();
                t.procs[r].events.insert(at, dup);
            }
            _ if len > 0 => {
                let n = t.nprocs();
                let at = rng.gen_range(0..len);
                mutate_field(&mut t.procs[r].events[at].kind, n, rng);
            }
            _ => {}
        }
    }
    t
}

#[test]
fn seeded_mutants_never_panic_and_never_wedge_the_daemon() {
    // Traces of at most 100 events keep the campaign inside the tier-1
    // time budget; the two larger rows (BT-broadcast, jacobi) are the
    // differential matrix's.
    let bases: Vec<Trace> = cases()
        .iter()
        .filter(|c| !matches!(c.name, "bt-broadcast" | "jacobi"))
        .map(|c| registry_trace(c.name))
        .collect();
    assert!(bases.iter().all(|t| t.total_events() <= 100));
    let mut rng = StdRng::seed_from_u64(0x005e_ed18);
    let mutants: Vec<Trace> =
        (0..MUTANTS).map(|i| mutant(&bases[i % bases.len()], &mut rng)).collect();
    // Checked on two threads; each mutant is checked on its own.
    let refused: usize = std::thread::scope(|s| {
        let halves = mutants.chunks(MUTANTS / 2).map(|half| s.spawn(|| check_mutants(half)));
        halves.collect::<Vec<_>>().into_iter().map(|h| h.join().unwrap()).sum()
    });
    // Seeded edits break most traces, but not all of them.
    assert!(refused > MUTANTS / 4 && refused < MUTANTS, "{refused} of {MUTANTS} refused");

    let (addr, handle, _registry, join) = start_server(ServeConfig::default());
    for t in mutants.iter().step_by(MUTANTS / DAEMON_SAMPLE) {
        match client::submit_tcp(&addr, t, &SessionOpts::default()) {
            Ok(_) | Err(ClientError::Rejected(_)) => {}
            Err(e) => panic!("daemon session failed untyped: {e}"),
        }
    }
    daemon_still_serves(&addr);
    handle.shutdown();
    join.join().unwrap();
}

/// Runs mutants through every path; returns how many strict batch refused.
fn check_mutants(mutants: &[Trace]) -> usize {
    let mut refused = 0;
    for t in mutants {
        let (strict, _, (repaired, info)) = every_path(t);
        if let Err(e) = &strict {
            refused += 1;
            // One resolver: the event strict mode stops at is one the
            // repair drops.
            if e.cycle.is_empty() && !t.procs.iter().any(|p| p.events.iter().any(is_marker)) {
                assert!(info.dropped.contains(e), "{e} not in {info}");
                assert_eq!(repaired.confidence, Confidence::Degraded, "{e}");
            }
        }
    }
    refused
}

fn is_marker(e: &Event) -> bool {
    matches!(e.kind, EventKind::RankFailed { .. })
}
