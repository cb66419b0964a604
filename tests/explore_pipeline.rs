//! End-to-end tests of `mcc explore`'s engine: deterministic reports at
//! every thread count, witness replay, and deadlock-bearing schedules
//! recorded instead of hung. (Ground truth over the bug gallery is the
//! `explore` column of `tests/differential.rs`.)

use mc_checker::apps::{bugs, case};
use mc_checker::explore::{Explorer, Verdict};
use mc_checker::prelude::*;
use std::time::Duration;

/// A program whose behaviour genuinely depends on the delivery decision:
/// under eager delivery rank 0 sees the flag and exits cleanly; under
/// at-close delivery it reads a stale 0 and waits on a barrier rank 1
/// never joins — a schedule-dependent deadlock.
fn conditional_barrier(p: &mut Proc) {
    let flag = p.alloc_i32s(1);
    if p.rank() == 1 {
        p.poke_i32(flag, 1);
    }
    let win = p.win_create(flag, 4, CommId::WORLD);
    p.barrier(CommId::WORLD);
    let mut seen = 1;
    if p.rank() == 0 {
        let dst = p.alloc_i32s(1);
        p.win_lock(LockKind::Shared, 1, win);
        p.get(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        // Eager delivery: 1. At-close: still 0 — the get completes only
        // at the unlock below.
        seen = p.peek_i32(dst);
        p.win_unlock(1, win);
    }
    p.win_free(win);
    if p.rank() == 0 && seen == 0 {
        p.barrier(CommId::WORLD); // rank 1 has already exited: abandoned
    }
}

/// Hides the panic backtraces of force-unblocked ranks in the deadlock
/// tests, restoring the previous hook afterwards.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn reports_byte_identical_across_thread_counts() {
    for (name, fixed) in [("fig2a", false), ("ping-pong", false), ("ping-pong", true)] {
        let body = case(name).and_then(|c| c.body(fixed)).expect("a registry body");
        let json: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&t| Explorer::new(2).with_threads(t).run(body).to_json())
            .collect();
        assert_eq!(json[0], json[1], "{name} (fixed: {fixed}): 1 vs 2 threads");
        assert_eq!(json[0], json[2], "{name} (fixed: {fixed}): 1 vs 4 threads");
        assert!(json[0].contains("\"schema_version\""), "{name}: report document");
    }
}

#[test]
fn witness_replay_reproduces_the_finding() {
    let report = Explorer::new(2).run(bugs::archetypes::fig2a);
    let finding = &report.findings[0];
    let outcome = Explorer::new(2).replay(&finding.witness, bugs::archetypes::fig2a).unwrap();
    assert_eq!(outcome.witness, finding.witness, "replay follows the witness exactly");
    assert!(outcome.sim_error.is_none());
    let keys: Vec<String> = outcome.findings.iter().map(|e| e.dedup_key()).collect();
    assert!(
        keys.contains(&finding.error.dedup_key()),
        "replayed schedule reproduces the explored finding: {keys:?}"
    );
}

#[test]
fn deadlocking_schedule_is_recorded_with_witness() {
    let report = quiet_panics(|| {
        Explorer::new(2).with_watchdog(Duration::from_millis(300)).run(conditional_barrier)
    });
    let deadlocked: Vec<_> =
        report.schedules.iter().filter(|s| s.verdict == Verdict::Deadlock).collect();
    assert_eq!(deadlocked.len(), 1, "exactly the at-close schedule hangs: {report:?}");
    assert_eq!(deadlocked[0].witness, "c/-", "the hanging decision vector is recorded");
    assert!(deadlocked[0].note.is_some(), "the simulator's deadlock verdict is kept");
    assert!(
        report.schedules.iter().any(|s| s.verdict == Verdict::Clean && s.witness == "e/-"),
        "the eager sibling schedule completes cleanly: {report:?}"
    );
    assert!(!report.has_errors(), "a deadlock is not a memory consistency error");
    assert!(!report.exhausted, "both schedules of the single choice point were visited");
}

#[test]
fn deadlock_under_budget_one_exits_seven() {
    let report = quiet_panics(|| {
        Explorer::new(2)
            .with_watchdog(Duration::from_millis(300))
            .with_max_schedules(1)
            .run(conditional_barrier)
    });
    assert_eq!(report.schedules.len(), 1);
    assert_eq!(report.schedules[0].verdict, Verdict::Deadlock);
    assert!(report.exhausted, "the eager sibling was never tried");
    assert_eq!(report.exit_code(), 7, "budget exhausted without errors is the documented 7");
}
