//! Integration tests for the MPI-3 RMA extension (the paper's §V: the
//! analysis carries over to the MPI-3 one-sided model given its ordering
//! relations and ruleset). Covers lock_all epochs, flush consistency
//! order, request-based operations, and the atomics' accumulate-class
//! semantics — within an epoch and across processes.

use mc_checker::prelude::*;

fn scaffold(p: &mut Proc, counter_init: i32) -> (u64, WinId) {
    p.set_func("mpi3");
    let buf = p.alloc_i32s(4);
    p.poke_i32(buf, counter_init);
    let win = p.win_create(buf, 16, CommId::WORLD);
    p.barrier(CommId::WORLD);
    (buf, win)
}

fn check(nprocs: u32, body: impl Fn(&mut Proc) + Send + Sync) -> CheckReport {
    let result =
        run(SimConfig::new(nprocs).with_seed(9).with_delivery(DeliveryPolicy::AtClose), body)
            .unwrap();
    AnalysisSession::new().run(&result.trace.unwrap())
}

#[test]
fn concurrent_same_op_atomics_are_clean() {
    // Every rank fetch_and_ops the shared counter concurrently under
    // lock_all — the flagship pattern MPI-3 atomics exist for.
    let report = check(4, |p| {
        let (_buf, win) = scaffold(p, 0);
        let one = p.alloc_i32s(1);
        p.tstore_i32(one, 1);
        let old = p.alloc_i32s(1);
        p.win_lock_all(win);
        p.fetch_and_op(one, old, DatatypeId::INT, 0, 0, ReduceOp::Sum, win);
        p.win_unlock_all(win);
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert_eq!(report.diagnostics.len(), 0, "{}", report.render());
}

#[test]
fn atomic_vs_put_across_processes_conflicts() {
    let report = check(3, |p| {
        let (_buf, win) = scaffold(p, 0);
        let src = p.alloc_i32s(1);
        p.tstore_i32(src, 1);
        if p.rank() == 1 {
            let old = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.fetch_and_op(src, old, DatatypeId::INT, 0, 0, ReduceOp::Sum, win);
            p.win_unlock_all(win);
        } else if p.rank() == 2 {
            p.win_lock_all(win);
            p.put(src, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert!(report.has_errors());
    let e = report.errors().next().unwrap();
    let ops = [e.a.op.as_str(), e.b.op.as_str()];
    assert!(ops.contains(&"MPI_Fetch_and_op") && ops.contains(&"MPI_Put"), "{ops:?}");
    assert!(matches!(e.scope, ErrorScope::CrossProcess { target: Rank(0), .. }));
}

#[test]
fn mixed_op_atomics_conflict_across_processes() {
    // SUM vs PROD atomics on the same cell are NON-OV.
    let report = check(3, |p| {
        let (_buf, win) = scaffold(p, 1);
        let src = p.alloc_i32s(1);
        p.tstore_i32(src, 2);
        let old = p.alloc_i32s(1);
        if p.rank() > 0 {
            let op = if p.rank() == 1 { ReduceOp::Sum } else { ReduceOp::Prod };
            p.win_lock_all(win);
            p.fetch_and_op(src, old, DatatypeId::INT, 0, 0, op, win);
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert!(report.has_errors(), "{}", report.render());
}

#[test]
fn flush_orders_get_before_read() {
    // get; flush; load — the MPI-3 idiom that fixes the emulate bug
    // without closing the epoch.
    let report = check(2, |p| {
        let (_buf, win) = scaffold(p, 7);
        if p.rank() == 0 {
            let out = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.get(out, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            p.win_flush(1, win);
            let v = p.tload_i32(out); // safe: the flush completed the get
            p.tstore_i32(out, v + 1);
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert_eq!(report.diagnostics.len(), 0, "{}", report.render());
}

#[test]
fn missing_flush_is_detected() {
    let report = check(2, |p| {
        let (_buf, win) = scaffold(p, 7);
        if p.rank() == 0 {
            let out = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.get(out, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            let _ = p.tload_i32(out); // races with the pending get
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert!(report.has_errors());
    let e = report.errors().next().unwrap();
    assert_eq!(e.a.op, "MPI_Get");
    assert_eq!(e.b.op, "load");
}

#[test]
fn flush_all_separates_sub_epochs() {
    // Two puts to the same location, separated by flush_all: ordered.
    let report = check(2, |p| {
        let (_buf, win) = scaffold(p, 0);
        if p.rank() == 0 {
            let src = p.alloc_i32s(1);
            p.tstore_i32(src, 5);
            p.win_lock_all(win);
            p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            p.win_flush_all(win);
            p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert_eq!(report.diagnostics.len(), 0, "{}", report.render());
}

#[test]
fn unflushed_double_put_conflicts() {
    let report = check(2, |p| {
        let (_buf, win) = scaffold(p, 0);
        if p.rank() == 0 {
            let src = p.alloc_i32s(1);
            let src2 = p.alloc_i32s(1);
            p.tstore_i32(src, 5);
            p.tstore_i32(src2, 6);
            p.win_lock_all(win);
            p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            p.put(src2, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert!(report.has_errors(), "{}", report.render());
}

#[test]
fn compare_and_swap_election_is_clean() {
    // The classic CAS leader election: everyone CASes the same slot.
    let report = check(4, |p| {
        let (_buf, win) = scaffold(p, -1);
        let me = p.alloc_i32s(1);
        p.tstore_i32(me, p.rank() as i32);
        let expect = p.alloc_i32s(1);
        p.tstore_i32(expect, -1);
        let old = p.alloc_i32s(1);
        p.win_lock_all(win);
        p.compare_and_swap(me, expect, old, DatatypeId::INT, 0, 0, win);
        p.win_unlock_all(win);
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert_eq!(report.diagnostics.len(), 0, "CAS vs CAS is atomic: {}", report.render());
}

#[test]
fn request_ops_with_wait_are_clean_across_rounds() {
    let report = check(2, |p| {
        let (_buf, win) = scaffold(p, 3);
        if p.rank() == 0 {
            let dst = p.alloc_i32s(1);
            p.win_lock_all(win);
            for _ in 0..3 {
                let req = p.rget(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                p.wait_req(req);
                let _ = p.tload_i32(dst);
            }
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    });
    assert_eq!(report.diagnostics.len(), 0, "{}", report.render());
}

#[test]
fn streaming_checker_handles_mpi3_traces() {
    use mc_checker::core::streaming::StreamingChecker;
    let result = run(SimConfig::new(2).with_seed(9).with_delivery(DeliveryPolicy::AtClose), |p| {
        let (_buf, win) = scaffold(p, 7);
        if p.rank() == 0 {
            let out = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.get(out, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            let _ = p.tload_i32(out); // bug
            p.win_unlock_all(win);
        }
        p.barrier(CommId::WORLD);
        p.win_free(win);
    })
    .unwrap();
    let trace = result.trace.unwrap();
    let batch = AnalysisSession::new().run(&trace);
    let (streamed, _) = StreamingChecker::run_over(&trace).unwrap();
    assert_eq!(streamed.len(), batch.diagnostics.len());
    assert!(!streamed.is_empty());
}
