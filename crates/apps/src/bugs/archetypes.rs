//! The four memory-consistency-error archetypes of the paper's Figure 2,
//! as minimal runnable programs.
//!
//! * **2a** — intra-epoch: `MPI_Put` then a store to the origin buffer;
//! * **2b** — active target, across processes: two origins put to the same
//!   target location in the same fence epoch;
//! * **2c** — passive target, across processes: a put and a get on
//!   overlapping window memory under shared locks;
//! * **2d** — origin vs target: a put conflicting with the target's own
//!   store to its window.

use mcc_mpi_sim::Proc;
use mcc_types::{CommId, DatatypeId, LockKind};

/// Figure 2a (2 processes): put followed by a store to the same buffer
/// within one epoch.
pub fn fig2a(p: &mut Proc) {
    p.set_func("fig2a");
    let wbuf = p.alloc_i32s(1);
    let win = p.win_create(wbuf, 4, CommId::WORLD);
    p.win_fence(win);
    if p.rank() == 0 {
        let buf = p.alloc_i32s(1);
        p.tstore_i32(buf, 7);
        p.put(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        p.tstore_i32(buf, 8); // races with the nonblocking put
    }
    p.win_fence(win);
    p.win_free(win);
}

/// Figure 2b (3 processes): concurrent puts from P0 and P2 to the same
/// location of P1's window in one active-target epoch.
pub fn fig2b(p: &mut Proc) {
    p.set_func("fig2b");
    let wbuf = p.alloc_i32s(1);
    let win = p.win_create(wbuf, 4, CommId::WORLD);
    p.win_fence(win);
    if p.rank() == 0 || p.rank() == 2 {
        let buf = p.alloc_i32s(1);
        p.tstore_i32(buf, p.rank() as i32);
        p.put(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
    }
    p.win_fence(win);
    p.win_free(win);
}

/// Figure 2c (3 processes): P0 puts and P2 gets overlapping window memory
/// of P1 under concurrent shared-lock epochs.
pub fn fig2c(p: &mut Proc) {
    p.set_func("fig2c");
    let wbuf = p.alloc_i32s(1);
    let win = p.win_create(wbuf, 4, CommId::WORLD);
    p.barrier(CommId::WORLD);
    if p.rank() == 0 {
        let buf = p.alloc_i32s(1);
        p.tstore_i32(buf, 1);
        p.win_lock(LockKind::Shared, 1, win);
        p.put(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        p.win_unlock(1, win);
    } else if p.rank() == 2 {
        let buf = p.alloc_i32s(1);
        p.win_lock(LockKind::Shared, 1, win);
        p.get(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        p.win_unlock(1, win);
    }
    p.barrier(CommId::WORLD);
    p.win_free(win);
}

/// Figure 2d (2 processes): P0's put conflicts with P1's own store to its
/// window.
pub fn fig2d(p: &mut Proc) {
    p.set_func("fig2d");
    let wbuf = p.alloc_i32s(1);
    let win = p.win_create(wbuf, 4, CommId::WORLD);
    p.win_fence(win);
    if p.rank() == 0 {
        let buf = p.alloc_i32s(1);
        p.tstore_i32(buf, 5);
        p.put(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
    } else {
        p.tstore_i32(wbuf, 9); // the target writes its own exposed memory
    }
    p.win_fence(win);
    p.win_free(win);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::trace_of;
    use mcc_core::AnalysisSession;

    #[test]
    fn fig2b_reports_the_two_origins() {
        let trace = trace_of(3, 17, fig2b);
        let report = AnalysisSession::new().run(&trace);
        let e = report.errors().next().unwrap();
        assert_eq!(e.a.op, "MPI_Put");
        assert_eq!(e.b.op, "MPI_Put");
        let ranks = [e.a.rank.0, e.b.rank.0];
        assert!(ranks.contains(&0) && ranks.contains(&2));
    }

    #[test]
    fn fig2c_put_get_pair() {
        let trace = trace_of(3, 17, fig2c);
        let report = AnalysisSession::new().run(&trace);
        let ops: Vec<&str> =
            report.errors().flat_map(|e| [e.a.op.as_str(), e.b.op.as_str()]).collect();
        assert!(ops.contains(&"MPI_Put") && ops.contains(&"MPI_Get"));
    }
}
