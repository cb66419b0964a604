//! Intra-epoch conflict detection (paper §III-C, first error class).
//!
//! Within an epoch, nonblocking RMA operations complete at an undefined
//! point before the closing synchronization, so they race with:
//!
//! * other operations of the same epoch whose **target** footprints
//!   overlap at the same target process (checked against Table I), and
//! * any access to the local buffers they read or write between issue and
//!   completion — a pending `MPI_Get` acts as a deferred store into its
//!   origin buffer (Figures 1 and 6), a pending `MPI_Put`/
//!   `MPI_Accumulate` as a deferred load of it (Figure 2a / the ADLB
//!   stack bug), and an MPI-3 atomic as a deferred load of its operand
//!   plus a deferred store into its result buffer.
//!
//! MPI-3 refinements: a request-based operation waited with `MPI_Wait`
//! completes at the wait, so later accesses in the same epoch are ordered
//! after it; flushes split passive epochs into sub-epochs upstream (in
//! [`crate::epoch`]), so cross-flush pairs never reach this detector.
//!
//! # Candidate pairs
//!
//! Every rule above needs two accesses that share a byte, at least one of
//! which updates it and at least one of which is a pending operation: two
//! operations at one target never fall under the separation rule (that
//! needs a CPU store), two reads of a local buffer never race, and the
//! rank's own loads and stores are program-ordered. So instead of
//! visiting all pairs of an epoch, the detector takes its candidates
//! from [`IntervalIndex`] sweeps — one over the rank's own address space
//! (an op's `reads` are readers, its `writes` writers, a load a local
//! reader, a store a local writer) and one per `(window, target)` over
//! the target footprints (`MPI_Get` is the reader) — for
//! O(n log n + k_w) per epoch, k_w being the overlaps that involve a
//! writer and an op. The sweeps only *filter*: each candidate goes
//! through the exact predicates, and candidates are visited in the order
//! the all-pairs loops used, so the findings and their order are those of
//! the all-pairs scan (the tests drive both through one pair body).

use crate::epoch::Epoch;
#[cfg(test)]
use crate::epoch::Epochs;
use crate::preprocess::{Ctx, ResolvedAccess};
use crate::regions::{IntervalIndex, Touch};
use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use mcc_types::{compat, conflicts, ConflictKind, EventKind, EventRef, MemRegion, Trace};
use std::collections::HashSet;

struct ResolvedOp {
    ev: EventRef,
    ra: ResolvedAccess,
    /// Early completion point (request-based op that was waited).
    close: Option<EventRef>,
}

impl ResolvedOp {
    /// Whether `other_idx` (an event index at the same rank) is ordered
    /// after this op's completion.
    fn completed_before(&self, other_idx: usize) -> bool {
        self.close.is_some_and(|c| other_idx > c.idx)
    }
}

/// A CPU load or store inside the epoch span.
struct LocalAccess {
    ev: EventRef,
    is_store: bool,
    region: MemRegion,
}

/// Scans every epoch for conflicting pairs — what the unit tests drive
/// directly ([`crate::session::AnalysisSession`] runs [`check_epoch`]
/// per epoch and merges).
#[cfg(test)]
pub(crate) fn detect(trace: &Trace, ctx: &Ctx, epochs: &Epochs) -> Vec<ConsistencyError> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for (idx, epoch) in epochs.epochs.iter().enumerate() {
        for e in check_epoch(trace, ctx, epoch, epochs.ordinals[idx]) {
            if seen.insert(e.dedup_key()) {
                out.push(e);
            }
        }
    }
    out
}

/// Checks one epoch — the unit of work of the intra-epoch detector
/// (every pair this detector reports lives inside a single epoch).
/// Findings are deduplicated within the epoch; the caller deduplicates
/// globally.
pub(crate) fn check_epoch(
    trace: &Trace,
    ctx: &Ctx,
    epoch: &Epoch,
    epoch_idx: u32,
) -> Vec<ConsistencyError> {
    let mut out = check_epoch_raw(trace, ctx, epoch, epoch_idx);
    let mut seen = HashSet::new();
    out.retain(|e| seen.insert(e.dedup_key()));
    out
}

/// Like [`check_epoch`] but without the per-epoch source-location
/// deduplication: every conflicting pair is reported, loop repeats
/// included. [`crate::hb::racing_events`] needs the repeats — a
/// deduplicated report would hide racing loop iterations from the
/// schedule explorer.
pub(crate) fn check_epoch_raw(
    trace: &Trace,
    ctx: &Ctx,
    epoch: &Epoch,
    epoch_idx: u32,
) -> Vec<ConsistencyError> {
    let scan = EpochScan::new(trace, ctx, epoch, epoch_idx);
    scan.check(&scan.sweep_candidates())
}

/// One epoch resolved for pairwise checking. Items are numbered ops first
/// (issue order), then the epoch's local accesses (program order).
struct EpochScan<'a> {
    trace: &'a Trace,
    epoch: &'a Epoch,
    epoch_idx: u32,
    ops: Vec<ResolvedOp>,
}

impl<'a> EpochScan<'a> {
    fn new(trace: &'a Trace, ctx: &Ctx, epoch: &'a Epoch, epoch_idx: u32) -> Self {
        let ops = epoch
            .ops
            .iter()
            .map(|&ev| {
                let ra = ctx
                    .resolve_rma_event(ev.rank, &trace.event(ev).kind)
                    .expect("epoch ops are RMA events");
                ResolvedOp { ev, ra, close: epoch.op_close.get(&ev).copied() }
            })
            .collect();
        Self { trace, epoch, epoch_idx, ops }
    }

    /// The epoch's `k`-th local access (item `ops.len() + k`).
    fn local(&self, k: usize) -> Option<LocalAccess> {
        let ev = self.epoch.locals[k];
        let (is_store, addr, len) = match self.trace.event(ev).kind {
            EventKind::Load { addr, len } => (false, addr, len),
            EventKind::Store { addr, len } => (true, addr, len),
            _ => return None,
        };
        Some(LocalAccess { ev, is_store, region: MemRegion::new(addr, len) })
    }

    /// The item pairs that share a byte at least one of them updates, in
    /// the origin rank's memory or in one target's window: a superset of
    /// the pairs [`EpochScan::check`] can flag, sorted.
    fn sweep_candidates(&self) -> Vec<(u32, u32)> {
        let nops = self.ops.len();
        let mut origin = IntervalIndex::new();
        for (i, op) in self.ops.iter().enumerate() {
            for (map, reader) in [(&op.ra.reads, true), (&op.ra.writes, false)] {
                for seg in map.segments() {
                    origin.insert(i as u32, seg.disp, seg.end(), Touch { reader, local: false });
                }
            }
        }
        // A load or store can only race with an op issued before it, so it
        // enters the sweep only if it lies within the span of those ops'
        // local effects. The rest is left out unsorted: an epoch that
        // computes on a thousand addresses and then issues one op stays
        // O(n).
        let (mut issued, mut lo, mut hi) = (0, u64::MAX, 0);
        for (k, ev) in self.epoch.locals.iter().enumerate() {
            while issued < nops && self.ops[issued].ev.idx < ev.idx {
                let ra = &self.ops[issued].ra;
                for span in [&ra.reads, &ra.writes].map(|map| map.bounding_region_at(0)) {
                    if !span.is_empty() {
                        (lo, hi) = (lo.min(span.base), hi.max(span.end()));
                    }
                }
                issued += 1;
            }
            if issued == 0 {
                continue; // before every op: not even worth resolving
            }
            let Some(acc) = self.local(k) else { continue };
            if acc.region.base < hi && lo < acc.region.end() {
                let touch = Touch { reader: !acc.is_store, local: true };
                origin.insert((nops + k) as u32, acc.region.base, acc.region.end(), touch);
            }
        }
        let mut pairs = origin.overlapping_pairs();

        let target_of =
            |&i: &u32| (self.ops[i as usize].ra.win, self.ops[i as usize].ra.target_abs);
        let mut by_target: Vec<u32> = (0..nops as u32).collect();
        by_target.sort_unstable_by_key(target_of);
        for group in by_target.chunk_by(|a, b| target_of(a) == target_of(b)) {
            if group.len() < 2 {
                continue;
            }
            let mut window = IntervalIndex::new();
            for &i in group {
                let ra = &self.ops[i as usize].ra;
                let touch = Touch { reader: ra.class.category.is_window_read(), local: false };
                for seg in ra.target_map.segments() {
                    window.insert(i, seg.disp, seg.end(), touch);
                }
            }
            pairs.extend(window.overlapping_pairs());
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Every item pair — the all-pairs scan the sweeps replaced, kept as
    /// the oracle of the differential test.
    #[cfg(test)]
    fn all_pairs(&self) -> Vec<(u32, u32)> {
        let n = (self.ops.len() + self.epoch.locals.len()) as u32;
        (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect()
    }

    /// Runs the exact checks over sorted candidate pairs: all op/op pairs
    /// first, then all op/local pairs — the order of the all-pairs loops,
    /// so the first occurrence of each source-level finding (the one the
    /// per-epoch dedup keeps) does not depend on the candidate source.
    fn check(&self, candidates: &[(u32, u32)]) -> Vec<ConsistencyError> {
        let nops = self.ops.len();
        let mut out = Vec::new();
        let pairs = || candidates.iter().map(|&(i, j)| (i as usize, j as usize));
        for (i, j) in pairs().filter(|&(_, j)| j < nops) {
            self.check_ops(&self.ops[i], &self.ops[j], &mut out);
        }
        for (i, j) in pairs().filter(|&(i, j)| i < nops && j >= nops) {
            if let Some(acc) = self.local(j - nops) {
                self.check_local(&self.ops[i], &acc, &mut out);
            }
        }
        out
    }

    /// Two operations of the epoch. A pair where one op completed (early
    /// wait) before the other was issued is program-ordered.
    fn check_ops(&self, a: &ResolvedOp, b: &ResolvedOp, out: &mut Vec<ConsistencyError>) {
        let (trace, epoch, epoch_idx) = (self.trace, self.epoch, self.epoch_idx);
        debug_assert!(a.ev.idx < b.ev.idx, "epoch ops are in issue order");
        if a.completed_before(b.ev.idx) {
            return;
        }
        // Origin-buffer side (both buffers live at this rank).
        if a.ra.origin_conflicts_with(&b.ra) {
            out.push(ConsistencyError {
                severity: Severity::Error,
                scope: ErrorScope::IntraEpoch { rank: epoch.rank, win: epoch.win },
                confidence: Confidence::Complete,
                a: op_info(trace, a, true).with_epoch(Some(epoch_idx)),
                b: op_info(trace, b, true).with_epoch(Some(epoch_idx)),
                kind: ConflictKind::OverlapViolation,
                explanation: format!(
                    "both operations access the same local buffer while nonblocking \
                     and unordered within the epoch (at least one updates it); \
                     the result is undefined until the epoch closes at {}",
                    close_desc(trace, epoch)
                ),
            });
        }
        // Target-window side.
        if a.ra.target_abs == b.ra.target_abs && a.ra.win == b.ra.win {
            let overlap = a.ra.target_map.overlaps_at(0, &b.ra.target_map, 0);
            if let Some(kind) = conflicts(a.ra.class, b.ra.class, overlap) {
                out.push(ConsistencyError {
                    severity: Severity::Error,
                    scope: ErrorScope::IntraEpoch { rank: epoch.rank, win: epoch.win },
                    confidence: Confidence::Complete,
                    a: op_info(trace, a, false).with_epoch(Some(epoch_idx)),
                    b: op_info(trace, b, false).with_epoch(Some(epoch_idx)),
                    kind,
                    explanation: format!(
                        "unordered {} and {} update overlapping window memory at target \
                         {} within one epoch (Table I: {})",
                        a.ra.class,
                        b.ra.class,
                        a.ra.target_abs,
                        compat(a.ra.class, b.ra.class)
                    ),
                });
            }
        }
    }

    /// An operation vs. a local access: only accesses between issue and
    /// the op's completion (early wait, else epoch close) can race.
    fn check_local(&self, op: &ResolvedOp, acc: &LocalAccess, out: &mut Vec<ConsistencyError>) {
        let (trace, epoch) = (self.trace, self.epoch);
        if acc.ev.idx <= op.ev.idx || op.completed_before(acc.ev.idx) {
            return;
        }
        if op.ra.origin_conflicts_with_access(acc.is_store, acc.region) {
            let effect = if op.ra.writes.overlaps_region_at(0, acc.region) {
                "writes local memory at an undefined time before it completes"
            } else {
                "reads its local buffer at an undefined time before it completes"
            };
            out.push(ConsistencyError {
                severity: Severity::Error,
                scope: ErrorScope::IntraEpoch { rank: epoch.rank, win: epoch.win },
                confidence: Confidence::Complete,
                a: op_info(trace, op, true).with_epoch(Some(self.epoch_idx)),
                b: OpInfo::from_trace(trace, acc.ev, Some(acc.region)),
                kind: ConflictKind::OverlapViolation,
                explanation: format!(
                    "the nonblocking {} {}; the {} of the same memory races with it \
                     (close: {})",
                    trace.event(op.ev).kind.call_name(),
                    effect,
                    if acc.is_store { "store" } else { "load" },
                    close_desc(trace, epoch),
                ),
            });
        }
    }
}

fn op_info(trace: &Trace, op: &ResolvedOp, origin_side: bool) -> OpInfo {
    let map = if origin_side {
        if op.ra.writes.is_empty() {
            &op.ra.reads
        } else {
            &op.ra.writes
        }
    } else {
        &op.ra.target_map
    };
    let region = (!map.is_empty()).then(|| map.bounding_region_at(0));
    OpInfo::from_trace(trace, op.ev, region)
}

fn close_desc(trace: &Trace, epoch: &Epoch) -> String {
    match epoch.close {
        Some(c) => format!("{} at {}", trace.event(c).kind.call_name(), trace.loc_of(c)),
        None => "never closed in this trace".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::extract;
    use crate::preprocess::preprocess;
    use mcc_types::{
        AtomicKind, AtomicOp, CommId, DatatypeId, Rank, ReduceOp, RmaKind, RmaOp, SourceLoc,
        TraceBuilder, WinId,
    };

    fn rma(kind: RmaKind, origin: u64, target: u32, disp: u64, count: u32) -> EventKind {
        EventKind::Rma(RmaOp {
            kind,
            win: WinId(0),
            target: Rank(target),
            origin_addr: origin,
            origin_count: count,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: count,
            target_dtype: DatatypeId::INT,
        })
    }

    fn scaffold(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    fn close(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    fn run(t: &Trace) -> Vec<ConsistencyError> {
        let ctx = preprocess(t);
        let eps = extract(t, &ctx);
        detect(t, &ctx, &eps)
    }

    /// Figure 2a: put then store to the same buffer within one epoch.
    #[test]
    fn fig2a_put_then_store() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push_at(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1), SourceLoc::new("fig2a.c", 3, "main"));
        b.push_at(
            Rank(0),
            EventKind::Store { addr: 200, len: 4 },
            SourceLoc::new("fig2a.c", 4, "main"),
        );
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        let e = &errors[0];
        assert_eq!(e.severity, Severity::Error);
        assert!(matches!(e.scope, ErrorScope::IntraEpoch { rank: Rank(0), .. }));
        assert_eq!(e.a.op, "MPI_Put");
        assert_eq!(e.b.op, "store");
        assert_eq!(e.a.loc.line, 3);
        assert_eq!(e.b.loc.line, 4);
    }

    /// Figure 1 / Figure 6: get then load of the origin buffer.
    #[test]
    fn fig6_get_then_load() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push_at(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1), SourceLoc::new("bt.c", 5, "main"));
        b.push_at(
            Rank(0),
            EventKind::Load { addr: 200, len: 4 },
            SourceLoc::new("bt.c", 4, "main"),
        );
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Get");
        assert_eq!(errors[0].b.op, "load");
    }

    #[test]
    fn load_before_issue_is_ordered() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "access before issue cannot race");
    }

    #[test]
    fn load_of_put_origin_is_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "both only read the origin buffer");
    }

    #[test]
    fn disjoint_buffers_no_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        b.push(Rank(0), EventKind::Store { addr: 300, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn two_puts_overlapping_target() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 0, 1));
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1, "two puts to the same target location in one epoch");
        assert_eq!(errors[0].kind, ConflictKind::OverlapViolation);
    }

    #[test]
    fn two_puts_disjoint_target_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 8, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn same_op_accumulates_may_overlap() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 300, 1, 0, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "same-op same-dtype accumulates commute");
    }

    #[test]
    fn different_op_accumulates_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Prod), 300, 1, 0, 1));
        close(&mut b, 2);
        assert_eq!(run(&b.build()).len(), 1);
    }

    #[test]
    fn two_gets_same_origin_conflict() {
        // Both gets write the same local buffer concurrently.
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Get, 200, 2, 0, 1));
        for r in 0..3u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Get");
        assert_eq!(errors[0].b.op, "MPI_Get");
    }

    #[test]
    fn loop_conflicts_deduplicated() {
        // The same source-level pair repeated 10 times reports once per
        // distinct finding class.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        for _ in 0..10 {
            b.push_at(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1), SourceLoc::new("x.c", 5, "f"));
            b.push_at(
                Rank(0),
                EventKind::Load { addr: 200, len: 4 },
                SourceLoc::new("x.c", 4, "f"),
            );
        }
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(
            errors.len(),
            2,
            "one get-vs-load and one get-vs-get finding, each deduplicated across iterations"
        );
    }

    #[test]
    fn conflicts_isolated_per_epoch() {
        // Get in epoch 1, load of the same buffer in epoch 2: the fence
        // orders them.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        close(&mut b, 2);
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    // ------------------------------------------------------------------
    // MPI-3 cases.
    // ------------------------------------------------------------------

    fn fetch_op(origin: u64, result: u64, target: u32) -> EventKind {
        EventKind::RmaAtomic(AtomicOp {
            kind: AtomicKind::FetchAndOp(ReduceOp::Sum),
            win: WinId(0),
            target: Rank(target),
            origin_addr: origin,
            result_addr: result,
            compare_addr: None,
            count: 1,
            dtype: DatatypeId::INT,
            target_disp: 0,
        })
    }

    #[test]
    fn fetch_and_op_result_buffer_race() {
        // Reading the result buffer before the epoch closes is the MPI-3
        // analogue of Figure 6.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Load { addr: 240, len: 4 });
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Fetch_and_op");
        assert_eq!(errors[0].b.op, "load");
    }

    #[test]
    fn fetch_and_op_operand_store_race() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        assert_eq!(run(&b.build()).len(), 1, "operand overwritten while pending");
    }

    #[test]
    fn fetch_and_op_unrelated_access_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Load { addr: 300, len: 4 });
        // Reading the *operand* is also fine (both reads).
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn same_op_atomics_overlap_at_target() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), fetch_op(204, 244, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "same-op atomics may target the same cell");
    }

    #[test]
    fn atomic_vs_put_target_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 0, 1));
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1, "Acc vs Put overlapping at the target");
    }

    #[test]
    fn waited_request_op_is_ordered() {
        // rput; wait; store origin — safe, the wait completes the op.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::RmaReq {
                op: RmaOp {
                    kind: RmaKind::Put,
                    win: WinId(0),
                    target: Rank(1),
                    origin_addr: 200,
                    origin_count: 1,
                    origin_dtype: DatatypeId::INT,
                    target_disp: 0,
                    target_count: 1,
                    target_dtype: DatatypeId::INT,
                },
                req: 9,
            },
        );
        b.push(Rank(0), EventKind::WaitReq { req: 9 });
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "MPI_Wait completes the rput");
    }

    #[test]
    fn unwaited_request_op_races() {
        // rput; store origin; wait — the store is before completion.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::RmaReq {
                op: RmaOp {
                    kind: RmaKind::Put,
                    win: WinId(0),
                    target: Rank(1),
                    origin_addr: 200,
                    origin_count: 1,
                    origin_dtype: DatatypeId::INT,
                    target_disp: 0,
                    target_count: 1,
                    target_dtype: DatatypeId::INT,
                },
                req: 9,
            },
        );
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        b.push(Rank(0), EventKind::WaitReq { req: 9 });
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Rput");
    }

    // ------------------------------------------------------------------
    // The sweep filter against the all-pairs scan it replaced.
    // ------------------------------------------------------------------

    const VECTOR: DatatypeId = DatatypeId(40);

    /// Rank 0's events between the opening and closing fences of two
    /// windows: plain ops with contiguous and strided (multi-segment)
    /// datatypes, MPI-3 atomics (which both read and write origin
    /// memory), request-based ops some of which are waited early, and
    /// loads/stores before and after the ops they may race with — all on
    /// a handful of addresses, source lines, windows and targets so that
    /// overlaps and dedup collisions are common.
    fn random_epochs(seed: u64) -> Trace {
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            for w in 0..2u32 {
                let base = 64 + 1024 * w as u64;
                b.push(
                    Rank(r),
                    EventKind::WinCreate { win: WinId(w), base, len: 256, comm: CommId::WORLD },
                );
            }
            b.push(
                Rank(r),
                EventKind::TypeVector {
                    new: VECTOR,
                    count: 3,
                    blocklen: 1,
                    stride: 2,
                    elem: DatatypeId::INT,
                },
            );
            for w in 0..2u32 {
                b.push(Rank(r), EventKind::Fence { win: WinId(w) });
            }
        }
        let mut pending: Vec<u64> = Vec::new();
        for step in 0..(8 + next(40)) {
            let addr = 4000 + 4 * next(10);
            let dtype = |pick: u64| if pick == 0 { VECTOR } else { DatatypeId::INT };
            let op = RmaOp {
                kind: match next(4) {
                    0 => RmaKind::Put,
                    1 => RmaKind::Acc(ReduceOp::Sum),
                    2 => RmaKind::Acc(ReduceOp::Prod),
                    _ => RmaKind::Get,
                },
                win: WinId(next(2) as u32),
                target: Rank(1 + next(2) as u32),
                origin_addr: addr,
                origin_count: 1 + next(2) as u32,
                origin_dtype: dtype(next(3)),
                target_disp: 4 * next(8),
                target_count: 1 + next(2) as u32,
                target_dtype: dtype(next(3)),
            };
            let kind = match next(10) {
                0..=3 => EventKind::Rma(op),
                4 => {
                    pending.push(step);
                    EventKind::RmaReq { op, req: step }
                }
                5 if !pending.is_empty() => EventKind::WaitReq {
                    req: pending.swap_remove(next(pending.len() as u64) as usize),
                },
                5 | 6 => EventKind::RmaAtomic(AtomicOp {
                    kind: match next(3) {
                        0 => AtomicKind::FetchAndOp(ReduceOp::Sum),
                        1 => AtomicKind::GetAccumulate(ReduceOp::Sum),
                        _ => AtomicKind::CompareAndSwap,
                    },
                    win: op.win,
                    target: op.target,
                    origin_addr: addr,
                    result_addr: 4000 + 4 * next(10),
                    compare_addr: (next(2) == 0).then(|| 4000 + 4 * next(10)),
                    count: 1,
                    dtype: DatatypeId::INT,
                    target_disp: op.target_disp,
                }),
                7 => EventKind::Load { addr, len: 4 + 4 * next(2) },
                _ => EventKind::Store { addr, len: 4 + 4 * next(2) },
            };
            b.push_at(Rank(0), kind, SourceLoc::new("rand.c", 10 + next(6) as u32, "main"));
        }
        for r in 0..3u32 {
            for w in 0..2u32 {
                b.push(Rank(r), EventKind::Fence { win: WinId(w) });
            }
        }
        b.build()
    }

    #[test]
    fn sweep_candidates_reproduce_the_all_pairs_scan() {
        let (mut findings, mut swept, mut all) = (0, 0, 0);
        for seed in 0..400 {
            let trace = random_epochs(seed);
            let ctx = preprocess(&trace);
            let eps = extract(&trace, &ctx);
            for (i, epoch) in eps.epochs.iter().enumerate() {
                let scan = EpochScan::new(&trace, &ctx, epoch, eps.ordinals[i]);
                let (candidates, oracle) = (scan.sweep_candidates(), scan.all_pairs());
                let found = scan.check(&candidates);
                // Element for element, in order: the same findings and the
                // same first occurrence for every dedup key.
                assert_eq!(found, scan.check(&oracle), "seed {seed}, epoch {i}");
                findings += found.len();
                swept += candidates.len();
                all += oracle.len();
            }
        }
        assert!(findings > 1000, "the generator must produce conflicts ({findings})");
        assert!(swept < all / 2, "the sweep must filter ({swept} of {all} pairs)");
    }
}
