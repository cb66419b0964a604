//! Cross-process conflict detection (paper §III-C / §IV-C4, second error
//! class).
//!
//! The straightforward approach checks every pair of operations in a
//! concurrent region — combinatorial. The paper's observation: such errors
//! can occur *only in the window buffers at target processes*. The engine
//! therefore shards the region's accesses by `(region, window, target
//! rank)` — one shard per contended window instance — and within each
//! shard replaces the pairwise footprint scan with a class-aware
//! sort-and-sweep over byte-interval endpoints
//! ([`crate::regions::IntervalIndex`]). Table I cannot flag two accesses
//! that only read the window (`Load`, `MPI_Get`: every combination is
//! `BOTH`) nor two of the owner's own loads and stores, so each access
//! enters the index with a [`Touch`] saying whether it is a *reader* and
//! whether it is *local*, and the sweep never pairs two readers or two
//! locals: a shard with n accesses costs O(n log n + k_w), k_w being the
//! overlapping pairs in which at least one side updates the window and
//! at least one is a one-sided operation — however many readers share a
//! hot location. `interval_pairs_total` counts those k_w pairs, the ones
//! handed to the Table-I check. The only pairs that conflict *without*
//! overlapping bytes are local stores against remote `Put`/`Accumulate`
//! (the MPI-2.2 separation rule); those are enumerated directly from the
//! shard's two (small) class groups.
//!
//! Shards are the sweep's grouping, not units of scheduling:
//! [`crate::session::AnalysisSession`] walks them one after another in
//! key order, each with its own memoized vector-clock cache
//! ([`crate::vc::ReachCache`]). Pairs that the region partition admits
//! are confirmed genuinely unordered with vector clocks before being
//! reported (no false positives from, e.g., a send/recv inside the
//! region).
//!
//! The naive all-pairs detector is kept as [`detect_naive`] for the
//! complexity ablation and the differential tests.

use crate::dag::Dag;
use crate::epoch::{EpochKind, Epochs};
use crate::preprocess::Ctx;
use crate::regions::{IntervalIndex, Regions, Touch};
#[cfg(test)]
use crate::report::canonical_merge;
use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use crate::vc::{Clocks, ReachCache};
use mcc_obs::RecorderHandle;
use mcc_types::{
    compat, conflicts, AccessCategory, AccessClass, Compatibility, ConflictKind, DataMap,
    EventKind, EventRef, LockKind, MemRegion, Rank, Trace, WinId,
};
use std::collections::BTreeMap;

/// One access recorded in a shard: a one-sided operation aimed at the
/// shard's `(window, target)`, or a local load/store by the target rank
/// touching that window.
pub(crate) struct Item {
    ev: EventRef,
    class: AccessClass,
    /// Absolute footprint in the target's address space.
    map: DataMap,
    /// Lock kind of the issuing epoch, when it is a passive-target epoch.
    lock: Option<LockKind>,
    /// `Some(is_store)` for a local access by the window owner; `None`
    /// for a one-sided operation.
    local: Option<bool>,
    /// Epoch index of the issuing epoch (RMA operations only).
    epoch: Option<u32>,
}

/// The unit of work of the cross-process detector — what one interval
/// sweep runs over: all accesses contending one window instance inside
/// one concurrent region.
pub(crate) struct Shard {
    /// The window.
    pub(crate) win: WinId,
    /// The target rank whose window memory is contended.
    pub(crate) target: Rank,
    items: Vec<Item>,
}

impl Shard {
    /// Accesses contending this window instance (the `shard_items`
    /// histogram's observation).
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

fn op_lock_kind(epochs: &Epochs, ev: EventRef) -> Option<LockKind> {
    match epochs.epoch_of(ev)?.kind {
        EpochKind::Lock { lock, .. } => Some(lock),
        // MPI-3 lock_all acquires shared locks everywhere.
        EpochKind::LockAll { .. } => Some(LockKind::Shared),
        _ => None,
    }
}

/// Severity demotion: a conflict where every involved RMA epoch holds an
/// exclusive lock may be serialized by the runtime — report a warning, as
/// the paper does for the original lockopts bug (§VII-A2).
fn severity(a: Option<LockKind>, b: Option<LockKind>) -> Severity {
    let mut rma_epochs = a.into_iter().chain(b).peekable();
    if rma_epochs.peek().is_some() && rma_epochs.all(|l| l == LockKind::Exclusive) {
        Severity::Warning
    } else {
        Severity::Error
    }
}

/// Groups every access of the trace into its `(region, window, target)`
/// shard: one walk over the ranks, then over each rank's events, so every
/// shard's items are in `(rank, event index)` order and the shards come
/// out in key order. Shards without any one-sided operation are dropped —
/// local accesses alone cannot produce a cross-process conflict.
pub(crate) fn build_shards(
    trace: &Trace,
    ctx: &Ctx,
    epochs: &Epochs,
    regions: &Regions,
) -> Vec<Shard> {
    // Items of each shard, and whether any of them is a one-sided operation.
    let mut buckets: BTreeMap<(u32, WinId, Rank), (Vec<Item>, bool)> = BTreeMap::new();
    for (er, event) in trace.iter_events() {
        let region = regions.region_of(er);
        if let Some(ra) = ctx.resolve_rma_event(er.rank, &event.kind) {
            let entry = buckets.entry((region, ra.win, ra.target_abs)).or_default();
            entry.0.push(Item {
                ev: er,
                class: ra.class,
                map: ra.target_map,
                lock: op_lock_kind(epochs, er),
                local: None,
                epoch: epochs.ordinal_of(er),
            });
            entry.1 = true;
            continue;
        }
        let (is_store, addr, len) = match event.kind {
            EventKind::Load { addr, len } => (false, addr, len),
            EventKind::Store { addr, len } => (true, addr, len),
            _ => continue,
        };
        let access = MemRegion::new(addr, len);
        for (win, win_region) in ctx.wins_of_rank(er.rank) {
            if !win_region.overlaps(access) {
                continue;
            }
            let entry = buckets.entry((region, win, er.rank)).or_default();
            entry.0.push(Item {
                ev: er,
                class: if is_store { AccessClass::STORE } else { AccessClass::LOAD },
                map: DataMap::contiguous(len).shifted(addr),
                lock: None,
                local: Some(is_store),
                epoch: None,
            });
        }
    }
    buckets
        .into_iter()
        .filter(|(_, (_, has_rma))| *has_rma)
        .map(|((_, win, target), (items, _))| Shard { win, target, items })
        .collect()
}

/// Builds the finding for one conflicting pair: orients the pair
/// canonically (the one-sided operation first for mixed pairs) and
/// phrases the explanation. Shared by every engine, so a conflict yields
/// the identical `ConsistencyError` however it was discovered.
fn make_error(
    trace: &Trace,
    win: WinId,
    target: Rank,
    a: &Item,
    b: &Item,
    kind: ConflictKind,
) -> ConsistencyError {
    // Keep the RMA operation first for mixed pairs, matching the
    // diagnostics format (remote op vs the target's own access).
    let (a, b) = if a.local.is_some() && b.local.is_none() { (b, a) } else { (a, b) };
    let explanation = match (a.local, b.local) {
        (None, None) => format!(
            "concurrent {} and {} reach the window of {} with no happens-before or \
             consistency ordering between them",
            a.class, b.class, target
        ),
        _ => {
            let (rma, local) = if a.local.is_none() { (a, b) } else { (b, a) };
            format!(
                "a remote {} to {}'s window is concurrent with the target's own {} of \
                 window memory",
                rma.class,
                target,
                if local.local == Some(true) { "store" } else { "load" }
            )
        }
    };
    ConsistencyError {
        severity: severity(a.lock, b.lock),
        scope: ErrorScope::CrossProcess { win, target },
        confidence: Confidence::Complete,
        a: OpInfo::from_trace(trace, a.ev, Some(a.map.bounding_region_at(0))).with_epoch(a.epoch),
        b: OpInfo::from_trace(trace, b.ev, Some(b.map.bounding_region_at(0))).with_epoch(b.epoch),
        kind,
        explanation,
    }
}

/// Detects every conflict inside one shard. Self-contained: builds the
/// interval index, sweeps for overlapping pairs, enumerates the
/// separation-rule pairs, and confirms candidates unordered through a
/// shard-private [`ReachCache`]. Findings are returned raw — including
/// source-level duplicates — because only the session's canonical merge
/// ([`crate::report::canonical_merge`]) picks the representative the
/// all-pairs oracle picks too.
pub(crate) fn detect_shard(
    trace: &Trace,
    dag: &Dag,
    clocks: &Clocks,
    shard: &Shard,
    obs: &RecorderHandle,
) -> Vec<ConsistencyError> {
    let mut cache = ReachCache::new(clocks);
    let mut out = Vec::new();
    // Counters accumulate locally and flush once per shard.
    let mut interval_pairs = 0u64;
    let mut separation_pairs = 0u64;

    // Pass 1: sort-and-sweep for pairs with overlapping bytes of which
    // at least one side updates the window and at most one is the
    // owner's own access. Item ids follow `(rank, event index)` order, so
    // pair orientation is stable.
    let mut index = IntervalIndex::new();
    for (i, item) in shard.items.iter().enumerate() {
        let touch =
            Touch { reader: item.class.category.is_window_read(), local: item.local.is_some() };
        for seg in item.map.segments() {
            index.insert(i as u32, seg.disp, seg.end(), touch);
        }
    }
    for (i, j) in index.overlapping_pairs() {
        interval_pairs += 1;
        let (a, b) = (&shard.items[i as usize], &shard.items[j as usize]);
        if compat(a.class, b.class) == Compatibility::Error {
            continue; // handled by the separation pass below
        }
        let Some(kind) = conflicts(a.class, b.class, true) else { continue };
        if !cache.concurrent(dag.enter(a.ev), dag.enter(b.ev)) {
            continue;
        }
        out.push(make_error(trace, shard.win, shard.target, a, b, kind));
    }

    // Pass 2: the separation rule — a local store combined with any
    // remote Put/Accumulate is erroneous even without byte overlap
    // (§IV-C4), so these pairs never reach the interval sweep.
    let local_stores: Vec<&Item> = shard.items.iter().filter(|it| it.local == Some(true)).collect();
    if !local_stores.is_empty() {
        let writers = shard.items.iter().filter(|it| {
            it.local.is_none()
                && matches!(it.class.category, AccessCategory::Put | AccessCategory::Acc)
        });
        for rma in writers {
            for &st in &local_stores {
                separation_pairs += 1;
                let Some(kind) = conflicts(rma.class, st.class, false) else { continue };
                if !cache.concurrent(dag.enter(rma.ev), dag.enter(st.ev)) {
                    continue;
                }
                out.push(make_error(trace, shard.win, shard.target, rma, st, kind));
            }
        }
    }
    obs.add("interval_pairs_total", interval_pairs);
    obs.add("separation_pairs_total", separation_pairs);
    obs.add("reach_hits_total", cache.hits());
    obs.add("reach_misses_total", cache.misses());
    out
}

/// Runs the sharded sweep detection over the whole trace — what the unit
/// tests drive directly (the session runs the same shards through the
/// same canonical merge).
#[cfg(test)]
pub(crate) fn detect(
    trace: &Trace,
    ctx: &Ctx,
    epochs: &Epochs,
    regions: &Regions,
    dag: &Dag,
    clocks: &Clocks,
) -> Vec<ConsistencyError> {
    let obs = RecorderHandle::disabled();
    let mut out: Vec<ConsistencyError> = build_shards(trace, ctx, epochs, regions)
        .iter()
        .flat_map(|shard| detect_shard(trace, dag, clocks, shard, &obs))
        .collect();
    canonical_merge(&mut out);
    out
}

/// The combinatorial baseline: every pair of operations in each region is
/// checked directly. Emits through the same [`make_error`] path as the
/// sweep, so after the session's canonical merge the two engines produce
/// byte-identical reports; kept for the §IV-C4 complexity ablation and as
/// the oracle of the differential tests.
pub(crate) fn detect_naive(
    trace: &Trace,
    ctx: &Ctx,
    epochs: &Epochs,
    regions: &Regions,
    dag: &Dag,
    clocks: &Clocks,
    obs: &RecorderHandle,
) -> Vec<ConsistencyError> {
    let mut naive_pairs = 0u64;
    struct Access {
        er: EventRef,
        class: AccessClass,
        /// `(window, target rank, footprint)` — for local accesses, one
        /// entry per window the access touches.
        touches: Vec<(WinId, Rank, DataMap)>,
        lock: Option<LockKind>,
        /// Same encoding as [`Item::local`].
        local: Option<bool>,
        epoch: Option<u32>,
    }
    let mut out = Vec::new();
    for region in 0..regions.count as u32 {
        let mut accesses: Vec<Access> = Vec::new();
        for (er, event) in trace.iter_events() {
            if regions.region_of(er) != region {
                continue;
            }
            if let Some(ra) = ctx.resolve_rma_event(er.rank, &event.kind) {
                accesses.push(Access {
                    er,
                    class: ra.class,
                    touches: vec![(ra.win, ra.target_abs, ra.target_map)],
                    lock: op_lock_kind(epochs, er),
                    local: None,
                    epoch: epochs.ordinal_of(er),
                });
                continue;
            }
            match &event.kind {
                EventKind::Load { addr, len } | EventKind::Store { addr, len } => {
                    let is_store = matches!(event.kind, EventKind::Store { .. });
                    let access = MemRegion::new(*addr, *len);
                    let touches: Vec<(WinId, Rank, DataMap)> = ctx
                        .wins_of_rank(er.rank)
                        .into_iter()
                        .filter(|(_, wr)| wr.overlaps(access))
                        .map(|(w, _)| (w, er.rank, DataMap::contiguous(*len).shifted(*addr)))
                        .collect();
                    if touches.is_empty() {
                        continue;
                    }
                    accesses.push(Access {
                        er,
                        class: if is_store { AccessClass::STORE } else { AccessClass::LOAD },
                        touches,
                        lock: None,
                        local: Some(is_store),
                        epoch: None,
                    });
                }
                _ => {}
            }
        }
        for i in 0..accesses.len() {
            for j in (i + 1)..accesses.len() {
                naive_pairs += 1;
                let (a, b) = (&accesses[i], &accesses[j]);
                // Local-local pairs never conflict under this ruleset
                // (only the window owner loads/stores its window).
                let a_is_rma = trace.event(a.er).kind.is_rma_op();
                let b_is_rma = trace.event(b.er).kind.is_rma_op();
                if !a_is_rma && !b_is_rma {
                    continue;
                }
                for (wa, ta, ma) in &a.touches {
                    for (wb, tb, mb) in &b.touches {
                        if wa != wb || ta != tb {
                            continue;
                        }
                        if !clocks.concurrent(dag.enter(a.er), dag.enter(b.er)) {
                            continue;
                        }
                        let overlap = ma.overlaps_at(0, mb, 0);
                        if let Some(kind) = conflicts(a.class, b.class, overlap) {
                            let ia = Item {
                                ev: a.er,
                                class: a.class,
                                map: ma.clone(),
                                lock: a.lock,
                                local: a.local,
                                epoch: a.epoch,
                            };
                            let ib = Item {
                                ev: b.er,
                                class: b.class,
                                map: mb.clone(),
                                lock: b.lock,
                                local: b.local,
                                epoch: b.epoch,
                            };
                            out.push(make_error(trace, *wa, *ta, &ia, &ib, kind));
                        }
                    }
                }
            }
        }
    }
    obs.add("naive_pairs_total", naive_pairs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::build;
    use crate::epoch::extract;
    use crate::matching::match_sync;
    use crate::preprocess::preprocess;
    use crate::regions::partition;
    use mcc_types::{CommId, DatatypeId, RmaKind, RmaOp, SourceLoc, TraceBuilder};

    fn rma(kind: RmaKind, origin: u64, target: u32, disp: u64) -> EventKind {
        EventKind::Rma(RmaOp {
            kind,
            win: WinId(0),
            target: Rank(target),
            origin_addr: origin,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    struct Pipeline {
        trace: Trace,
    }

    impl Pipeline {
        fn run(&self) -> Vec<ConsistencyError> {
            let ctx = preprocess(&self.trace);
            let m = match_sync(&self.trace, &ctx);
            let dag = build(&self.trace, &ctx, &m);
            let clocks = Clocks::compute(&dag);
            let regions = partition(&self.trace, &m);
            let eps = extract(&self.trace, &ctx);
            detect(&self.trace, &ctx, &eps, &regions, &dag, &clocks)
        }

        fn run_naive(&self) -> Vec<ConsistencyError> {
            let ctx = preprocess(&self.trace);
            let m = match_sync(&self.trace, &ctx);
            let dag = build(&self.trace, &ctx, &m);
            let clocks = Clocks::compute(&dag);
            let regions = partition(&self.trace, &m);
            let eps = extract(&self.trace, &ctx);
            let mut out = detect_naive(
                &self.trace,
                &ctx,
                &eps,
                &regions,
                &dag,
                &clocks,
                &RecorderHandle::disabled(),
            );
            canonical_merge(&mut out);
            out
        }
    }

    fn scaffold(n: u32) -> TraceBuilder {
        let mut b = TraceBuilder::new(n as usize);
        for r in 0..n {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b
    }

    fn close_fence(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    /// Figure 2b: two puts from different origins to the same target
    /// location in concurrent active-target epochs.
    #[test]
    fn fig2b_concurrent_puts() {
        let mut b = scaffold(3);
        b.push_at(Rank(0), rma(RmaKind::Put, 200, 1, 0), SourceLoc::new("fig2b.c", 3, "main"));
        b.push_at(Rank(2), rma(RmaKind::Put, 200, 1, 0), SourceLoc::new("fig2b.c", 7, "main"));
        close_fence(&mut b, 3);
        let errors = Pipeline { trace: b.build() }.run();
        assert_eq!(errors.len(), 1);
        let e = &errors[0];
        assert_eq!(e.severity, Severity::Error);
        assert!(matches!(e.scope, ErrorScope::CrossProcess { target: Rank(1), .. }));
        assert_eq!(e.a.op, "MPI_Put");
        assert_eq!(e.b.op, "MPI_Put");
        assert_ne!(e.a.rank, e.b.rank);
        assert!(e.a.epoch.is_some(), "RMA side carries its epoch index");
    }

    #[test]
    fn disjoint_targets_no_conflict() {
        let mut b = scaffold(3);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(2), rma(RmaKind::Put, 200, 1, 8));
        close_fence(&mut b, 3);
        assert!(Pipeline { trace: b.build() }.run().is_empty());
    }

    /// Figure 2c: concurrent put and get on overlapping window memory from
    /// passive-target epochs.
    #[test]
    fn fig2c_passive_put_vs_get() {
        let mut b = scaffold(3);
        b.push(Rank(0), EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Shared });
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(0), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        b.push(Rank(2), EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Shared });
        b.push(Rank(2), rma(RmaKind::Get, 200, 1, 0));
        b.push(Rank(2), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        close_fence(&mut b, 3);
        let errors = Pipeline { trace: b.build() }.run();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].severity, Severity::Error, "shared locks do not serialize");
    }

    /// The original lockopts scenario: both epochs exclusive → warning.
    #[test]
    fn exclusive_lock_demoted_to_warning() {
        let mut b = scaffold(3);
        for r in [0u32, 2] {
            b.push(
                Rank(r),
                EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Exclusive },
            );
            b.push(Rank(r), rma(RmaKind::Put, 200, 1, 0));
            b.push(Rank(r), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        }
        close_fence(&mut b, 3);
        let errors = Pipeline { trace: b.build() }.run();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].severity, Severity::Warning);
    }

    /// Figure 2d: put vs the target's own store to its window.
    #[test]
    fn fig2d_put_vs_target_store() {
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        // Rank 1 stores into its own window (base 64) concurrently.
        b.push_at(
            Rank(1),
            EventKind::Store { addr: 64, len: 4 },
            SourceLoc::new("fig2d.c", 9, "main"),
        );
        close_fence(&mut b, 2);
        let errors = Pipeline { trace: b.build() }.run();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].b.op, "store");
        assert_eq!(errors[0].b.loc.line, 9);
    }

    /// The separation rule: a store to the window conflicts with a put to
    /// a *different* part of the same window.
    #[test]
    fn separation_rule_disjoint_store_vs_put() {
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Store { addr: 100, len: 4 }); // disjoint from put's [64,68)
        close_fence(&mut b, 2);
        let errors = Pipeline { trace: b.build() }.run();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, mcc_types::ConflictKind::SeparationViolation);
    }

    #[test]
    fn target_load_vs_put_needs_overlap() {
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Load { addr: 100, len: 4 }); // disjoint
        close_fence(&mut b, 2);
        assert!(Pipeline { trace: b.build() }.run().is_empty());
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Load { addr: 64, len: 4 }); // overlaps
        close_fence(&mut b, 2);
        assert_eq!(Pipeline { trace: b.build() }.run().len(), 1);
    }

    #[test]
    fn barrier_separated_epochs_no_conflict() {
        // Figure 3's c/d scenario: ops in different regions are ordered.
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        close_fence(&mut b, 2); // closes epoch AND partitions regions
        b.push(Rank(1), EventKind::Load { addr: 64, len: 4 });
        close_fence(&mut b, 2);
        assert!(Pipeline { trace: b.build() }.run().is_empty());
    }

    #[test]
    fn local_access_outside_windows_ignored() {
        let mut b = scaffold(2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Store { addr: 4096, len: 4 }); // not window memory
        close_fence(&mut b, 2);
        assert!(Pipeline { trace: b.build() }.run().is_empty());
    }

    #[test]
    fn naive_detector_agrees() {
        let mut b = scaffold(3);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(2), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        close_fence(&mut b, 3);
        let p = Pipeline { trace: b.build() };
        let fast = p.run();
        let naive = p.run_naive();
        assert_eq!(fast.len(), naive.len());
        let key = |v: &Vec<ConsistencyError>| {
            let mut k: Vec<_> = v.iter().map(|e| (e.a.ev, e.b.ev)).collect();
            k.sort();
            k
        };
        assert_eq!(key(&fast), key(&naive));
    }

    #[test]
    fn concurrent_gets_are_fine() {
        let mut b = scaffold(3);
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0));
        b.push(Rank(2), rma(RmaKind::Get, 200, 1, 0));
        close_fence(&mut b, 3);
        assert!(Pipeline { trace: b.build() }.run().is_empty());
    }

    #[test]
    fn shards_split_by_region_window_and_target() {
        // Two regions, each with puts at two distinct targets.
        let mut b = scaffold(3);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), rma(RmaKind::Put, 200, 2, 0));
        close_fence(&mut b, 3);
        b.push(Rank(0), rma(RmaKind::Put, 200, 2, 0));
        close_fence(&mut b, 3);
        let trace = b.build();
        let ctx = preprocess(&trace);
        let m = match_sync(&trace, &ctx);
        let regions = partition(&trace, &m);
        let eps = extract(&trace, &ctx);
        let shards = build_shards(&trace, &ctx, &eps, &regions);
        assert_eq!(shards.len(), 3, "two targets in region 1, one in region 2");
        assert!(shards.iter().all(|s| s.win == WinId(0)));
    }

    #[test]
    fn shard_detection_matches_sequential_union() {
        let mut b = scaffold(3);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(2), rma(RmaKind::Put, 200, 1, 0));
        b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        b.push(Rank(0), rma(RmaKind::Put, 200, 2, 4));
        b.push(Rank(1), rma(RmaKind::Get, 200, 2, 4));
        close_fence(&mut b, 3);
        let trace = b.build();
        let ctx = preprocess(&trace);
        let m = match_sync(&trace, &ctx);
        let dag = build(&trace, &ctx, &m);
        let clocks = Clocks::compute(&dag);
        let regions = partition(&trace, &m);
        let eps = extract(&trace, &ctx);
        let whole = detect(&trace, &ctx, &eps, &regions, &dag, &clocks);
        // Deduplicate each shard independently: the global count must
        // match, i.e. shards are disjoint and need no cross-shard dedup.
        let per_shard: usize = build_shards(&trace, &ctx, &eps, &regions)
            .iter()
            .map(|s| {
                let mut v = detect_shard(&trace, &dag, &clocks, s, &RecorderHandle::disabled());
                canonical_merge(&mut v);
                v.len()
            })
            .sum();
        assert_eq!(whole.len(), per_shard, "shards are disjoint, no cross-shard dedup needed");
        assert!(whole.len() >= 3);
    }
}
