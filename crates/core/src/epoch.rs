//! Epoch extraction (paper §III-C): grouping each rank's RMA operations
//! and local accesses into access/exposure epochs.
//!
//! "For each concurrent region, MC-Checker first scans all the vertices
//! belonging to a process and identifies all the epochs within the process
//! by matching the synchronization calls."
//!
//! An epoch here is a per-rank, per-window span: fence-to-fence,
//! lock-to-unlock (with its lock kind, needed for the exclusive-lock
//! warning demotion), start-to-complete, or post-to-wait. Each RMA
//! operation is attributed to exactly the epoch that will complete it
//! (mirroring the runtime's rules); local load/store events are attributed
//! to every epoch that is open when they execute.

use mcc_types::{EventKind, EventRef, LockKind, Rank, Trace, WinId};
use std::collections::HashMap;

/// What kind of epoch a span is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Fence-delimited active-target epoch.
    Fence,
    /// Passive-target epoch on `target` (absolute) with the given lock.
    Lock {
        /// Absolute target rank.
        target: Rank,
        /// Shared or exclusive.
        lock: LockKind,
    },
    /// PSCW access epoch (start..complete).
    Access,
    /// PSCW exposure epoch (post..wait).
    Exposure,
    /// MPI-3 `lock_all` passive epoch towards `target` (shared semantics;
    /// one sub-epoch per target actually addressed, split at flushes).
    LockAll {
        /// Absolute target rank of this sub-epoch.
        target: Rank,
    },
}

/// One epoch at one rank on one window.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// The rank the epoch belongs to.
    pub rank: Rank,
    /// The window.
    pub win: WinId,
    /// Kind (and lock details for passive target).
    pub kind: EpochKind,
    /// Opening synchronization event, if inside the trace.
    pub open: Option<EventRef>,
    /// Closing synchronization event, if the epoch was closed.
    pub close: Option<EventRef>,
    /// RMA operations completed by this epoch, in issue order.
    pub ops: Vec<EventRef>,
    /// Local load/store events inside the epoch span, in program order.
    pub locals: Vec<EventRef>,
    /// Early per-op completion points: a request-based operation waited
    /// with `MPI_Wait` completes there rather than at the epoch close.
    pub op_close: HashMap<EventRef, EventRef>,
}

/// All epochs of a trace plus the op → epoch attribution.
#[derive(Debug, Default)]
pub struct Epochs {
    /// The epochs, in per-rank discovery order.
    pub epochs: Vec<Epoch>,
    /// Maps each RMA op event to its epoch's index in `epochs`.
    pub of_op: HashMap<EventRef, usize>,
    /// Per-rank ordinal of each epoch: its position among the epochs of
    /// the same rank, in discovery order. This is the epoch number
    /// reported in findings — unlike the global index it survives
    /// splitting the trace at global synchronization, so the streaming
    /// checker and the batch pipeline number epochs identically.
    pub ordinals: Vec<u32>,
}

impl Epochs {
    /// The epoch an RMA op belongs to.
    pub fn epoch_of(&self, op: EventRef) -> Option<&Epoch> {
        self.of_op.get(&op).map(|&i| &self.epochs[i])
    }

    /// The per-rank ordinal of the epoch an RMA op belongs to.
    pub fn ordinal_of(&self, op: EventRef) -> Option<u32> {
        self.of_op.get(&op).map(|&i| self.ordinals[i])
    }

    /// How many epochs each rank owns (indexed by rank).
    pub fn per_rank_counts(&self, nprocs: usize) -> Vec<usize> {
        let mut counts = vec![0usize; nprocs];
        for e in &self.epochs {
            counts[e.rank.idx()] += 1;
        }
        counts
    }
}

/// Working state for one open epoch during the scan.
struct OpenEpoch {
    kind: EpochKind,
    open: Option<EventRef>,
    ops: Vec<EventRef>,
    locals: Vec<EventRef>,
    op_indices: Vec<EventRef>,
    op_close: HashMap<EventRef, EventRef>,
}

impl OpenEpoch {
    fn new(kind: EpochKind, open: Option<EventRef>) -> Self {
        Self {
            kind,
            open,
            ops: Vec::new(),
            locals: Vec::new(),
            op_indices: Vec::new(),
            op_close: HashMap::new(),
        }
    }

    fn into_epoch(self, rank: Rank, win: WinId, close: Option<EventRef>) -> (Epoch, Vec<EventRef>) {
        (
            Epoch {
                rank,
                win,
                kind: self.kind,
                open: self.open,
                close,
                ops: self.ops,
                locals: self.locals,
                op_close: self.op_close,
            },
            self.op_indices,
        )
    }
}

/// Extracts all epochs of a trace. Needs the preprocessed context to
/// resolve RMA targets to absolute ranks.
pub fn extract(trace: &Trace, ctx: &crate::preprocess::Ctx) -> Epochs {
    let mut out = Epochs::default();
    for (r, proc) in trace.procs.iter().enumerate() {
        let rank = Rank(r as u32);
        // Open epochs: ambient fence epoch per window (created lazily),
        // passive epochs per (win, target) (lock and lock_all sub-epochs),
        // PSCW epochs per win.
        let mut fence: HashMap<u32, OpenEpoch> = HashMap::new();
        let mut passive: HashMap<(u32, u32), OpenEpoch> = HashMap::new();
        let mut access: HashMap<u32, OpenEpoch> = HashMap::new();
        let mut exposure: HashMap<u32, OpenEpoch> = HashMap::new();
        let mut lock_all_open: HashMap<u32, EventRef> = HashMap::new();
        // Request-based ops and where they live: req → (bucket, op ref).
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        enum Bucket {
            Passive(u32, u32),
            Access(u32),
            Fence(u32),
        }
        let mut reqs: HashMap<u64, (Bucket, EventRef)> = HashMap::new();

        let finish = |out: &mut Epochs, open: OpenEpoch, win: WinId, close: Option<EventRef>| {
            // Keep only epochs that could matter: at least one RMA op.
            if open.ops.is_empty() {
                return;
            }
            let (epoch, op_refs) = open.into_epoch(rank, win, close);
            let idx = out.epochs.len();
            for op in op_refs {
                out.of_op.insert(op, idx);
            }
            out.epochs.push(epoch);
        };

        for (idx, event) in proc.events.iter().enumerate() {
            let er = EventRef::new(rank, idx);

            // Unified attribution for all one-sided communication kinds.
            // Window and target lookups cannot miss: see `Ctx::target_abs`.
            if let Some((win, target_abs, req)) = match &event.kind {
                EventKind::Rma(op) => Some((op.win, ctx.target_abs(op.win, op.target), None)),
                EventKind::RmaAtomic(op) => Some((op.win, ctx.target_abs(op.win, op.target), None)),
                EventKind::RmaReq { op, req } => {
                    Some((op.win, ctx.target_abs(op.win, op.target), Some(*req)))
                }
                _ => None,
            } {
                let key = (win.0, target_abs.0);
                let (bucket, slot) = if let Some(e) = passive.get_mut(&key) {
                    (Bucket::Passive(key.0, key.1), e)
                } else if let Some(&open) = lock_all_open.get(&win.0) {
                    // Lazily open a lock_all sub-epoch for this target.
                    let e = passive.entry(key).or_insert_with(|| {
                        OpenEpoch::new(EpochKind::LockAll { target: target_abs }, Some(open))
                    });
                    (Bucket::Passive(key.0, key.1), e)
                } else if let Some(e) = access.get_mut(&win.0) {
                    (Bucket::Access(win.0), e)
                } else {
                    let e = fence
                        .entry(win.0)
                        .or_insert_with(|| OpenEpoch::new(EpochKind::Fence, None));
                    (Bucket::Fence(win.0), e)
                };
                slot.ops.push(er);
                slot.op_indices.push(er);
                if let Some(req) = req {
                    reqs.insert(req, (bucket, er));
                }
                continue;
            }

            match &event.kind {
                EventKind::Load { .. } | EventKind::Store { .. } => {
                    for e in fence
                        .values_mut()
                        .chain(passive.values_mut())
                        .chain(access.values_mut())
                        .chain(exposure.values_mut())
                    {
                        e.locals.push(er);
                    }
                }
                EventKind::WaitReq { req } => {
                    if let Some((bucket, op)) = reqs.remove(req) {
                        let slot = match bucket {
                            Bucket::Passive(w, t) => passive.get_mut(&(w, t)),
                            Bucket::Access(w) => access.get_mut(&w),
                            Bucket::Fence(w) => fence.get_mut(&w),
                        };
                        if let Some(slot) = slot {
                            slot.op_close.insert(op, er);
                        }
                    }
                }
                EventKind::Fence { win } => {
                    if let Some(open) = fence.remove(&win.0) {
                        finish(&mut out, open, *win, Some(er));
                    }
                    fence.insert(win.0, OpenEpoch::new(EpochKind::Fence, Some(er)));
                }
                EventKind::Lock { win, target, kind } => {
                    let abs = ctx.target_abs(*win, *target);
                    passive.insert(
                        (win.0, abs.0),
                        OpenEpoch::new(EpochKind::Lock { target: abs, lock: *kind }, Some(er)),
                    );
                }
                EventKind::Unlock { win, target } => {
                    let abs = ctx.target_abs(*win, *target);
                    if let Some(open) = passive.remove(&(win.0, abs.0)) {
                        finish(&mut out, open, *win, Some(er));
                    }
                }
                EventKind::LockAll { win } => {
                    lock_all_open.insert(win.0, er);
                }
                EventKind::UnlockAll { win } => {
                    lock_all_open.remove(&win.0);
                    let keys: Vec<_> =
                        passive.keys().filter(|(w, _)| *w == win.0).copied().collect();
                    for key in keys {
                        if let Some(open) = passive.remove(&key) {
                            finish(&mut out, open, *win, Some(er));
                        }
                    }
                }
                EventKind::Flush { win, target } => {
                    // A flush ends the current sub-epoch towards that
                    // target and opens a fresh one of the same kind.
                    let abs = ctx.target_abs(*win, *target);
                    if let Some(open) = passive.remove(&(win.0, abs.0)) {
                        let kind = open.kind;
                        finish(&mut out, open, *win, Some(er));
                        passive.insert((win.0, abs.0), OpenEpoch::new(kind, Some(er)));
                    }
                }
                EventKind::FlushAll { win } => {
                    let keys: Vec<_> =
                        passive.keys().filter(|(w, _)| *w == win.0).copied().collect();
                    for key in keys {
                        if let Some(open) = passive.remove(&key) {
                            let kind = open.kind;
                            finish(&mut out, open, *win, Some(er));
                            passive.insert(key, OpenEpoch::new(kind, Some(er)));
                        }
                    }
                }
                EventKind::Start { win, .. } => {
                    access.insert(win.0, OpenEpoch::new(EpochKind::Access, Some(er)));
                }
                EventKind::Complete { win } => {
                    if let Some(open) = access.remove(&win.0) {
                        finish(&mut out, open, *win, Some(er));
                    }
                }
                EventKind::Post { win, .. } => {
                    exposure.insert(win.0, OpenEpoch::new(EpochKind::Exposure, Some(er)));
                }
                EventKind::WaitWin { win } => {
                    if let Some(open) = exposure.remove(&win.0) {
                        finish(&mut out, open, *win, Some(er));
                    }
                }
                _ => {}
            }
        }
        // Unclosed epochs at end of trace. The open-epoch tables are hash
        // maps, so drain them into a vector and order by first-op event
        // index (unique per rank) — the flush order, and with it every
        // epoch ordinal, must not depend on hasher state.
        let mut unclosed: Vec<(u32, OpenEpoch)> = fence
            .into_iter()
            .chain(passive.into_iter().map(|((w, _), e)| (w, e)))
            .chain(access)
            .chain(exposure)
            .collect();
        unclosed.sort_by_key(|(_, e)| e.ops.first().map_or(usize::MAX, |op| op.idx));
        for (w, open) in unclosed {
            finish(&mut out, open, WinId(w), None);
        }
    }
    // Per-rank ordinals: epochs are discovered rank by rank, so a single
    // counter pass assigns each epoch its position within its rank.
    let mut next = vec![0u32; trace.nprocs()];
    out.ordinals = out
        .epochs
        .iter()
        .map(|e| {
            let c = &mut next[e.rank.idx()];
            let o = *c;
            *c += 1;
            o
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use mcc_types::{CommId, DatatypeId, EventKind, RmaKind, RmaOp, TraceBuilder};

    fn put(target: u32) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 64,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: 0,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    fn with_win(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
        }
    }

    #[test]
    fn fence_epoch_collects_ops_and_locals() {
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let op = b.push(Rank(0), put(1));
        let st = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert_eq!(eps.epochs.len(), 1);
        let e = &eps.epochs[0];
        assert_eq!(e.kind, EpochKind::Fence);
        assert_eq!(e.ops, vec![op]);
        assert_eq!(e.locals, vec![st]);
        assert!(e.open.is_some());
        assert!(e.close.is_some());
        assert_eq!(eps.epoch_of(op).unwrap().win, WinId(0));
    }

    #[test]
    fn lock_epoch_attribution() {
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Exclusive },
        );
        let op = b.push(Rank(0), put(1));
        b.push(Rank(0), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert_eq!(eps.epochs.len(), 1);
        match eps.epochs[0].kind {
            EpochKind::Lock { target, lock } => {
                assert_eq!(target, Rank(1));
                assert_eq!(lock, LockKind::Exclusive);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(eps.epochs[0].ops, vec![op]);
    }

    #[test]
    fn ops_before_first_fence_form_ambient_epoch() {
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        let op = b.push(Rank(0), put(1));
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert_eq!(eps.epochs.len(), 1);
        assert!(eps.epochs[0].open.is_none());
        assert!(eps.epochs[0].close.is_none(), "never closed");
        assert_eq!(eps.epochs[0].ops, vec![op]);
    }

    #[test]
    fn empty_epochs_dropped() {
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        for _ in 0..3 {
            for r in 0..2u32 {
                b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            }
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert!(eps.epochs.is_empty(), "fences without ops make no epochs");
    }

    #[test]
    fn pscw_access_epoch() {
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::GroupIncl {
                old: mcc_types::GroupId::WORLD,
                new: mcc_types::GroupId(3),
                ranks: vec![1],
            },
        );
        b.push(Rank(0), EventKind::Start { win: WinId(0), group: mcc_types::GroupId(3) });
        let op = b.push(Rank(0), put(1));
        b.push(Rank(0), EventKind::Complete { win: WinId(0) });
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert_eq!(eps.epochs.len(), 1);
        assert_eq!(eps.epochs[0].kind, EpochKind::Access);
        assert_eq!(eps.epochs[0].ops, vec![op]);
    }

    #[test]
    fn lock_epoch_shields_fence_epoch() {
        // An op issued while a lock is held goes to the lock epoch even if
        // a fence epoch is also open.
        let mut b = TraceBuilder::new(2);
        with_win(&mut b, 2);
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Shared });
        let op = b.push(Rank(0), put(1));
        b.push(Rank(0), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let eps = extract(&t, &ctx);
        assert_eq!(eps.epochs.len(), 1, "only the lock epoch has ops");
        assert!(matches!(eps.epochs[0].kind, EpochKind::Lock { .. }));
        assert_eq!(eps.epochs[0].ops, vec![op]);
    }
}
