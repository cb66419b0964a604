//! Failure-aware analysis: quarantine and the failure-specific conflict
//! rules.
//!
//! When a rank dies survivably in the simulator (`Fault::RankFailure`),
//! every survivor logs a [`EventKind::RankFailed`] notification at the
//! first synchronization that completed around the corpse. This module is
//! the checker side of that contract:
//!
//! 1. **Quarantine.** Events the failed rank logged after its *recovery
//!    line* — the last synchronization call it completed (world
//!    collective, epoch close, or window re-exposure) — are quarantined:
//!    kept in the trace, but excluded from the ordinary conflict rules,
//!    because their memory effects may never have been delivered. The
//!    recovery line coincides with the last region boundary the streaming
//!    checker could have flushed, so batch and streaming analyses
//!    quarantine the same events and stay byte-comparable.
//! 2. **Ghost synchronization.** The simulator lets collectives complete
//!    *around* a corpse, so the survivors keep logging fences the failed
//!    rank never joins. The matcher only closes a collective when every
//!    communicator member arrives, which would leave every post-failure
//!    epoch boundary unmatched — the whole post-failure suffix would
//!    collapse into one concurrent region and drown the survivors in
//!    false conflicts. [`synthesize_ghost_sync`] therefore appends the
//!    failed rank's *ghost participation* in each collective the
//!    survivors completed around it: the synthesized epoch closure the
//!    failure semantics promise, attributed to the failure (the ghosts
//!    are bookkeeping, never evidence).
//! 3. **Failure-specific rules.** A quarantined window *update* is a
//!    logged write that may never have landed. If the window was later
//!    re-exposed (fresh generation over the same memory), the update can
//!    never land at all — [`ConflictKind::LostUpdateAcrossReexposure`].
//!    Otherwise, any survivor that reads the update's target bytes after
//!    observing the failure — a `Get`, or the memory owner's own load —
//!    without an intervening restore or re-exposure of that window reads
//!    data the log says was overwritten: [`ConflictKind::StaleReadFromFailedRank`].
//!
//! Both rules are evaluated by a deterministic scan in (rank, index)
//! order, so the resulting findings are scheduling-independent like every
//! other part of the pipeline.

use crate::degrade::DegradedInfo;
use crate::preprocess::Ctx;
use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use mcc_types::{
    AccessCategory, CommId, ConflictKind, DataMap, Event, EventKind, EventRef, LocId, MemRegion,
    Rank, Trace, WinId,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// What the failure-aware pass established about a trace.
#[derive(Debug, Default)]
pub struct RecoveryAnalysis {
    /// Failed ranks with the epoch count they completed, from the
    /// survivors' notifications; sorted by rank.
    pub failed: Vec<(Rank, u64)>,
    /// Quarantined events (failed-rank events past the recovery line), in
    /// (rank, index) order.
    pub quarantined: Vec<EventRef>,
    /// Findings produced by the failure-specific rules.
    pub findings: Vec<ConsistencyError>,
}

/// Whether any survivor logged a failure notification — the trigger for
/// routing a trace through the failure-aware pipeline.
pub fn has_failure_markers(trace: &Trace) -> bool {
    trace
        .procs
        .iter()
        .any(|p| p.events.iter().any(|e| matches!(e.kind, EventKind::RankFailed { .. })))
}

/// Collects the failed ranks named by `RankFailed` notifications, with
/// the epoch count each completed before dying. Sorted by rank; the first
/// notification wins if survivors ever disagree (they cannot, in traces
/// produced by the simulator). A notice naming a rank outside the run is
/// skipped (the resolver refuses it).
pub fn failure_notices(trace: &Trace) -> Vec<(Rank, u64)> {
    let mut map: BTreeMap<u32, u64> = BTreeMap::new();
    for (_, event) in trace.iter_events() {
        if let EventKind::RankFailed { failed, epoch } = event.kind {
            if failed.idx() >= trace.nprocs() {
                continue;
            }
            map.entry(failed.0).or_insert(epoch);
        }
    }
    map.into_iter().map(|(r, e)| (Rank(r), e)).collect()
}

/// Normalized identity of one collective call, used to line up the
/// failed rank's collective history against the survivors'. Roots are
/// kept communicator-relative — every member logs the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollId {
    Barrier(CommId),
    Bcast(CommId, Rank),
    Reduce(CommId, Rank),
    Allreduce(CommId),
    WinCreate(WinId, CommId),
    Fence(WinId),
    WinFree(WinId),
}

impl CollId {
    fn of(kind: &EventKind) -> Option<CollId> {
        Some(match kind {
            EventKind::Barrier { comm } => CollId::Barrier(*comm),
            EventKind::Bcast { comm, root, .. } => CollId::Bcast(*comm, *root),
            EventKind::Reduce { comm, root, .. } => CollId::Reduce(*comm, *root),
            EventKind::Allreduce { comm, .. } => CollId::Allreduce(*comm),
            EventKind::WinCreate { win, comm, .. } => CollId::WinCreate(*win, *comm),
            EventKind::Fence { win } => CollId::Fence(*win),
            EventKind::WinFree { win } => CollId::WinFree(*win),
            _ => return None,
        })
    }

    /// The communicator the collective runs over (`None` for a fence or
    /// free of a window the preprocessor never saw created).
    fn comm(&self, ctx: &Ctx) -> Option<CommId> {
        match self {
            CollId::Barrier(c)
            | CollId::Bcast(c, _)
            | CollId::Reduce(c, _)
            | CollId::Allreduce(c)
            | CollId::WinCreate(_, c) => Some(*c),
            CollId::Fence(w) | CollId::WinFree(w) => ctx.wins.get(w).map(|m| m.comm),
        }
    }
}

/// Appends each failed rank's *ghost participation* in the collectives
/// the survivors completed around it, so post-failure epoch boundaries
/// match and partition regions exactly as they did while the rank was
/// alive.
///
/// For each failed rank the survivors' collective histories (restricted
/// to communicators the failed rank belongs to) must agree with each
/// other and extend the failed rank's own history; the common
/// continuation is appended to the failed rank's log as events at
/// [`LocId::UNKNOWN`]. Synthesis stops at the first window creation in
/// the continuation — a corpse cannot retroactively expose memory — and
/// bails entirely (appending nothing) if the histories do not line up.
///
/// `ctx` is the trace's tolerant resolution ([`crate::preprocess::resolve`]):
/// a collective over a communicator or window it does not hold is not
/// part of any history.
///
/// Returns `(rank, appended)` pairs in rank order. Callers must exclude
/// the appended tail from evidence: the ghosts exist so the matcher can
/// close the survivors' collectives, not because the rank did anything.
pub fn synthesize_ghost_sync(trace: &mut Trace, ctx: &Ctx) -> Vec<(Rank, usize)> {
    let notices = failure_notices(trace);
    if notices.is_empty() {
        return Vec::new();
    }
    let failed: HashSet<u32> = notices.iter().map(|&(f, _)| f.0).collect();

    // Compute every append before mutating: a failed rank's ghosts are
    // derived from survivor logs only, never from another corpse's.
    let mut appends: Vec<(Rank, Vec<EventKind>)> = Vec::new();
    for &(f, _) in &notices {
        // The collective history of `r`, restricted to collectives that
        // include `f` as a member.
        let history = |r: usize| -> Vec<(CollId, &EventKind)> {
            trace.procs[r]
                .events
                .iter()
                .filter_map(|e| {
                    let id = CollId::of(&e.kind)?;
                    let comm = id.comm(ctx)?;
                    ctx.comm_members(comm).contains(&f).then_some((id, &e.kind))
                })
                .collect()
        };
        let own: Vec<CollId> = history(f.idx()).into_iter().map(|(id, _)| id).collect();

        // The survivors' common continuation beyond the corpse's history.
        let mut ghost: Option<Vec<(CollId, EventKind)>> = None;
        let mut aligned = true;
        for s in 0..trace.nprocs() {
            if s == f.idx() || failed.contains(&(s as u32)) {
                continue;
            }
            let sseq = history(s);
            if sseq.len() < own.len() || !sseq[..own.len()].iter().map(|(id, _)| id).eq(own.iter())
            {
                aligned = false;
                break;
            }
            let tail: Vec<(CollId, EventKind)> =
                sseq[own.len()..].iter().map(|(id, k)| (*id, (*k).clone())).collect();
            match &mut ghost {
                None => ghost = Some(tail),
                Some(g) => {
                    let common = g.iter().zip(&tail).take_while(|(a, b)| a.0 == b.0).count();
                    g.truncate(common);
                }
            }
        }
        let Some(mut ghost) = ghost else { continue };
        if !aligned {
            continue;
        }
        if let Some(p) = ghost.iter().position(|(id, _)| matches!(id, CollId::WinCreate(..))) {
            ghost.truncate(p);
        }
        if !ghost.is_empty() {
            appends.push((f, ghost.into_iter().map(|(_, k)| k).collect()));
        }
    }

    let mut out = Vec::new();
    for (f, kinds) in appends {
        out.push((f, kinds.len()));
        for kind in kinds {
            trace.procs[f.idx()].events.push(Event::new(kind, LocId::UNKNOWN));
        }
    }
    out
}

/// Whether an event is a *recovery line*: a synchronization the rank
/// completed, such that everything before it is known delivered (or
/// separated into an earlier concurrent region) and everything after it
/// is in flight when the rank dies. World collectives are included so the
/// quarantine boundary never falls inside a region the streaming checker
/// already flushed.
fn is_recovery_line(ctx: &Ctx, kind: &EventKind) -> bool {
    let world_win =
        |win: &WinId| ctx.wins.get(win).is_some_and(|meta| ctx.is_world_comm(meta.comm));
    match kind {
        EventKind::Barrier { comm }
        | EventKind::Bcast { comm, .. }
        | EventKind::Reduce { comm, .. }
        | EventKind::Allreduce { comm, .. } => ctx.is_world_comm(*comm),
        EventKind::WinCreate { comm, .. } => ctx.is_world_comm(*comm),
        EventKind::Fence { win } | EventKind::WinFree { win } => world_win(win),
        EventKind::Unlock { .. }
        | EventKind::UnlockAll { .. }
        | EventKind::Complete { .. }
        | EventKind::WaitWin { .. }
        | EventKind::WinReexpose { .. } => true,
        _ => false,
    }
}

/// A quarantined window update: a write the failed rank logged whose
/// memory effect may never have been delivered.
struct QuarantinedWrite {
    ev: EventRef,
    win: WinId,
    /// Absolute rank owning the written memory.
    owner: Rank,
    /// Footprint in the owner's address space.
    map: DataMap,
}

/// Runs the failure-aware pass over a (sanitized) trace and its resolved
/// context. `info` is the sanitizer's record, used to skip the synthetic
/// closes it appended — those are attributed to the failure, not treated
/// as real recovery lines.
pub fn analyze(trace: &Trace, info: &DegradedInfo, ctx: &Ctx) -> RecoveryAnalysis {
    let failed = failure_notices(trace);
    if failed.is_empty() {
        return RecoveryAnalysis::default();
    }
    let mut synth: HashMap<u32, usize> = HashMap::new();
    for (rank, _) in &info.synthesized {
        *synth.entry(rank.0).or_insert(0) += 1;
    }

    // Quarantine: per failed rank, everything after the last real
    // recovery line (synthetic closes at the tail are skipped).
    let mut quarantined: Vec<EventRef> = Vec::new();
    for &(f, _) in &failed {
        let events = &trace.procs[f.idx()].events;
        let real_len = events.len() - synth.get(&f.0).copied().unwrap_or(0);
        let line = events[..real_len].iter().rposition(|e| is_recovery_line(ctx, &e.kind));
        let start = line.map_or(0, |i| i + 1);
        quarantined.extend((start..real_len).map(|idx| EventRef::new(f, idx)));
    }

    // Observation points: the first RankFailed{f} in each survivor's log.
    let mut marker: HashMap<(u32, u32), usize> = HashMap::new();
    // First re-exposure of each window, in (rank, index) order.
    let mut reexposed: HashMap<u32, EventRef> = HashMap::new();
    // Recovery actions (Restore / WinReexpose) per (rank, win), ascending.
    let mut restores: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (r, proc) in trace.procs.iter().enumerate() {
        for (idx, event) in proc.events.iter().enumerate() {
            match event.kind {
                EventKind::RankFailed { failed: f, .. } => {
                    marker.entry((r as u32, f.0)).or_insert(idx);
                }
                EventKind::WinReexpose { win, .. } => {
                    reexposed.entry(win.0).or_insert(EventRef::new(Rank(r as u32), idx));
                    restores.entry((r as u32, win.0)).or_default().push(idx);
                }
                EventKind::Restore { win, .. } => {
                    restores.entry((r as u32, win.0)).or_default().push(idx);
                }
                _ => {}
            }
        }
    }

    // Quarantined window updates.
    let quarantine_set: HashSet<EventRef> = quarantined.iter().copied().collect();
    let mut writes: Vec<QuarantinedWrite> = Vec::new();
    for &q in &quarantined {
        let kind = &trace.procs[q.rank.idx()].events[q.idx].kind;
        if let Some(acc) = ctx.resolve_rma_event(q.rank, kind) {
            if acc.class.category.is_window_update() {
                writes.push(QuarantinedWrite {
                    ev: q,
                    win: acc.win,
                    owner: acc.target_abs,
                    map: acc.target_map,
                });
            }
        } else if let EventKind::Store { addr, len } = *kind {
            // A local store into the failed rank's own exposed window
            // memory is a window update too (Table I's store class).
            let region = MemRegion::new(addr, len);
            for (win, wr) in ctx.wins_of_rank(q.rank) {
                if wr.overlaps(region) {
                    writes.push(QuarantinedWrite {
                        ev: q,
                        win,
                        owner: q.rank,
                        map: DataMap::contiguous(len).shifted(addr),
                    });
                }
            }
        }
    }

    // The failure-specific rules, in deterministic write order.
    let mut findings = Vec::new();
    for w in &writes {
        let region = w.map.bounding_region_at(0);
        if let Some(&rex) = reexposed.get(&w.win.0) {
            let a = OpInfo::from_trace(trace, w.ev, Some(region));
            let b = OpInfo::from_trace(trace, rex, None);
            findings.push(ConsistencyError {
                severity: Severity::Error,
                scope: ErrorScope::CrossProcess { win: w.win, target: w.owner },
                explanation: format!(
                    "{} was still in flight when {} failed, and {} was re-exposed \
                     afterwards: the update can never land in the fresh generation",
                    a.op, w.ev.rank, w.win
                ),
                a,
                b,
                kind: ConflictKind::LostUpdateAcrossReexposure,
                confidence: Confidence::Recovered,
            });
            continue;
        }
        // Not re-exposed: look for survivors reading the stale bytes
        // after observing the failure. A restore of the window by its
        // owner clears the hazard.
        let owner_restored_after = |upto: Option<usize>| {
            let Some(&m) = marker.get(&(w.owner.0, w.ev.rank.0)) else { return false };
            restores
                .get(&(w.owner.0, w.win.0))
                .is_some_and(|v| v.iter().any(|&i| i > m && upto.is_none_or(|u| i < u)))
        };
        for (s, proc) in trace.procs.iter().enumerate() {
            let s = s as u32;
            if s == w.ev.rank.0 {
                continue;
            }
            let Some(&m) = marker.get(&(s, w.ev.rank.0)) else { continue };
            for (idx, event) in proc.events.iter().enumerate().skip(m + 1) {
                let ev = EventRef::new(Rank(s), idx);
                if quarantine_set.contains(&ev) {
                    continue;
                }
                let (read_region, hazard) = match &event.kind {
                    EventKind::Load { addr, len } if s == w.owner.0 => {
                        let r = MemRegion::new(*addr, *len);
                        let stale =
                            w.map.overlaps_region_at(0, r) && !owner_restored_after(Some(idx));
                        (r, stale)
                    }
                    kind => match ctx.resolve_rma_event(Rank(s), kind) {
                        Some(acc)
                            if acc.class.category == AccessCategory::Get
                                && acc.win == w.win
                                && acc.target_abs == w.owner =>
                        {
                            let stale = acc.target_map.overlaps_at(0, &w.map, 0)
                                && !owner_restored_after(None);
                            (acc.target_map.bounding_region_at(0), stale)
                        }
                        _ => continue,
                    },
                };
                if !hazard {
                    continue;
                }
                let a = OpInfo::from_trace(trace, w.ev, Some(w.map.bounding_region_at(0)));
                let b = OpInfo::from_trace(trace, ev, Some(read_region));
                findings.push(ConsistencyError {
                    severity: Severity::Error,
                    scope: ErrorScope::CrossProcess { win: w.win, target: w.owner },
                    explanation: format!(
                        "{} reads window memory whose last logged writer ({}) failed \
                         before completing its epoch; the logged update may never \
                         have been delivered",
                        b.op, w.ev.rank
                    ),
                    a,
                    b,
                    kind: ConflictKind::StaleReadFromFailedRank,
                    confidence: Confidence::Recovered,
                });
            }
        }
    }

    RecoveryAnalysis { failed, quarantined, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{CommId, DatatypeId, RmaKind, RmaOp, TraceBuilder};

    /// The passes, over the trace's own resolution.
    fn analyze(t: &Trace, info: &DegradedInfo) -> RecoveryAnalysis {
        super::analyze(t, info, &crate::preprocess::resolve(t).0)
    }

    fn synthesize_ghost_sync(t: &mut Trace) -> Vec<(Rank, usize)> {
        let ctx = crate::preprocess::resolve(t).0;
        super::synthesize_ghost_sync(t, &ctx)
    }

    fn put(target: u32, disp: u64) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 0x200,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    fn get(target: u32, disp: u64) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Get,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 0x300,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    /// Rank 1 dies with a put in flight; rank 0 observes the failure and
    /// gets the bytes the put targeted.
    fn failure_trace(reexpose: bool, restore: bool) -> Trace {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(1), put(0, 0)); // in flight at death
        b.push(Rank(0), EventKind::Fence { win: WinId(0) });
        b.push(Rank(0), EventKind::RankFailed { failed: Rank(1), epoch: 1 });
        if reexpose {
            b.push(Rank(0), EventKind::WinReexpose { win: WinId(0), generation: 1 });
        }
        if restore {
            b.push(Rank(0), EventKind::Restore { win: WinId(0), id: 0 });
        }
        b.push(Rank(0), EventKind::Load { addr: 0x40, len: 4 });
        b.build()
    }

    #[test]
    fn notices_and_quarantine() {
        let t = failure_trace(false, false);
        assert!(has_failure_markers(&t));
        assert_eq!(failure_notices(&t), vec![(Rank(1), 1)]);
        let rec = analyze(&t, &DegradedInfo::default());
        assert_eq!(rec.failed, vec![(Rank(1), 1)]);
        // Rank 1's put (index 2) is past its last fence? No — the fence at
        // index 1 is its recovery line, so index 2 is quarantined.
        assert_eq!(rec.quarantined, vec![EventRef::new(Rank(1), 2)]);
    }

    #[test]
    fn stale_read_detected() {
        let rec = analyze(&failure_trace(false, false), &DegradedInfo::default());
        assert_eq!(rec.findings.len(), 1, "{:?}", rec.findings);
        let f = &rec.findings[0];
        assert_eq!(f.kind, ConflictKind::StaleReadFromFailedRank);
        assert_eq!(f.a.rank, Rank(1));
        assert_eq!(f.b.rank, Rank(0));
        assert_eq!(f.confidence, Confidence::Recovered);
    }

    #[test]
    fn reexposure_turns_the_write_into_a_lost_update() {
        let rec = analyze(&failure_trace(true, false), &DegradedInfo::default());
        assert_eq!(rec.findings.len(), 1, "{:?}", rec.findings);
        assert_eq!(rec.findings[0].kind, ConflictKind::LostUpdateAcrossReexposure);
    }

    #[test]
    fn restore_clears_the_stale_read() {
        let rec = analyze(&failure_trace(false, true), &DegradedInfo::default());
        assert!(rec.findings.is_empty(), "{:?}", rec.findings);
    }

    #[test]
    fn get_after_failure_is_a_stale_read() {
        // 3 ranks: rank 2 dies with a put to rank 0 in flight; rank 1
        // gets the same bytes after observing the failure.
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(2), put(0, 0));
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            b.push(Rank(r), EventKind::RankFailed { failed: Rank(2), epoch: 1 });
        }
        b.push(Rank(1), get(0, 0));
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let rec = analyze(&b.build(), &DegradedInfo::default());
        assert_eq!(rec.findings.len(), 1, "{:?}", rec.findings);
        let f = &rec.findings[0];
        assert_eq!(f.kind, ConflictKind::StaleReadFromFailedRank);
        assert_eq!(f.b.rank, Rank(1));
        assert_eq!(f.b.op, "MPI_Get");
    }

    #[test]
    fn disjoint_read_is_not_stale() {
        // The survivor reads a different displacement: no overlap, no
        // finding.
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(1), put(0, 0));
        b.push(Rank(0), EventKind::Fence { win: WinId(0) });
        b.push(Rank(0), EventKind::RankFailed { failed: Rank(1), epoch: 1 });
        b.push(Rank(0), EventKind::Load { addr: 0x50, len: 4 });
        let rec = analyze(&b.build(), &DegradedInfo::default());
        assert!(rec.findings.is_empty(), "{:?}", rec.findings);
    }

    #[test]
    fn clean_trace_yields_nothing() {
        let t = TraceBuilder::new(2).build();
        assert!(!has_failure_markers(&t));
        assert!(analyze(&t, &DegradedInfo::default()).findings.is_empty());
    }

    /// Three ranks, rank 2 dies; the survivors complete two more fences
    /// and a free around the corpse. Ghost synthesis appends exactly that
    /// continuation to rank 2's log, at the unknown location.
    #[test]
    fn ghost_sync_appends_the_survivor_continuation() {
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(2), put(0, 0)); // in flight at death
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            b.push(Rank(r), EventKind::RankFailed { failed: Rank(2), epoch: 1 });
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            b.push(Rank(r), EventKind::WinFree { win: WinId(0) });
        }
        let mut t = b.build();
        let before = t.procs[2].events.len();
        let ghosts = synthesize_ghost_sync(&mut t);
        assert_eq!(ghosts, vec![(Rank(2), 3)]);
        let tail: Vec<_> = t.procs[2].events[before..].iter().collect();
        assert!(matches!(tail[0].kind, EventKind::Fence { .. }));
        assert!(matches!(tail[1].kind, EventKind::Fence { .. }));
        assert!(matches!(tail[2].kind, EventKind::WinFree { .. }));
        assert!(tail.iter().all(|e| e.loc == mcc_types::LocId::UNKNOWN));
    }

    /// A window the survivors create after the death is not ghosted — a
    /// corpse cannot retroactively expose memory — and synthesis stops
    /// there.
    #[test]
    fn ghost_sync_stops_at_a_post_failure_win_create() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), EventKind::Fence { win: WinId(0) });
        b.push(Rank(0), EventKind::RankFailed { failed: Rank(1), epoch: 1 });
        b.push(
            Rank(0),
            EventKind::WinCreate { win: WinId(1), base: 0x80, len: 0x10, comm: CommId::WORLD },
        );
        b.push(Rank(0), EventKind::Fence { win: WinId(1) });
        let mut t = b.build();
        let ghosts = synthesize_ghost_sync(&mut t);
        // Only the fence the survivor completed on the *old* window is
        // ghosted; the new window and its fence are not.
        assert_eq!(ghosts, vec![(Rank(1), 1)]);
        assert!(matches!(
            t.procs[1].events.last().map(|e| &e.kind),
            Some(EventKind::Fence { win: WinId(0) })
        ));
    }

    /// A clean trace gets no ghosts.
    #[test]
    fn ghost_sync_is_a_no_op_without_failures() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Barrier { comm: CommId::WORLD });
        }
        let mut t = b.build();
        assert!(synthesize_ghost_sync(&mut t).is_empty());
        assert_eq!(t.procs[0].events.len(), 1);
        assert_eq!(t.procs[1].events.len(), 1);
    }
}
