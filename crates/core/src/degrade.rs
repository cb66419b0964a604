//! Degraded-mode analysis: salvaging a damaged trace before checking.
//!
//! The analysis pipeline assumes a complete, internally consistent trace:
//! every referenced communicator, group, window and datatype was defined
//! by an earlier support event, every collective is balanced, and every
//! epoch that was opened is eventually closed. A trace recovered from a
//! crashed or fault-injected run (see `mcc-profiler`'s tolerant reader)
//! breaks all of those assumptions — a rank's log may simply stop
//! mid-epoch, and a torn tail can remove the `MPI_Win_create` that a
//! surviving rank's operations depend on.
//!
//! [`sanitize`] makes such a trace checkable instead of fatal:
//!
//! 1. **Drop** every event the resolver refuses
//!    ([`crate::preprocess::resolve`]) — operations on windows whose
//!    collective creation is incomplete, RMA with out-of-range targets,
//!    undefined datatypes or footprints outside the target's window, and
//!    support events whose own definitions reference unknown handles.
//! 2. **Synthesize closure** for epochs left open at a rank's truncation
//!    point: a closing fence, unlock, complete or wait is appended (with
//!    an unknown source location) so the surviving operations still land
//!    in a finished epoch and reach the detectors.
//! 3. **Break happens-before cycles**: matched synchronization that waits
//!    on itself (a run would deadlock) loses the event that closes the
//!    cycle — every cycle of the graph in one round, one event per
//!    strongly connected component — and the trace is repaired again.
//!
//! Everything removed or invented is recorded in [`DegradedInfo`]; any
//! non-empty record downgrades the report's confidence (see
//! [`crate::report::Confidence`]).

use crate::preprocess::{self, Ctx, TraceError};
use crate::vc::Clocks;
use crate::{dag, matching};
use mcc_obs::RecorderHandle;
use mcc_types::{Event, EventKind, EventRef, LocId, Rank, Trace, WinId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// What [`sanitize`] had to do to make a trace checkable.
#[derive(Debug, Default, Clone)]
pub struct DegradedInfo {
    /// Events removed, in (rank, index in the original log) order.
    pub dropped: Vec<TraceError>,
    /// Synthetic closing events appended, as `(rank, description)`.
    pub synthesized: Vec<(Rank, String)>,
}

impl DegradedInfo {
    /// Whether the trace needed no intervention at all.
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.synthesized.is_empty()
    }

    /// One-line summary for reports and the CLI.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "trace required no repair".to_string()
        } else {
            format!(
                "degraded: {} event(s) dropped, {} synthetic close(s) appended",
                self.dropped.len(),
                self.synthesized.len()
            )
        }
    }
}

impl fmt::Display for DegradedInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for e in &self.dropped {
            writeln!(f, "  dropped {e}")?;
        }
        for (rank, what) in &self.synthesized {
            writeln!(f, "  appended at {rank}: {what}")?;
        }
        Ok(())
    }
}

/// Passive-target sub-epoch state during closure synthesis.
struct PassiveOpen {
    /// Relative target of the original `Lock`; `None` for a lock_all
    /// sub-epoch (closed by a single `UnlockAll` instead).
    lock_target_rel: Option<Rank>,
    has_ops: bool,
}

/// Replay the epoch-extraction state machine over one rank's kept
/// events and append synthetic closes for whatever is still open.
fn synthesize_closure(rank: Rank, events: &mut Vec<Event>, ctx: &Ctx, info: &mut DegradedInfo) {
    let mut fence_pending: HashMap<u32, bool> = HashMap::new();
    let mut passive: HashMap<(u32, u32), PassiveOpen> = HashMap::new();
    let mut lock_all_open: HashSet<u32> = HashSet::new();
    let mut access_open: HashMap<u32, bool> = HashMap::new();
    let mut exposure_open: BTreeSet<u32> = BTreeSet::new();
    // Kept events resolved, so the lookups succeed.
    let abs = |win: &WinId, rel: Rank| -> u32 { ctx.target_abs(*win, rel).0 };

    for event in events.iter() {
        let op = match &event.kind {
            EventKind::Rma(op) | EventKind::RmaReq { op, .. } => Some((op.win, op.target)),
            EventKind::RmaAtomic(op) => Some((op.win, op.target)),
            _ => None,
        };
        // An op is attributed as the epoch extractor attributes it:
        // passive sub-epoch first, then a lazily-opened lock_all
        // sub-epoch, then the access epoch, then the ambient fence epoch.
        if let Some((win, rel)) = op {
            let key = (win.0, abs(&win, rel));
            if let Some(p) = passive.get_mut(&key) {
                p.has_ops = true;
            } else if lock_all_open.contains(&win.0) {
                passive.insert(key, PassiveOpen { lock_target_rel: None, has_ops: true });
            } else if let Some(ops) = access_open.get_mut(&win.0) {
                *ops = true;
            } else {
                fence_pending.insert(win.0, true);
            }
            continue;
        }
        match &event.kind {
            EventKind::Fence { win } => {
                fence_pending.insert(win.0, false);
            }
            EventKind::Lock { win, target, .. } => {
                passive.insert(
                    (win.0, abs(win, *target)),
                    PassiveOpen { lock_target_rel: Some(*target), has_ops: false },
                );
            }
            EventKind::Unlock { win, target } => {
                passive.remove(&(win.0, abs(win, *target)));
            }
            EventKind::LockAll { win } => {
                lock_all_open.insert(win.0);
            }
            EventKind::UnlockAll { win } => {
                lock_all_open.remove(&win.0);
                passive.retain(|(w, _), _| *w != win.0);
            }
            EventKind::Flush { win, target } => {
                if let Some(p) = passive.get_mut(&(win.0, abs(win, *target))) {
                    p.has_ops = false;
                }
            }
            EventKind::FlushAll { win } => {
                for ((w, _), p) in passive.iter_mut() {
                    if *w == win.0 {
                        p.has_ops = false;
                    }
                }
            }
            EventKind::Start { win, .. } => {
                access_open.insert(win.0, false);
            }
            EventKind::Complete { win } => {
                access_open.remove(&win.0);
            }
            EventKind::Post { win, .. } => {
                exposure_open.insert(win.0);
            }
            EventKind::WaitWin { win } => {
                exposure_open.remove(&win.0);
            }
            _ => {}
        }
    }

    // Deterministic order: per category, ascending window id. Collectives
    // (fences) go last so passive/active epochs are closed first.
    let open = passive.iter().filter(|(_, p)| p.has_ops);
    let unlocks: BTreeSet<(u32, u32)> =
        open.clone().filter_map(|(&(w, _), p)| Some((w, p.lock_target_rel?.0))).collect();
    let unlock_alls: BTreeSet<u32> =
        open.filter(|(_, p)| p.lock_target_rel.is_none()).map(|(&(w, _), _)| w).collect();
    let pending = |m: &HashMap<u32, bool>| -> BTreeSet<u32> {
        m.iter().filter(|&(_, &ops)| ops).map(|(&w, _)| w).collect()
    };
    let closes = (unlocks.into_iter())
        .map(|(w, t)| EventKind::Unlock { win: WinId(w), target: Rank(t) })
        .chain(unlock_alls.into_iter().map(|w| EventKind::UnlockAll { win: WinId(w) }))
        .chain(pending(&access_open).into_iter().map(|w| EventKind::Complete { win: WinId(w) }))
        .chain(exposure_open.into_iter().map(|w| EventKind::WaitWin { win: WinId(w) }))
        .chain(pending(&fence_pending).into_iter().map(|w| EventKind::Fence { win: WinId(w) }));
    for kind in closes {
        info.synthesized.push((rank, format!("synthetic {} for an open epoch", kind.call_name())));
        events.push(Event::new(kind, LocId::UNKNOWN));
    }
}

/// Repairs a damaged trace into one the full pipeline can analyze.
///
/// Returns the repaired trace plus a record of everything dropped or
/// synthesized. The result resolves cleanly and its happens-before graph
/// is acyclic, whatever the input — this is the checker-side counterpart
/// of the profiler's tolerant reader.
pub fn sanitize(trace: &Trace) -> (Trace, DegradedInfo) {
    let ((), repaired, info) = repair(trace, &RecorderHandle::disabled(), |out, ctx, _| {
        let dag = dag::build(out, &ctx, &matching::match_sync(out, &ctx));
        Clocks::try_compute(&dag).map(drop)
    });
    (repaired, info)
}

/// Rounds in which [`repair`] breaks each happens-before cycle at one
/// event. After them a cycle loses every logged event on it, so a trace
/// built to need one round per event cannot hold the repair.
const PRECISE_CYCLE_ROUNDS: usize = 4;

/// [`sanitize`], with the analysis of the result run inside: `analyze`
/// gets the repaired trace, its context and the time spent resolving
/// (each resolution inside a `check.preprocess` span of `obs`). It may
/// only fail on happens-before cycles; each loses an event and the
/// repair runs again. The tolerant analyses use this to build the DAG
/// once.
pub(crate) fn repair<T>(
    trace: &Trace,
    obs: &RecorderHandle,
    mut analyze: impl FnMut(&Trace, Ctx, Duration) -> Result<T, Vec<Vec<EventRef>>>,
) -> (T, Trace, DegradedInfo) {
    let mut dropped: Vec<TraceError> = Vec::new();
    let mut resolve_time = Duration::ZERO;
    let mut cycle_rounds = 0;
    loop {
        // The trace without the dropped events; `kept[r][i]` is the
        // original index of the repaired trace's event `i` at rank `r`.
        let mut out = Trace::new(trace.nprocs());
        let mut kept: Vec<Vec<usize>> = vec![Vec::new(); trace.nprocs()];
        let mut next_drop = dropped.iter().peekable();
        for (r, proc) in trace.procs.iter().enumerate() {
            out.procs[r].locs = proc.locs.clone();
            for (idx, event) in proc.events.iter().enumerate() {
                if next_drop.next_if(|e| (e.rank.idx(), e.idx) == (r, idx)).is_none() {
                    out.procs[r].events.push(event.clone());
                    kept[r].push(idx);
                }
            }
        }
        let t0 = Instant::now();
        let (ctx, errors) = {
            let _s = obs.span("check.preprocess");
            preprocess::resolve(&out)
        };
        resolve_time += t0.elapsed();
        if !errors.is_empty() {
            // `out` holds no synthesized event yet, so every error maps
            // back to a logged one.
            for mut e in errors {
                e.idx = kept[e.rank.idx()][e.idx];
                dropped.push(e);
            }
            dropped.sort_by_key(|e| (e.rank, e.idx));
            continue;
        }
        let mut info = DegradedInfo { dropped: dropped.clone(), synthesized: Vec::new() };
        for (r, proc) in out.procs.iter_mut().enumerate() {
            synthesize_closure(Rank(r as u32), &mut proc.events, &ctx, &mut info);
        }
        let cycles = match analyze(&out, ctx, resolve_time) {
            Ok(t) => return (t, out, info),
            Err(cycles) => cycles,
        };
        // `out` resolves, so the analysis failed on cycles, one per
        // strongly connected component. Break every one of them this
        // round; synthesized closes alone never form a cycle, so each
        // has a logged event and the loop ends.
        cycle_rounds += 1;
        let logged =
            |e: &EventRef| kept[e.rank.idx()].get(e.idx).map(|&i| EventRef::new(e.rank, i));
        for mut path in cycles {
            // Drop one logged event, preferring the receiving end of a
            // cross-rank edge; after the precise rounds, every one.
            let k = path.len();
            let crossing = (0..k).filter(|&i| path[(i + k - 1) % k].rank != path[i].rank);
            let at = crossing.chain(0..k).find(|&i| logged(&path[i]).is_some());
            path.rotate_left(at.expect("every happens-before cycle passes a logged event"));
            for er in path.iter().skip(1).filter(|_| cycle_rounds > PRECISE_CYCLE_ROUNDS) {
                let kind = &out.event(*er).kind;
                let what = format!(
                    "{} lies on a happens-before cycle (a run would deadlock)",
                    kind.call_name()
                );
                dropped.extend(logged(er).map(|at| TraceError::at(at, kind, what)));
            }
            let call = out.event(path[0]).kind.call_name();
            dropped.push(TraceError::cycle(
                path.iter().map(|e| logged(e).unwrap_or(*e)).collect(),
                call,
            ));
        }
        dropped.sort_by_key(|e| (e.rank, e.idx));
        dropped.dedup_by_key(|e| (e.rank, e.idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{CommId, DatatypeId, GroupId, RmaKind, RmaOp, Tag, TraceBuilder};

    fn put(win: u32, target: u32, origin_addr: u64) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(win),
            target: Rank(target),
            origin_addr,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: 0,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    fn win_create(b: &mut TraceBuilder, rank: u32, win: u32) {
        b.push(
            Rank(rank),
            EventKind::WinCreate { win: WinId(win), base: 64, len: 64, comm: CommId::WORLD },
        );
    }

    #[test]
    fn clean_trace_is_untouched() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), put(0, 1, 200));
        for r in 0..2 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let trace = b.build();
        let (out, info) = sanitize(&trace);
        assert!(info.is_clean(), "{info}");
        assert_eq!(out, trace);
        assert!(info.summary().contains("no repair"));
    }

    #[test]
    fn truncated_rank_gets_synthetic_fence() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), put(0, 1, 200));
        // Only rank 1 logged the closing fence; rank 0's log was torn.
        b.push(Rank(1), EventKind::Fence { win: WinId(0) });
        let (out, info) = sanitize(&b.build());
        assert!(!info.is_clean());
        assert!(info.dropped.is_empty());
        assert_eq!(info.synthesized.len(), 1);
        assert_eq!(info.synthesized[0].0, Rank(0));
        let last = out.procs[0].events.last().unwrap();
        assert_eq!(last.kind, EventKind::Fence { win: WinId(0) });
        assert_eq!(last.loc, LocId::UNKNOWN);
    }

    #[test]
    fn incomplete_window_drops_every_reference() {
        // Rank 1 crashed before logging WinCreate: the window never
        // completed, so every operation on it must go.
        let mut b = TraceBuilder::new(2);
        win_create(&mut b, 0, 0);
        b.push(Rank(0), EventKind::Fence { win: WinId(0) });
        b.push(Rank(0), put(0, 1, 200));
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        let (out, info) = sanitize(&b.build());
        assert_eq!(out.procs[0].events.len(), 1); // only the store survives
        assert_eq!(info.dropped.len(), 3);
        assert!(info.synthesized.is_empty());
        assert!(info.dropped.iter().all(|e| e.rank == Rank(0)));
        assert!(info.dropped[0].what.contains("win0"));
    }

    #[test]
    fn out_of_range_rma_target_is_dropped() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), put(0, 7, 200)); // target 7 of a 2-rank comm
        for r in 0..2 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let (out, info) = sanitize(&b.build());
        assert_eq!(info.dropped.len(), 1);
        assert!(info.dropped[0].what.contains("out of range"));
        assert!(info.synthesized.is_empty());
        assert!(out.procs[0].events.iter().all(|e| !e.kind.is_rma_op()));
    }

    #[test]
    fn unknown_datatype_rma_is_dropped() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(
            Rank(0),
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(1),
                origin_addr: 200,
                origin_count: 1,
                origin_dtype: DatatypeId(77), // never defined
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            }),
        );
        for r in 0..2 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let (_, info) = sanitize(&b.build());
        assert_eq!(info.dropped.len(), 1);
        assert!(info.dropped[0].what.contains("unknown"));
    }

    #[test]
    fn invalid_definition_chain_is_dropped() {
        // GroupIncl on an unknown group fails; the Post that uses the
        // group it would have defined then fails too.
        let mut b = TraceBuilder::new(2);
        b.push(Rank(0), EventKind::GroupIncl { old: GroupId(9), new: GroupId(1), ranks: vec![0] });
        b.push(Rank(0), EventKind::Post { win: WinId(0), group: GroupId(1) });
        let (out, info) = sanitize(&b.build());
        assert!(out.procs[0].events.is_empty());
        assert_eq!(info.dropped.len(), 2);
        assert!(info.dropped[0].what.contains("unknown"));
    }

    #[test]
    fn open_lock_epoch_gets_synthetic_unlock() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
        }
        b.push(
            Rank(0),
            EventKind::Lock {
                win: WinId(0),
                target: Rank(1),
                kind: mcc_types::LockKind::Exclusive,
            },
        );
        b.push(Rank(0), put(0, 1, 200));
        // No unlock: rank 0 died holding the lock.
        let (out, info) = sanitize(&b.build());
        assert_eq!(info.synthesized.len(), 1);
        let last = out.procs[0].events.last().unwrap();
        assert_eq!(last.kind, EventKind::Unlock { win: WinId(0), target: Rank(1) });
    }

    #[test]
    fn open_pscw_epochs_get_synthetic_closes() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
        }
        b.push(Rank(1), EventKind::Post { win: WinId(0), group: GroupId::WORLD });
        b.push(Rank(0), EventKind::Start { win: WinId(0), group: GroupId::WORLD });
        b.push(Rank(0), put(0, 1, 200));
        let (out, info) = sanitize(&b.build());
        assert_eq!(info.synthesized.len(), 2);
        assert_eq!(out.procs[0].events.last().unwrap().kind, EventKind::Complete { win: WinId(0) });
        assert_eq!(out.procs[1].events.last().unwrap().kind, EventKind::WaitWin { win: WinId(0) });
    }

    #[test]
    fn open_lock_all_epoch_gets_synthetic_unlock_all() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2 {
            win_create(&mut b, r, 0);
        }
        b.push(Rank(0), EventKind::LockAll { win: WinId(0) });
        b.push(Rank(0), put(0, 1, 200));
        let (out, info) = sanitize(&b.build());
        assert_eq!(info.synthesized.len(), 1);
        assert_eq!(
            out.procs[0].events.last().unwrap().kind,
            EventKind::UnlockAll { win: WinId(0) }
        );
    }

    #[test]
    fn happens_before_cycle_loses_the_event_that_closes_it() {
        // Each rank receives from the other before sending: a run would
        // deadlock, and the matched messages order each receive after
        // the other rank's receive.
        let mut b = TraceBuilder::new(2);
        for (me, peer) in [(0, 1), (1, 0)] {
            b.push(
                Rank(me),
                EventKind::Recv { comm: CommId::WORLD, from: Rank(peer), tag: Tag(0), bytes: 4 },
            );
            b.push(
                Rank(me),
                EventKind::Send { comm: CommId::WORLD, to: Rank(peer), tag: Tag(0), bytes: 4 },
            );
        }
        let trace = b.build();
        let e = crate::AnalysisSession::new().try_run(&trace).unwrap_err();
        assert_eq!(e.call, "MPI_Recv");
        assert_eq!(e.cycle.len(), 4, "{e}");
        assert!(e.to_string().contains("closes a happens-before cycle"), "{e}");
        let (out, info) = sanitize(&trace);
        assert_eq!(info.dropped.len(), 1, "{info}");
        assert_eq!(info.dropped[0].call, "MPI_Recv");
        assert_eq!(out.total_events(), 3);
        assert!(crate::AnalysisSession::new().try_run(&out).is_ok());
    }

    /// Two ranks that each receive `pairs` messages, one per tag, before
    /// sending them: `interleaved` alternates receive and send, so each
    /// tag is its own cycle; otherwise every receive comes first and all
    /// the cycles share one component.
    fn crossed(pairs: u32, interleaved: bool) -> Trace {
        let mut b = TraceBuilder::new(2);
        for (me, peer) in [(0, 1), (1, 0)] {
            let (comm, from, to) = (CommId::WORLD, Rank(peer), Rank(peer));
            let recv = |t| EventKind::Recv { comm, from, tag: Tag(t), bytes: 4 };
            let send = |t| EventKind::Send { comm, to, tag: Tag(t), bytes: 4 };
            let order: Vec<EventKind> = if interleaved {
                (0..pairs).flat_map(|t| [recv(t), send(t)]).collect()
            } else {
                (0..pairs).map(recv).chain((0..pairs).map(send)).collect()
            };
            for kind in order {
                b.push(Rank(me), kind);
            }
        }
        b.build()
    }

    /// Repairs `trace`; returns how many times the analysis ran.
    fn repair_rounds(trace: &Trace) -> (usize, Trace, DegradedInfo) {
        let mut rounds = 0;
        let ((), out, info) = repair(trace, &RecorderHandle::disabled(), |t, ctx, _| {
            rounds += 1;
            Clocks::try_compute(&dag::build(t, &ctx, &matching::match_sync(t, &ctx))).map(drop)
        });
        (rounds, out, info)
    }

    #[test]
    fn independent_cycles_break_in_one_round() {
        let (rounds, out, info) = repair_rounds(&crossed(300, true));
        assert_eq!(rounds, 2, "{info}");
        assert_eq!(info.dropped.len(), 300);
        assert!(info.dropped.iter().all(|e| e.call == "MPI_Recv" && e.cycle.len() == 4));
        assert!(crate::AnalysisSession::new().try_run(&out).is_ok());
    }

    #[test]
    fn entangled_cycles_end_after_a_bounded_number_of_rounds() {
        // One round per receive without the fallback.
        let (rounds, out, info) = repair_rounds(&crossed(300, false));
        assert!(rounds <= PRECISE_CYCLE_ROUNDS + 2, "{rounds} rounds: {info}");
        assert!(crate::AnalysisSession::new().try_run(&out).is_ok());
    }

    #[test]
    fn sanitized_trace_survives_the_full_pipeline() {
        // The nastiest combination we can build by hand: missing
        // WinCreate, unknown comm, out-of-range peers, undefined
        // datatypes, and an unclosed epoch — then run the real checker.
        let mut b = TraceBuilder::new(3);
        win_create(&mut b, 0, 0);
        win_create(&mut b, 1, 0); // rank 2 never creates win 0
        for r in 0..3 {
            win_create(&mut b, r, 1);
            b.push(Rank(r), EventKind::Fence { win: WinId(1) });
        }
        b.push(Rank(0), put(0, 1, 200)); // incomplete window
        b.push(Rank(0), put(1, 9, 200)); // bad target
        b.push(Rank(1), EventKind::Send { comm: CommId(42), to: Rank(0), tag: Tag(0), bytes: 4 });
        b.push(Rank(1), EventKind::Bcast { comm: CommId::WORLD, root: Rank(8), bytes: 4 });
        b.push(Rank(2), put(1, 0, 100)); // fine, but its epoch never closes
        let (out, info) = sanitize(&b.build());
        assert!(!info.is_clean());
        let report = crate::session::AnalysisSession::new().run(&out);
        assert!(report.stats.total_events > 0);
    }
}
