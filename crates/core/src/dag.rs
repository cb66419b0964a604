//! The data-access DAG (paper §III-B).
//!
//! Every event becomes a vertex; synchronizing events that order *other*
//! ranks (matched collectives) are split into an **enter** and an **exit**
//! phase so that all-to-all synchronization can be encoded without cycles
//! (`enter_i → exit_j` for members `i, j`).
//!
//! Intra-rank edges implement the one-sided epoch semantics: blocking
//! events chain in program order, while a nonblocking RMA operation hangs
//! off its issue point and re-joins the chain only at the synchronization
//! that closes its epoch — "while the epochs in each MPI process are
//! ordered based on their execution, the nonblocking RMA operations within
//! each epoch are not ordered". This yields exactly the diamond shapes of
//! the paper's Figure 4.

use crate::matching::{CollKind, Matching};
use crate::preprocess::Ctx;
use mcc_types::{EventKind, EventRef, Rank, Trace};
use std::collections::{HashMap, HashSet};

/// Index of a DAG node.
pub type NodeId = u32;

/// How a node participates in each rank's program-order structure.
///
/// Blocking events form a total **chain** per rank; nonblocking RMA
/// operations float between their issue point and their epoch-closing
/// synchronization. Happens-before queries on floating nodes are answered
/// through their `issue`/`close` chain anchors (see [`crate::vc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A blocking event on the rank's program-order chain.
    Chain,
    /// A nonblocking RMA operation: `issue` is the chain node it was
    /// issued after (if any), `close` the chain node of its epoch-closing
    /// synchronization (if the epoch was closed in the trace).
    Rma {
        /// Chain predecessor at issue.
        issue: Option<NodeId>,
        /// Chain node of the closing synchronization.
        close: Option<NodeId>,
    },
}

/// The happens-before DAG.
#[derive(Debug)]
pub struct Dag {
    /// Number of ranks.
    pub nprocs: usize,
    /// Owning rank of each node.
    pub node_rank: Vec<Rank>,
    /// The event each node represents.
    pub node_event: Vec<EventRef>,
    /// Chain/floating classification of each node.
    pub node_kind: Vec<NodeKind>,
    /// Successor adjacency.
    pub succ: Vec<Vec<NodeId>>,
    /// Per rank, per event index: `(enter, exit)` node ids (equal for
    /// single-phase events).
    pub(crate) nodes_of: Vec<Vec<(NodeId, NodeId)>>,
}

impl Dag {
    /// The node at which an event's effect may begin.
    pub fn enter(&self, er: EventRef) -> NodeId {
        self.nodes_of[er.rank.idx()][er.idx].0
    }

    /// The node after which an event has fully completed.
    pub fn exit(&self, er: EventRef) -> NodeId {
        self.nodes_of[er.rank.idx()][er.idx].1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_rank.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }
}

/// Builds the DAG from a trace, its preprocessed context, and the matched
/// synchronization.
pub fn build(trace: &Trace, ctx: &Ctx, matching: &Matching) -> Dag {
    let n = trace.nprocs();
    // Events participating in a matched collective get two phases.
    let two_phase: HashSet<EventRef> =
        matching.collectives.iter().flat_map(|c| c.events.iter().copied()).collect();

    let mut dag = Dag {
        nprocs: n,
        node_rank: Vec::new(),
        node_event: Vec::new(),
        node_kind: Vec::new(),
        succ: Vec::new(),
        nodes_of: (0..n).map(|r| Vec::with_capacity(trace.procs[r].events.len())).collect(),
    };

    let new_node = |dag: &mut Dag, rank: Rank, er: EventRef, kind: NodeKind| -> NodeId {
        let id = dag.node_rank.len() as NodeId;
        dag.node_rank.push(rank);
        dag.node_event.push(er);
        dag.node_kind.push(kind);
        dag.succ.push(Vec::new());
        id
    };

    // --- intra-rank structure ---
    for r in 0..n {
        let rank = Rank(r as u32);
        let mut prev: Option<NodeId> = None;
        // Pending (unclosed) RMA op nodes per epoch bucket.
        let mut fence_pending: HashMap<u32, Vec<NodeId>> = HashMap::new();
        let mut lock_pending: HashMap<(u32, u32), Vec<NodeId>> = HashMap::new();
        let mut start_pending: HashMap<u32, Vec<NodeId>> = HashMap::new();
        let mut lock_held: HashSet<(u32, u32)> = HashSet::new();
        let mut start_active: HashSet<u32> = HashSet::new();

        // Request-based ops awaiting their MPI_Wait: req id → node plus
        // the (win, target) bucket that would otherwise close them.
        let mut req_pending: HashMap<u64, NodeId> = HashMap::new();
        let mut lock_all_held: HashSet<u32> = HashSet::new();

        // Closes a batch of pending op nodes at chain node `close`. A
        // node already completed (e.g. a request op closed by its wait)
        // keeps its first completion point.
        let close_ops = |dag: &mut Dag, ops: Vec<NodeId>, close: NodeId| {
            for op in ops {
                match &mut dag.node_kind[op as usize] {
                    NodeKind::Rma { close: c @ None, .. } => {
                        *c = Some(close);
                        dag.succ[op as usize].push(close);
                    }
                    NodeKind::Rma { .. } => {}
                    NodeKind::Chain => unreachable!("pending node is always an RMA op"),
                }
            }
        };

        for (idx, event) in trace.procs[r].events.iter().enumerate() {
            let er = EventRef::new(rank, idx);

            // All one-sided communication flavours float off the chain.
            // Window and target lookups cannot miss: see `Ctx::target_abs`.
            if let Some((win, target_abs, req)) = match &event.kind {
                EventKind::Rma(op) => Some((op.win.0, ctx.target_abs(op.win, op.target).0, None)),
                EventKind::RmaAtomic(op) => {
                    Some((op.win.0, ctx.target_abs(op.win, op.target).0, None))
                }
                EventKind::RmaReq { op, req } => {
                    Some((op.win.0, ctx.target_abs(op.win, op.target).0, Some(*req)))
                }
                _ => None,
            } {
                // Issue point: ordered after the previous blocking event,
                // unordered with everything until the close.
                let enter =
                    new_node(&mut dag, rank, er, NodeKind::Rma { issue: prev, close: None });
                dag.nodes_of[r].push((enter, enter));
                if let Some(p) = prev {
                    dag.succ[p as usize].push(enter);
                }
                if let Some(req) = req {
                    req_pending.insert(req, enter);
                }
                if lock_held.contains(&(win, target_abs)) || lock_all_held.contains(&win) {
                    lock_pending.entry((win, target_abs)).or_default().push(enter);
                } else if start_active.contains(&win) {
                    start_pending.entry(win).or_default().push(enter);
                } else {
                    fence_pending.entry(win).or_default().push(enter);
                }
                // `prev` unchanged: the op does not block program order.
                continue;
            }

            let enter = new_node(&mut dag, rank, er, NodeKind::Chain);
            let exit = if two_phase.contains(&er) {
                let x = new_node(&mut dag, rank, er, NodeKind::Chain);
                dag.succ[enter as usize].push(x);
                x
            } else {
                enter
            };
            dag.nodes_of[r].push((enter, exit));

            match &event.kind {
                EventKind::Fence { win } => {
                    let ops = fence_pending.remove(&win.0).unwrap_or_default();
                    close_ops(&mut dag, ops, enter);
                }
                EventKind::Lock { win, target, .. } => {
                    let abs = ctx.target_abs(*win, *target);
                    lock_held.insert((win.0, abs.0));
                }
                EventKind::Unlock { win, target } => {
                    let abs = ctx.target_abs(*win, *target);
                    lock_held.remove(&(win.0, abs.0));
                    let ops = lock_pending.remove(&(win.0, abs.0)).unwrap_or_default();
                    close_ops(&mut dag, ops, enter);
                }
                EventKind::LockAll { win } => {
                    lock_all_held.insert(win.0);
                }
                EventKind::UnlockAll { win } => {
                    lock_all_held.remove(&win.0);
                    let keys: Vec<_> =
                        lock_pending.keys().filter(|(w, _)| *w == win.0).copied().collect();
                    for key in keys {
                        let ops = lock_pending.remove(&key).unwrap_or_default();
                        close_ops(&mut dag, ops, enter);
                    }
                }
                EventKind::Flush { win, target } => {
                    // Consistency order: completes pending ops to that
                    // target without closing the epoch.
                    let abs = ctx.target_abs(*win, *target);
                    let ops = lock_pending.remove(&(win.0, abs.0)).unwrap_or_default();
                    close_ops(&mut dag, ops, enter);
                }
                EventKind::FlushAll { win } => {
                    let keys: Vec<_> =
                        lock_pending.keys().filter(|(w, _)| *w == win.0).copied().collect();
                    for key in keys {
                        let ops = lock_pending.remove(&key).unwrap_or_default();
                        close_ops(&mut dag, ops, enter);
                    }
                }
                EventKind::WaitReq { req } => {
                    if let Some(op) = req_pending.remove(req) {
                        close_ops(&mut dag, vec![op], enter);
                    }
                }
                EventKind::Start { win, .. } => {
                    start_active.insert(win.0);
                }
                EventKind::Complete { win } => {
                    start_active.remove(&win.0);
                    let ops = start_pending.remove(&win.0).unwrap_or_default();
                    close_ops(&mut dag, ops, enter);
                }
                _ => {}
            }

            if let Some(p) = prev {
                dag.succ[p as usize].push(enter);
            }
            prev = Some(exit);
        }
    }

    // --- cross-rank edges ---
    for &(a, b) in &matching.edges {
        let from = dag.exit(a);
        let to = dag.enter(b);
        dag.succ[from as usize].push(to);
    }
    for coll in &matching.collectives {
        match coll.kind {
            CollKind::AllToAll => {
                for &a in &coll.events {
                    for &b in &coll.events {
                        if a != b {
                            let from = dag.enter(a);
                            let to = dag.exit(b);
                            dag.succ[from as usize].push(to);
                        }
                    }
                }
            }
            CollKind::RootToAll(root) => {
                if let Some(&re) = coll.events.iter().find(|e| e.rank == root) {
                    for &b in &coll.events {
                        if b != re {
                            let from = dag.enter(re);
                            let to = dag.exit(b);
                            dag.succ[from as usize].push(to);
                        }
                    }
                }
            }
            CollKind::AllToRoot(root) => {
                if let Some(&re) = coll.events.iter().find(|e| e.rank == root) {
                    for &a in &coll.events {
                        if a != re {
                            let from = dag.enter(a);
                            let to = dag.exit(re);
                            dag.succ[from as usize].push(to);
                        }
                    }
                }
            }
        }
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::match_sync;
    use crate::preprocess::preprocess;
    use mcc_types::{CommId, DatatypeId, RmaKind, RmaOp, TraceBuilder, WinId};

    fn put_op(target: u32) -> EventKind {
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

    /// Figure 4 shape: fence; put; store; fence — the put must be
    /// unordered with the store but ordered before the closing fence.
    #[test]
    fn fig4_epoch_diamond() {
        let mut b = TraceBuilder::new(2);
        let mut refs = Vec::new();
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
            let f1 = b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            let (put, store) = if r == 0 {
                let put = b.push(Rank(0), put_op(1));
                let store = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
                (Some(put), Some(store))
            } else {
                (None, None)
            };
            let f2 = b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            refs.push((f1, put, store, f2));
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let (f1, put, store, f2) = refs[0];
        let put = put.unwrap();
        let store = store.unwrap();
        // Edges: f1.exit → put, f1.exit → store, put → f2.enter,
        // store → f2.enter. No edge between put and store.
        let has = |a: NodeId, b: NodeId| dag.succ[a as usize].contains(&b);
        assert!(has(dag.exit(f1), dag.enter(put)));
        assert!(has(dag.exit(f1), dag.enter(store)));
        assert!(has(dag.enter(put), dag.enter(f2)));
        assert!(has(dag.enter(store), dag.enter(f2)));
        assert!(!has(dag.enter(put), dag.enter(store)));
        assert!(!has(dag.enter(store), dag.enter(put)));
        // The fences are two-phase (matched collectives).
        assert_ne!(dag.enter(f1), dag.exit(f1));
    }

    #[test]
    fn blocking_events_chain_in_program_order() {
        let mut b = TraceBuilder::new(1);
        let a = b.push(Rank(0), EventKind::Load { addr: 64, len: 4 });
        let c = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        assert!(dag.succ[dag.enter(a) as usize].contains(&dag.enter(c)));
        assert_eq!(dag.node_count(), 2);
    }

    #[test]
    fn collective_all_to_all_edges() {
        let mut b = TraceBuilder::new(2);
        let b0 = b.push(Rank(0), EventKind::Barrier { comm: CommId::WORLD });
        let b1 = b.push(Rank(1), EventKind::Barrier { comm: CommId::WORLD });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        assert!(dag.succ[dag.enter(b0) as usize].contains(&dag.exit(b1)));
        assert!(dag.succ[dag.enter(b1) as usize].contains(&dag.exit(b0)));
        // 2 events × 2 phases.
        assert_eq!(dag.node_count(), 4);
    }

    #[test]
    fn lock_epoch_ops_close_at_unlock() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
        }
        let lock = b.push(
            Rank(0),
            EventKind::Lock { win: WinId(0), target: Rank(1), kind: mcc_types::LockKind::Shared },
        );
        let put = b.push(Rank(0), put_op(1));
        let unlock = b.push(Rank(0), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let has = |a: NodeId, c: NodeId| dag.succ[a as usize].contains(&c);
        assert!(has(dag.exit(lock), dag.enter(put)));
        assert!(has(dag.enter(put), dag.enter(unlock)));
        assert!(has(dag.exit(lock), dag.enter(unlock)), "program order maintained");
    }

    #[test]
    fn send_recv_edge() {
        let mut b = TraceBuilder::new(2);
        let s = b.push(
            Rank(0),
            EventKind::Send { comm: CommId::WORLD, to: Rank(1), tag: mcc_types::Tag(0), bytes: 4 },
        );
        let r = b.push(
            Rank(1),
            EventKind::Recv {
                comm: CommId::WORLD,
                from: Rank(0),
                tag: mcc_types::Tag(0),
                bytes: 4,
            },
        );
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        assert!(dag.succ[dag.exit(s) as usize].contains(&dag.enter(r)));
    }
}
