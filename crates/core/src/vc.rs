//! Vector clocks over the data-access DAG.
//!
//! The paper extracts "sets of operations that are unordered in the DAG"
//! (§I); deciding unorderedness per pair by graph search would be
//! quadratic, so we assign vector clocks in one topological sweep.
//!
//! The classic O(1) query — `a happens-before b` iff
//! `VC_b[rank(a)] ≥ VC_a[rank(a)]` — is only sound when each rank's
//! clocked nodes are **totally ordered**. Blocking events satisfy that
//! (they form each rank's program-order chain), but nonblocking RMA nodes
//! deliberately do not: they float between issue and epoch close. So only
//! chain nodes tick the clock, and a floating node is queried through its
//! chain anchors: its effect is complete no earlier than its **close**
//! node and cannot begin before its **issue** node:
//!
//! * `rma_a →  x`  iff  `close(a) →= x`
//! * `x → rma_b`   iff  `x →= issue(b)`
//!
//! where `→=` is reflexive ordering on chain nodes. An RMA operation whose
//! epoch is never closed in the trace is not ordered before anything.

use crate::dag::{Dag, NodeId, NodeKind};
use crate::preprocess::TraceError;
use mcc_types::EventRef;
use std::collections::HashSet;

/// Vector clocks for every DAG node.
#[derive(Debug)]
pub struct Clocks {
    n: usize,
    /// Flattened `node_count × nprocs` clock matrix.
    vcs: Vec<u32>,
    ranks: Vec<u32>,
    kinds: Vec<NodeKind>,
}

impl Clocks {
    /// Computes clocks with a Kahn topological traversal.
    ///
    /// # Panics
    /// Panics with the [`TraceError`] text if the DAG has a cycle. Every
    /// analysis of a trace from outside the process uses
    /// [`Clocks::try_compute`].
    pub fn compute(dag: &Dag) -> Clocks {
        Self::try_compute(dag)
            .unwrap_or_else(|cycles| panic!("{}", TraceError::cycle(cycles[0].clone(), "")))
    }

    /// Computes clocks, or returns the happens-before cycles — matched
    /// synchronization that waits on itself, which a run would deadlock
    /// on — one per strongly connected component, never none. Each lists
    /// its events in edge order, starting at the receiving end of a
    /// cross-rank edge.
    pub fn try_compute(dag: &Dag) -> Result<Clocks, Vec<Vec<EventRef>>> {
        let nodes = dag.node_count();
        let n = dag.nprocs;
        let mut indeg = vec![0u32; nodes];
        for succs in &dag.succ {
            for &s in succs {
                indeg[s as usize] += 1;
            }
        }
        let mut vcs = vec![0u32; nodes * n];
        let mut queue: Vec<NodeId> =
            (0..nodes as NodeId).filter(|&i| indeg[i as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            if dag.node_kind[u as usize] == NodeKind::Chain {
                let r = dag.node_rank[u as usize].idx();
                vcs[u as usize * n + r] += 1;
            }
            let head = u as usize * n;
            // Propagate to successors: succ VC = max(succ VC, this VC).
            let this: Vec<u32> = vcs[head..head + n].to_vec();
            for &s in &dag.succ[u as usize] {
                let sh = s as usize * n;
                for k in 0..n {
                    if this[k] > vcs[sh + k] {
                        vcs[sh + k] = this[k];
                    }
                }
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if seen < nodes {
            return Err(cycles(dag, &indeg));
        }
        Ok(Clocks {
            n,
            vcs,
            ranks: dag.node_rank.iter().map(|r| r.0).collect(),
            kinds: dag.node_kind.clone(),
        })
    }

    /// The clock of a node.
    pub fn clock(&self, node: NodeId) -> &[u32] {
        let h = node as usize * self.n;
        &self.vcs[h..h + self.n]
    }

    /// Reflexive ordering between two **chain** nodes.
    #[inline]
    fn chain_ordered_eq(&self, a: NodeId, b: NodeId) -> bool {
        debug_assert_eq!(self.kinds[a as usize], NodeKind::Chain);
        debug_assert_eq!(self.kinds[b as usize], NodeKind::Chain);
        if a == b {
            return true;
        }
        let ra = self.ranks[a as usize] as usize;
        self.clock(b)[ra] >= self.clock(a)[ra]
    }

    /// The chain node at which a node's effect is certainly complete.
    fn start_anchor(&self, x: NodeId) -> Option<NodeId> {
        match self.kinds[x as usize] {
            NodeKind::Chain => Some(x),
            NodeKind::Rma { close, .. } => close,
        }
    }

    /// The chain node that must precede a node's effect.
    fn end_anchor(&self, x: NodeId) -> Option<NodeId> {
        match self.kinds[x as usize] {
            NodeKind::Chain => Some(x),
            NodeKind::Rma { issue, .. } => issue,
        }
    }

    /// Whether `a` happens-before `b` (strictly).
    pub fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let (Some(ca), Some(cb)) = (self.start_anchor(a), self.end_anchor(b)) else {
            return false;
        };
        self.chain_ordered_eq(ca, cb)
    }

    /// Whether two nodes are concurrent (no ordering either way).
    #[inline]
    pub fn concurrent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.ordered(a, b) && !self.ordered(b, a)
    }
}

/// The cycles among the nodes a Kahn sweep left unvisited (`indeg > 0`):
/// one per strongly connected component with an edge inside it, found by
/// Tarjan's algorithm without recursion, in the order of each
/// component's lowest node. Linear in the graph.
fn cycles(dag: &Dag, indeg: &[u32]) -> Vec<Vec<EventRef>> {
    let n = dag.node_count();
    let (mut index, mut low, mut comp) = (vec![u32::MAX; n], vec![0; n], vec![None; n]);
    let (mut stack, mut pred, mut found, mut next) = (Vec::new(), vec![None; n], Vec::new(), 0);
    // The depth-first path: each node with the position of its next
    // successor. A node indexed but not yet in a component is on `stack`.
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in (0..n).filter(|&u| indeg[u] > 0) {
        if index[root] == u32::MAX {
            call.push((root, 0));
        }
        while let Some((u, i)) = call.pop() {
            if i == 0 {
                (index[u], low[u], next) = (next, next, next + 1);
                stack.push(u);
            }
            if let Some(&s) = dag.succ[u].get(i) {
                let s = s as usize;
                call.push((u, i + 1));
                if indeg[s] > 0 && index[s] == u32::MAX {
                    call.push((s, 0));
                } else if indeg[s] > 0 && comp[s].is_none() {
                    low[u] = low[u].min(index[s]);
                }
                continue;
            }
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[u]);
            }
            if low[u] < index[u] {
                continue;
            }
            // `u` roots a component: the stack from `u` up.
            let at = stack.iter().rposition(|&w| w == u).expect("a root is on the stack");
            let members = stack.split_off(at);
            members.iter().for_each(|&w| comp[w] = Some(u));
            for (&w, &s) in members.iter().flat_map(|w| dag.succ[*w].iter().map(move |s| (w, s))) {
                if comp[s as usize] == Some(u) {
                    pred[s as usize] = Some(w as NodeId);
                }
            }
            if pred[u].is_some() {
                found.push((members.iter().min().copied(), cycle(dag, &pred, u as NodeId)));
            }
        }
    }
    found.sort_by_key(|(lowest, _)| *lowest);
    found.into_iter().map(|(_, c)| c).collect()
}

/// The cycle through `at`'s component: inside a component every node
/// has a predecessor in it, so walking `pred` from `at` must come back
/// to a node it passed.
fn cycle(dag: &Dag, pred: &[Option<NodeId>], mut at: NodeId) -> Vec<EventRef> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut on_walk = HashSet::new();
    while on_walk.insert(at) {
        order.push(at);
        at = pred[at as usize].expect("a component member has a predecessor in it");
    }
    let mut nodes = order.split_off(order.iter().position(|&u| u == at).unwrap_or(0));
    nodes.reverse();
    // Start where a cross-rank edge arrives; intra-rank edges run forward
    // in program order, so a cycle has one.
    let rank = |u: NodeId| dag.node_rank[u as usize];
    let k = nodes.len();
    let start = (0..k).find(|&i| rank(nodes[(i + k - 1) % k]) != rank(nodes[i])).unwrap_or(0);
    nodes.rotate_left(start);
    let mut events: Vec<EventRef> = nodes.iter().map(|&u| dag.node_event[u as usize]).collect();
    events.dedup(); // a collective's enter and exit are one event
    events
}

/// A per-shard memo over [`Clocks`] queries.
///
/// Floating RMA nodes are queried through their chain anchors, and every
/// operation of one epoch shares the same anchor pair with every
/// operation of another epoch — so a shard that compares m × k operations
/// across two epochs asks the same anchor-level question m·k times. The
/// cache keys on the `(start_anchor, end_anchor)` chain pair, making
/// repeated epoch-pair lookups a single hash probe.
///
/// The cache is intentionally *not* shared between shards: each shard of
/// the parallel conflict engine owns one, so no locking is needed and
/// results stay independent of shard scheduling.
#[derive(Debug)]
pub struct ReachCache<'a> {
    clocks: &'a Clocks,
    memo: std::collections::HashMap<(NodeId, NodeId), bool>,
    hits: u64,
    misses: u64,
}

impl<'a> ReachCache<'a> {
    /// A fresh cache over `clocks`.
    pub fn new(clocks: &'a Clocks) -> Self {
        Self { clocks, memo: std::collections::HashMap::new(), hits: 0, misses: 0 }
    }

    /// Memoized [`Clocks::ordered`].
    pub fn ordered(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let (Some(ca), Some(cb)) = (self.clocks.start_anchor(a), self.clocks.end_anchor(b)) else {
            return false;
        };
        if ca == cb {
            return true; // reflexive on the shared chain anchor
        }
        let clocks = self.clocks;
        match self.memo.entry((ca, cb)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses += 1;
                *v.insert(clocks.chain_ordered_eq(ca, cb))
            }
        }
    }

    /// Memoized [`Clocks::concurrent`].
    #[inline]
    pub fn concurrent(&mut self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.ordered(a, b) && !self.ordered(b, a)
    }

    /// Distinct anchor pairs resolved so far (exposed for stats/tests).
    pub fn entries(&self) -> usize {
        self.memo.len()
    }

    /// Memo lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Memo lookups that had to consult the vector clocks.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::build;
    use crate::matching::match_sync;
    use crate::preprocess::preprocess;
    use mcc_types::{CommId, EventKind, Rank, Tag, TraceBuilder};

    #[test]
    fn program_order_is_ordered() {
        let mut b = TraceBuilder::new(1);
        let a = b.push(Rank(0), EventKind::Load { addr: 64, len: 4 });
        let c = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.ordered(dag.enter(a), dag.enter(c)));
        assert!(!vc.ordered(dag.enter(c), dag.enter(a)));
        assert!(!vc.concurrent(dag.enter(a), dag.enter(c)));
    }

    #[test]
    fn unsynchronized_ranks_are_concurrent() {
        let mut b = TraceBuilder::new(2);
        let a = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        let c = b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.concurrent(dag.enter(a), dag.enter(c)));
    }

    #[test]
    fn barrier_orders_across_ranks() {
        let mut b = TraceBuilder::new(2);
        let before = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        b.push(Rank(0), EventKind::Barrier { comm: CommId::WORLD });
        b.push(Rank(1), EventKind::Barrier { comm: CommId::WORLD });
        let after = b.push(Rank(1), EventKind::Load { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.ordered(dag.enter(before), dag.enter(after)));
        assert!(!vc.ordered(dag.enter(after), dag.enter(before)));
    }

    #[test]
    fn send_recv_orders_only_that_direction() {
        let mut b = TraceBuilder::new(2);
        let s_pre = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        b.push(
            Rank(0),
            EventKind::Send { comm: CommId::WORLD, to: Rank(1), tag: Tag(0), bytes: 4 },
        );
        b.push(
            Rank(1),
            EventKind::Recv { comm: CommId::WORLD, from: Rank(0), tag: Tag(0), bytes: 4 },
        );
        let r_post = b.push(Rank(1), EventKind::Load { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.ordered(dag.enter(s_pre), dag.enter(r_post)));
        assert!(!vc.ordered(dag.enter(r_post), dag.enter(s_pre)));
    }

    #[test]
    fn bcast_root_asymmetry() {
        // Bcast rooted at 0: rank 0's pre-event is ordered before rank 1's
        // post-event, but rank 1's pre-event is NOT ordered before rank
        // 0's post-event.
        let mut b = TraceBuilder::new(2);
        let pre0 = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        b.push(Rank(0), EventKind::Bcast { comm: CommId::WORLD, root: Rank(0), bytes: 4 });
        let post0 = b.push(Rank(0), EventKind::Load { addr: 64, len: 4 });
        let pre1 = b.push(Rank(1), EventKind::Store { addr: 128, len: 4 });
        b.push(Rank(1), EventKind::Bcast { comm: CommId::WORLD, root: Rank(0), bytes: 4 });
        let post1 = b.push(Rank(1), EventKind::Load { addr: 128, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.ordered(dag.enter(pre0), dag.enter(post1)), "root data flows out");
        assert!(
            !vc.ordered(dag.enter(pre1), dag.enter(post0)),
            "bcast does not synchronize non-root towards root"
        );
        assert!(vc.concurrent(dag.enter(pre1), dag.enter(post0)));
    }

    #[test]
    fn rma_op_concurrent_with_epoch_body() {
        use mcc_types::{DatatypeId, RmaKind, RmaOp, WinId};
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let pre_store = b.push(Rank(0), EventKind::Store { addr: 80, len: 4 });
        let put = b.push(
            Rank(0),
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(1),
                origin_addr: 64,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            }),
        );
        let store = b.push(Rank(0), EventKind::Store { addr: 64, len: 4 });
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let after = b.push(Rank(0), EventKind::Load { addr: 64, len: 4 });
        let remote_after = b.push(Rank(1), EventKind::Load { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        // The store after the put's issue is a race with the put (Fig 2a).
        assert!(vc.concurrent(dag.enter(put), dag.enter(store)));
        // The store before the put's issue is ordered before it.
        assert!(vc.ordered(dag.enter(pre_store), dag.enter(put)));
        assert!(!vc.concurrent(dag.enter(pre_store), dag.enter(put)));
        // The closing fence orders the put before everything after it —
        // on its own rank and across ranks.
        assert!(vc.ordered(dag.enter(put), dag.enter(after)));
        assert!(vc.ordered(dag.enter(put), dag.enter(remote_after)));
    }

    #[test]
    fn two_rma_ops_same_epoch_concurrent() {
        use mcc_types::{DatatypeId, RmaKind, RmaOp, WinId};
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let mk = |addr: u64| {
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(1),
                origin_addr: addr,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            })
        };
        let p1 = b.push(Rank(0), mk(64));
        let p2 = b.push(Rank(0), mk(68));
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(vc.concurrent(dag.enter(p1), dag.enter(p2)), "ops within an epoch are unordered");
    }

    #[test]
    fn reach_cache_agrees_with_clocks() {
        use mcc_types::{DatatypeId, RmaKind, RmaOp, WinId};
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        for i in 0..4u64 {
            b.push(
                Rank(0),
                EventKind::Rma(RmaOp {
                    kind: RmaKind::Put,
                    win: WinId(0),
                    target: Rank(1),
                    origin_addr: 64 + 4 * i,
                    origin_count: 1,
                    origin_dtype: DatatypeId::INT,
                    target_disp: 0,
                    target_count: 1,
                    target_dtype: DatatypeId::INT,
                }),
            );
        }
        b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        let mut cache = ReachCache::new(&vc);
        let nodes = dag.node_count() as u32;
        for a in 0..nodes {
            for b in 0..nodes {
                assert_eq!(cache.ordered(a, b), vc.ordered(a, b), "ordered({a}, {b})");
                assert_eq!(cache.concurrent(a, b), vc.concurrent(a, b), "concurrent({a}, {b})");
            }
        }
        // The four same-epoch puts share one anchor pair each way, so the
        // memo stays far below the number of queries made.
        assert!(cache.entries() > 0);
        assert!(cache.entries() < (nodes as usize).pow(2));
    }

    #[test]
    fn unclosed_epoch_op_never_ordered_before() {
        use mcc_types::{DatatypeId, RmaKind, RmaOp, WinId};
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 16, comm: CommId::WORLD },
            );
        }
        let put = b.push(
            Rank(0),
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(1),
                origin_addr: 64,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            }),
        );
        let later = b.push(Rank(0), EventKind::Load { addr: 64, len: 4 });
        let t = b.build();
        let ctx = preprocess(&t);
        let m = match_sync(&t, &ctx);
        let dag = build(&t, &ctx, &m);
        let vc = Clocks::compute(&dag);
        assert!(!vc.ordered(dag.enter(put), dag.enter(later)), "no closing sync in trace");
        assert!(vc.concurrent(dag.enter(put), dag.enter(later)));
    }
}
