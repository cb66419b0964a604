//! Trace preprocessing (paper §IV-C1): rebuilding communicator, group,
//! window and datatype information from the logged support calls.
//!
//! The DN-Analyzer is an offline tool: everything it knows comes from the
//! trace. Group-manipulation calls log *relative* ranks, so this pass
//! resolves them to absolute ranks ("DN-Analyzer needs to convert the
//! relative ranks in the user-defined communicators/groups to absolute
//! ranks in the basic communicator"); datatype-manipulation calls are
//! folded into data-maps; `MPI_Win_create` events are combined into a
//! per-window table of each member's exposed buffer.

use mcc_types::{
    AccessClass, AtomicOp, CommId, DataMap, DatatypeId, EventKind, EventRef, GroupId, MemRegion,
    Rank, RmaOp, Trace, WinId,
};
use std::collections::HashMap;

/// Resolved datatype: layout plus basic element type (for the accumulate
/// exception).
#[derive(Debug, Clone)]
pub struct DtypeInfo {
    /// Byte layout of one element.
    pub map: DataMap,
    /// Underlying primitive type if homogeneous.
    pub basic: Option<DatatypeId>,
}

/// Window metadata reconstructed from the collective `MPI_Win_create`.
#[derive(Debug, Clone)]
pub struct WinMeta {
    /// Communicator the window spans.
    pub comm: CommId,
    /// Exposed `(base, len)` per member position (comm-relative).
    pub ranks: Vec<(u64, u64)>,
}

impl WinMeta {
    /// The exposed region of the member at position `rel`.
    pub fn region_of_rel(&self, rel: u32) -> MemRegion {
        let (base, len) = self.ranks[rel as usize];
        MemRegion::new(base, len)
    }
}

/// A fully-resolved one-sided operation.
#[derive(Debug, Clone)]
pub struct RmaFootprint {
    /// Absolute target rank.
    pub target_abs: Rank,
    /// Origin-buffer footprint, shifted to absolute addresses in the
    /// origin rank's space.
    pub origin_map: DataMap,
    /// Target footprint, shifted to absolute addresses in the target
    /// rank's space (window base + displacement applied).
    pub target_map: DataMap,
    /// Basic element type of the transfer (for the accumulate exception).
    pub basic: Option<DatatypeId>,
}

/// The preprocessed context.
#[derive(Debug)]
pub struct Ctx {
    /// Number of ranks.
    pub nprocs: usize,
    /// Per-rank group tables (group handles are process-local).
    pub groups: Vec<HashMap<GroupId, Vec<Rank>>>,
    /// Communicator members, absolute, in member order.
    pub comms: HashMap<CommId, Vec<Rank>>,
    /// Window table.
    pub wins: HashMap<WinId, WinMeta>,
    /// Per-rank datatype tables.
    pub dtypes: Vec<HashMap<DatatypeId, DtypeInfo>>,
}

impl Ctx {
    /// Resolves a datatype handle for `rank`.
    pub fn resolve_dtype(&self, rank: Rank, id: DatatypeId) -> DtypeInfo {
        if let Some(size) = id.primitive_size() {
            return DtypeInfo { map: DataMap::contiguous(size), basic: Some(id) };
        }
        self.dtypes[rank.idx()]
            .get(&id)
            .cloned()
            .unwrap_or_else(|| panic!("{rank}: unknown datatype {id} in trace"))
    }

    /// Translates a comm-relative rank to absolute.
    pub fn abs_rank(&self, comm: CommId, rel: Rank) -> Rank {
        self.comms
            .get(&comm)
            .and_then(|m| m.get(rel.0 as usize))
            .copied()
            .unwrap_or_else(|| panic!("rank {rel} out of range for {comm}"))
    }

    /// The members of a communicator.
    pub fn comm_members(&self, comm: CommId) -> &[Rank] {
        self.comms.get(&comm).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a communicator spans every rank (its collectives globally
    /// synchronize and partition the DAG into regions).
    pub fn is_world_comm(&self, comm: CommId) -> bool {
        self.comms.get(&comm).is_some_and(|m| m.len() == self.nprocs)
    }

    /// The window region exposed by absolute rank `abs` in `win`, if that
    /// rank is a member.
    pub fn win_region(&self, win: WinId, abs: Rank) -> Option<MemRegion> {
        let meta = self.wins.get(&win)?;
        let members = self.comms.get(&meta.comm)?;
        let rel = members.iter().position(|&r| r == abs)?;
        Some(meta.region_of_rel(rel as u32))
    }

    /// All windows that expose memory of `abs`, with their regions.
    pub fn wins_of_rank(&self, abs: Rank) -> Vec<(WinId, MemRegion)> {
        let mut out: Vec<(WinId, MemRegion)> =
            self.wins.keys().filter_map(|&w| self.win_region(w, abs).map(|r| (w, r))).collect();
        out.sort_by_key(|(w, _)| *w);
        out
    }

    /// Resolves a logged RMA operation (issued by `origin`) to absolute
    /// footprints.
    pub fn rma_footprint(&self, origin: Rank, op: &RmaOp) -> RmaFootprint {
        let meta = self.wins.get(&op.win).unwrap_or_else(|| panic!("unknown {} in trace", op.win));
        let target_abs = self.abs_rank(meta.comm, op.target);
        let (win_base, _) = meta.ranks[op.target.0 as usize];
        let origin_info = self.resolve_dtype(origin, op.origin_dtype);
        let target_info = self.resolve_dtype(origin, op.target_dtype);
        RmaFootprint {
            target_abs,
            origin_map: origin_info.map.tiled(op.origin_count as u64).shifted(op.origin_addr),
            target_map: target_info
                .map
                .tiled(op.target_count as u64)
                .shifted(win_base + op.target_disp),
            basic: origin_info.basic,
        }
    }
}

/// A one-sided operation of any flavour (MPI-2 put/get/accumulate, MPI-3
/// atomics, request-based ops), resolved to the footprint model the
/// detectors work with.
#[derive(Debug, Clone)]
pub struct ResolvedAccess {
    /// The window.
    pub win: WinId,
    /// Absolute target rank.
    pub target_abs: Rank,
    /// Table I classification at the target window.
    pub class: AccessClass,
    /// Footprint in the target's window (absolute addresses).
    pub target_map: DataMap,
    /// Local bytes the pending operation *reads* (put/accumulate origin,
    /// atomic operand and compare buffers).
    pub reads: DataMap,
    /// Local bytes the pending operation *writes* (get origin, atomic
    /// result buffer).
    pub writes: DataMap,
}

impl ResolvedAccess {
    /// Whether the pending operation's local effects conflict with
    /// another operation's (both at the same rank, unordered).
    pub fn origin_conflicts_with(&self, other: &ResolvedAccess) -> bool {
        self.writes.overlaps_at(0, &other.writes, 0)
            || self.writes.overlaps_at(0, &other.reads, 0)
            || self.reads.overlaps_at(0, &other.writes, 0)
    }

    /// Whether a local CPU access (load/store of `region`) conflicts with
    /// the pending operation's local effects.
    pub fn origin_conflicts_with_access(&self, is_store: bool, region: MemRegion) -> bool {
        if self.writes.overlaps_region_at(0, region) {
            return true; // the op writes bytes the CPU touches either way
        }
        is_store && self.reads.overlaps_region_at(0, region)
    }
}

impl Ctx {
    /// Resolves any one-sided communication event; `None` for non-RMA
    /// events.
    pub fn resolve_rma_event(&self, origin: Rank, kind: &EventKind) -> Option<ResolvedAccess> {
        match kind {
            EventKind::Rma(op) | EventKind::RmaReq { op, .. } => {
                Some(self.resolve_plain(origin, op))
            }
            EventKind::RmaAtomic(op) => Some(self.resolve_atomic(origin, op)),
            _ => None,
        }
    }

    fn resolve_plain(&self, origin: Rank, op: &RmaOp) -> ResolvedAccess {
        let fp = self.rma_footprint(origin, op);
        let class = op.kind.access_class(fp.basic.unwrap_or(DatatypeId::BYTE));
        let (reads, writes) = match op.kind {
            mcc_types::RmaKind::Get => (DataMap::empty(), fp.origin_map.clone()),
            _ => (fp.origin_map.clone(), DataMap::empty()),
        };
        ResolvedAccess {
            win: op.win,
            target_abs: fp.target_abs,
            class,
            target_map: fp.target_map,
            reads,
            writes,
        }
    }

    fn resolve_atomic(&self, _origin: Rank, op: &AtomicOp) -> ResolvedAccess {
        let meta = self.wins.get(&op.win).unwrap_or_else(|| panic!("unknown {} in trace", op.win));
        let target_abs = self.abs_rank(meta.comm, op.target);
        let (win_base, _) = meta.ranks[op.target.0 as usize];
        let elem = op.dtype.primitive_size().expect("atomics use basic datatypes");
        let span = DataMap::contiguous(elem).tiled(op.count as u64);
        let mut reads = vec![span.clone().shifted(op.origin_addr)];
        if let Some(cmp) = op.compare_addr {
            reads.push(span.clone().shifted(cmp));
        }
        let reads = DataMap::from_segments(reads.iter().flat_map(|m| m.segments().iter().copied()));
        let writes = span.clone().shifted(op.result_addr);
        ResolvedAccess {
            win: op.win,
            target_abs,
            class: op.kind.access_class(op.dtype),
            target_map: span.shifted(win_base + op.target_disp),
            reads,
            writes,
        }
    }
}

/// Scans a trace and builds the context.
pub fn preprocess(trace: &Trace) -> Ctx {
    let n = trace.nprocs();
    let mut ctx = Ctx {
        nprocs: n,
        groups: vec![HashMap::new(); n],
        comms: HashMap::new(),
        wins: HashMap::new(),
        dtypes: vec![HashMap::new(); n],
    };
    let world: Vec<Rank> = (0..n as u32).map(Rank).collect();
    ctx.comms.insert(CommId::WORLD, world.clone());
    for g in &mut ctx.groups {
        g.insert(GroupId::WORLD, world.clone());
    }

    // Window creation needs each member's contribution; collect pieces.
    type WinParts = HashMap<WinId, (CommId, HashMap<Rank, (u64, u64)>)>;
    let mut win_parts: WinParts = HashMap::new();
    // Ranks the survivors report failed: a window created *after* the
    // failure legitimately has no contribution from the corpse.
    let mut failed: std::collections::HashSet<Rank> = std::collections::HashSet::new();

    for (er, event) in trace.iter_events() {
        let rank = er.rank;
        match &event.kind {
            EventKind::RankFailed { failed: f, .. } => {
                failed.insert(*f);
            }
            EventKind::GroupIncl { old, new, ranks } => {
                let old_members = ctx.groups[rank.idx()]
                    .get(old)
                    .cloned()
                    .unwrap_or_else(|| panic!("{rank}: GroupIncl references unknown {old}"));
                let members: Vec<Rank> = ranks.iter().map(|&r| old_members[r as usize]).collect();
                ctx.groups[rank.idx()].insert(*new, members);
            }
            EventKind::CommGroup { comm, group } => {
                let members = ctx
                    .comms
                    .get(comm)
                    .cloned()
                    .unwrap_or_else(|| panic!("{rank}: CommGroup references unknown {comm}"));
                ctx.groups[rank.idx()].insert(*group, members);
            }
            EventKind::CommCreate { group, new: Some(c), .. } => {
                let members = ctx.groups[rank.idx()]
                    .get(group)
                    .cloned()
                    .unwrap_or_else(|| panic!("{rank}: CommCreate references unknown {group}"));
                ctx.comms.insert(*c, members);
            }
            EventKind::WinCreate { win, base, len, comm } => {
                let entry = win_parts.entry(*win).or_insert_with(|| (*comm, HashMap::new()));
                entry.1.insert(rank, (*base, *len));
            }
            EventKind::TypeContiguous { new, count, elem } => {
                let info = ctx.resolve_dtype(rank, *elem);
                ctx.dtypes[rank.idx()].insert(
                    *new,
                    DtypeInfo { map: info.map.tiled(*count as u64), basic: info.basic },
                );
            }
            EventKind::TypeVector { new, count, blocklen, stride, elem } => {
                let info = ctx.resolve_dtype(rank, *elem);
                let block = info.map.tiled(*blocklen as u64);
                let span = block.span();
                let one = block.with_extent((info.map.extent() * *stride as u64).max(span));
                ctx.dtypes[rank.idx()]
                    .insert(*new, DtypeInfo { map: one.tiled(*count as u64), basic: info.basic });
            }
            EventKind::TypeStruct { new, fields } => {
                let mut parts = Vec::with_capacity(fields.len());
                let mut basic: Option<Option<DatatypeId>> = None;
                for &(disp, count, ty) in fields {
                    let info = ctx.resolve_dtype(rank, ty);
                    basic = Some(match basic {
                        None => info.basic,
                        Some(b) if b == info.basic => b,
                        Some(_) => None,
                    });
                    parts.push((disp, info.map.tiled(count as u64)));
                }
                ctx.dtypes[rank.idx()].insert(
                    *new,
                    DtypeInfo { map: DataMap::structured(parts), basic: basic.flatten() },
                );
            }
            _ => {}
        }
        let _ = er;
    }

    // Assemble window tables in member order.
    for (win, (comm, parts)) in win_parts {
        let members = ctx
            .comms
            .get(&comm)
            .cloned()
            .unwrap_or_else(|| panic!("window {win} created over unknown {comm}"));
        let ranks = members
            .iter()
            .map(|m| {
                parts.get(m).copied().unwrap_or_else(|| {
                    // A failed rank exposes nothing in windows created
                    // after its death; anyone else missing is a torn log.
                    if failed.contains(m) {
                        (0, 0)
                    } else {
                        panic!("window {win}: member {m} logged no WinCreate")
                    }
                })
            })
            .collect();
        ctx.wins.insert(win, WinMeta { comm, ranks });
    }
    ctx
}

/// Convenience re-export: a reference to an event plus its resolved
/// footprint, used by the detectors.
pub type OpRef = (EventRef, RmaFootprint);

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{RmaKind, TraceBuilder};

    fn two_rank_win_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate {
                    win: WinId(0),
                    base: 100 + 100 * r as u64,
                    len: 64,
                    comm: CommId::WORLD,
                },
            );
        }
        b.build()
    }

    #[test]
    fn world_comm_prepopulated() {
        let ctx = preprocess(&Trace::new(3));
        assert_eq!(ctx.comm_members(CommId::WORLD), &[Rank(0), Rank(1), Rank(2)]);
        assert!(ctx.is_world_comm(CommId::WORLD));
        assert_eq!(ctx.abs_rank(CommId::WORLD, Rank(2)), Rank(2));
    }

    #[test]
    fn window_table_assembled() {
        let ctx = preprocess(&two_rank_win_trace());
        let meta = &ctx.wins[&WinId(0)];
        assert_eq!(meta.comm, CommId::WORLD);
        assert_eq!(meta.ranks, vec![(100, 64), (200, 64)]);
        assert_eq!(ctx.win_region(WinId(0), Rank(1)), Some(MemRegion::new(200, 64)));
        assert_eq!(ctx.wins_of_rank(Rank(0)), vec![(WinId(0), MemRegion::new(100, 64))]);
    }

    #[test]
    fn group_and_comm_resolution() {
        let mut b = TraceBuilder::new(4);
        // Rank 0 creates a group of ranks {1, 3} and a communicator; ranks
        // 1 and 3 do the same (each logs its own handles).
        for r in [0u32, 1, 3] {
            b.push(
                Rank(r),
                EventKind::GroupIncl { old: GroupId::WORLD, new: GroupId(5), ranks: vec![1, 3] },
            );
            b.push(
                Rank(r),
                EventKind::CommCreate {
                    old: CommId::WORLD,
                    group: GroupId(5),
                    new: if r == 0 { None } else { Some(CommId(1)) },
                },
            );
        }
        let t = b.build();
        let ctx = preprocess(&t);
        assert_eq!(ctx.groups[1][&GroupId(5)], vec![Rank(1), Rank(3)]);
        assert_eq!(ctx.comm_members(CommId(1)), &[Rank(1), Rank(3)]);
        assert!(!ctx.is_world_comm(CommId(1)));
        assert_eq!(ctx.abs_rank(CommId(1), Rank(1)), Rank(3));
    }

    #[test]
    fn nested_group_incl() {
        let mut b = TraceBuilder::new(6);
        b.push(
            Rank(0),
            EventKind::GroupIncl { old: GroupId::WORLD, new: GroupId(7), ranks: vec![0, 2, 4] },
        );
        // Relative to group 7: positions 1, 2 are world ranks 2, 4.
        b.push(
            Rank(0),
            EventKind::GroupIncl { old: GroupId(7), new: GroupId(8), ranks: vec![1, 2] },
        );
        let ctx = preprocess(&b.build());
        assert_eq!(ctx.groups[0][&GroupId(8)], vec![Rank(2), Rank(4)]);
    }

    #[test]
    fn datatype_reconstruction() {
        let mut b = TraceBuilder::new(1);
        b.push(
            Rank(0),
            EventKind::TypeContiguous { new: DatatypeId(16), count: 3, elem: DatatypeId::INT },
        );
        b.push(
            Rank(0),
            EventKind::TypeVector {
                new: DatatypeId(17),
                count: 2,
                blocklen: 1,
                stride: 4,
                elem: DatatypeId::INT,
            },
        );
        b.push(
            Rank(0),
            EventKind::TypeStruct {
                new: DatatypeId(18),
                fields: vec![(0, 1, DatatypeId::INT), (8, 1, DatatypeId::DOUBLE)],
            },
        );
        let ctx = preprocess(&b.build());
        assert_eq!(ctx.resolve_dtype(Rank(0), DatatypeId(16)).map.size(), 12);
        let v = ctx.resolve_dtype(Rank(0), DatatypeId(17));
        assert_eq!(v.map.segments().len(), 2);
        assert_eq!(v.map.segments()[1].disp, 16);
        let s = ctx.resolve_dtype(Rank(0), DatatypeId(18));
        assert_eq!(s.basic, None);
        assert_eq!(s.map.size(), 12);
    }

    #[test]
    fn rma_footprint_resolution() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate {
                    win: WinId(0),
                    base: 1000 * (r as u64 + 1),
                    len: 256,
                    comm: CommId::WORLD,
                },
            );
        }
        let t = b.build();
        let ctx = preprocess(&t);
        let op = RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(1),
            origin_addr: 500,
            origin_count: 2,
            origin_dtype: DatatypeId::INT,
            target_disp: 16,
            target_count: 2,
            target_dtype: DatatypeId::INT,
        };
        let fp = ctx.rma_footprint(Rank(0), &op);
        assert_eq!(fp.target_abs, Rank(1));
        assert_eq!(fp.origin_map.bounding_region_at(0), MemRegion::new(500, 8));
        // Target window of rank 1 starts at 2000; disp 16.
        assert_eq!(fp.target_map.bounding_region_at(0), MemRegion::new(2016, 8));
        assert_eq!(fp.basic, Some(DatatypeId::INT));
    }

    /// The origin-side half of the sweep filter's soundness: the
    /// intra-epoch detector marks an op's `reads` and local loads as
    /// readers and never pairs two readers, so read/read must stay
    /// conflict-free under both origin predicates.
    #[test]
    fn origin_reads_never_conflict_with_reads() {
        let buf = DataMap::contiguous(8).shifted(500);
        let pending = |reads: DataMap, writes: DataMap| ResolvedAccess {
            win: WinId(0),
            target_abs: Rank(1),
            class: AccessClass::PUT,
            target_map: DataMap::contiguous(8),
            reads,
            writes,
        };
        let reader = pending(buf.clone(), DataMap::empty());
        let writer = pending(DataMap::empty(), buf.clone());
        let region = buf.bounding_region_at(0);
        assert!(!reader.origin_conflicts_with(&reader));
        assert!(!reader.origin_conflicts_with_access(false, region));
        // Every combination with a writer does conflict.
        assert!(reader.origin_conflicts_with(&writer) && writer.origin_conflicts_with(&reader));
        assert!(writer.origin_conflicts_with(&writer));
        assert!(reader.origin_conflicts_with_access(true, region));
        assert!(writer.origin_conflicts_with_access(false, region));
    }

    #[test]
    #[should_panic(expected = "unknown datatype")]
    fn unknown_dtype_panics() {
        let ctx = preprocess(&Trace::new(1));
        ctx.resolve_dtype(Rank(0), DatatypeId(99));
    }
}
