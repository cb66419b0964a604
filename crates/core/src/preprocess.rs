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
//!
//! This is also the one place a trace's handles, ranks, counts and
//! addresses are checked. [`resolve`] walks the trace once to build the
//! tables and once more to check every event against them, and returns
//! each event that fails as a [`TraceError`]. Strict callers stop at the
//! first ([`try_preprocess`]); [`crate::degrade::sanitize`] drops them
//! all. Every later stage looks handles up without checking again: a
//! lookup from an event that resolved cannot miss.

use mcc_types::{
    AccessClass, AtomicOp, CommId, DataMap, DatatypeId, EventKind, EventRef, GroupId, MemRegion,
    Rank, RmaOp, Trace, WinId,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The most segments one footprint or derived datatype may materialise
/// (64 MiB of segment list). A data-map is a segment list, so `count`
/// elements of a strided type cost `count × segments` entries; past this
/// bound the checker declines the event instead of allocating it. This
/// is a limit of the checker, not of MPI: the event is valid, and its
/// [`TraceError`] says so ([`TraceError::over_limit`]).
pub const MAX_SEGMENTS: u64 = 1 << 22;

/// How a message introduces a [`TraceError`]: an invalid trace, or a
/// valid one that exceeds a checker limit. Either is final — the same
/// trace meets the same refusal every time it is sent.
pub const HEADLINES: [&str; 2] = ["invalid trace", "trace exceeds a checker limit"];

/// An event the resolver refuses: a handle nothing defined, a rank or
/// index outside its communicator, group or window, a footprint that
/// leaves the address space or the target's exposed window, or the event
/// that closes a happens-before cycle. Or a valid event whose footprint
/// exceeds [`MAX_SEGMENTS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// The rank whose log holds the event.
    pub rank: Rank,
    /// The event's index in that log.
    pub idx: usize,
    /// The logged call.
    pub call: &'static str,
    /// What is wrong, worded as a degraded report lists a dropped event.
    pub what: String,
    /// For a happens-before cycle, the events around it in edge order,
    /// starting with this one; empty otherwise.
    pub cycle: Vec<EventRef>,
    /// Whether the event is valid MPI that exceeds [`MAX_SEGMENTS`],
    /// rather than an invalid one.
    pub over_limit: bool,
}

impl TraceError {
    pub(crate) fn at(er: EventRef, kind: &EventKind, refusal: impl Into<Refusal>) -> Self {
        let Refusal { what, over_limit } = refusal.into();
        let call = kind.call_name();
        Self { rank: er.rank, idx: er.idx, call, what, cycle: Vec::new(), over_limit }
    }

    /// The [`HEADLINES`] entry that introduces this error in a message.
    pub fn headline(&self) -> &'static str {
        HEADLINES[self.over_limit as usize]
    }

    /// The error for a happens-before cycle, blamed on its first event,
    /// a call of kind `call`. `cycle` is never empty.
    pub fn cycle(cycle: Vec<EventRef>, call: &'static str) -> Self {
        let what = "closes a happens-before cycle (a run would deadlock):".to_string();
        Self { rank: cycle[0].rank, idx: cycle[0].idx, call, what, cycle, over_limit: false }
    }
}

/// Why the resolver refuses an event, before the refusal is placed at
/// the event's rank and index.
pub(crate) struct Refusal {
    what: String,
    over_limit: bool,
}

impl From<String> for Refusal {
    fn from(what: String) -> Self {
        Self { what, over_limit: false }
    }
}

/// The refusal of a footprint (`what`, e.g. "MPI_Put origin buffer of
/// 3 element(s)") that would exceed [`MAX_SEGMENTS`].
fn over_limit(what: String) -> Refusal {
    let what = format!("{what} needs more than {MAX_SEGMENTS} segments, the checker's limit");
    Refusal { what, over_limit: true }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}: {}", self.rank, self.idx, self.what)?;
        for (i, er) in self.cycle.iter().chain(self.cycle.first()).enumerate() {
            write!(f, "{}{}#{}", if i == 0 { " " } else { " → " }, er.rank, er.idx)?;
        }
        Ok(())
    }
}

impl std::error::Error for TraceError {}

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
        // `ranks` has one entry per communicator member, and callers pass
        // a member position.
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
    /// Per-rank datatype tables, the predefined types included.
    pub dtypes: Vec<HashMap<DatatypeId, DtypeInfo>>,
}

impl Ctx {
    /// Resolves a datatype handle for `rank`.
    ///
    /// # Panics
    /// If `rank` never defined `id`. The resolver checked every handle
    /// an event uses, so a lookup for an event that resolved cannot miss.
    pub fn resolve_dtype(&self, rank: Rank, id: DatatypeId) -> DtypeInfo {
        if let Some(size) = id.primitive_size() {
            return DtypeInfo { map: DataMap::contiguous(size), basic: Some(id) };
        }
        let info = self.dtypes[rank.idx()].get(&id).cloned();
        info.unwrap_or_else(|| panic!("{rank}: unknown datatype {id} in trace"))
    }

    /// Translates a comm-relative rank to absolute.
    ///
    /// # Panics
    /// If `comm` is unknown or `rel` is not a member position. The
    /// resolver checked every communicator, peer, root and target an
    /// event names.
    pub fn abs_rank(&self, comm: CommId, rel: Rank) -> Rank {
        self.comms
            .get(&comm)
            .and_then(|m| m.get(rel.0 as usize))
            .copied()
            .unwrap_or_else(|| panic!("rank {rel} out of range for {comm}"))
    }

    /// The absolute rank of window-relative target `rel` in `win`.
    ///
    /// # Panics
    /// If `win` is incomplete or `rel` out of range: the resolver refused
    /// every event that names such a window or target.
    pub fn target_abs(&self, win: WinId, rel: Rank) -> Rank {
        self.abs_rank(self.wins[&win].comm, rel)
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
    /// footprints. The resolver has checked the window, the target, both
    /// datatypes, and that both footprints fit their address spaces and
    /// the target's exposure (see [`Ctx::target_abs`]).
    pub fn rma_footprint(&self, origin: Rank, op: &RmaOp) -> RmaFootprint {
        let meta = &self.wins[&op.win];
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

    /// Resolved as [`Ctx::rma_footprint`]; the resolver also checked that
    /// the datatype is primitive.
    fn resolve_atomic(&self, _origin: Rank, op: &AtomicOp) -> ResolvedAccess {
        let meta = &self.wins[&op.win];
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

/// Resolves a trace that must be well formed: one the profiler or
/// [`mcc_types::TraceBuilder`] produced in this process.
///
/// # Panics
/// Panics with the [`TraceError`] text of the first invalid event. A
/// trace read from disk or a peer goes through [`try_preprocess`] or
/// [`resolve`] instead.
pub fn preprocess(trace: &Trace) -> Ctx {
    try_preprocess(trace).unwrap_or_else(|e| panic!("{e}"))
}

/// The strict resolver: the context, or the first invalid event.
pub fn try_preprocess(trace: &Trace) -> Result<Ctx, TraceError> {
    let (ctx, errors) = resolve(trace);
    errors.into_iter().next().map_or(Ok(ctx), Err)
}

/// Resolves a trace: one walk builds the tables from the support events,
/// a second checks every event's handles, ranks, counts and addresses
/// against them. Returns the context of what resolved — an invalid
/// definition defines nothing, and a window some live member never
/// created is absent — plus every event that did not, at most one per
/// event, in (rank, index) order.
pub fn resolve(trace: &Trace) -> (Ctx, Vec<TraceError>) {
    let n = trace.nprocs();
    let primitives: HashMap<DatatypeId, DtypeInfo> = PRIMITIVES
        .iter()
        .filter_map(|&id| {
            Some((
                id,
                DtypeInfo { map: DataMap::contiguous(id.primitive_size()?), basic: Some(id) },
            ))
        })
        .collect();
    let world: Vec<Rank> = (0..n as u32).map(Rank).collect();
    let mut ctx = Ctx {
        nprocs: n,
        groups: vec![HashMap::from([(GroupId::WORLD, world.clone())]); n],
        comms: HashMap::from([(CommId::WORLD, world)]),
        wins: HashMap::new(),
        dtypes: vec![primitives; n],
    };

    // Window creation needs each member's contribution; collect pieces.
    type WinParts = HashMap<WinId, (CommId, HashMap<Rank, (u64, u64)>)>;
    let mut win_parts: WinParts = HashMap::new();
    // Ranks the survivors report failed: a window created *after* the
    // failure legitimately has no contribution from the corpse.
    let mut failed: HashSet<Rank> = HashSet::new();
    let mut bad_defs: Vec<TraceError> = Vec::new();

    for (er, event) in trace.iter_events() {
        let r = er.rank.idx();
        let defined: Result<(), Refusal> = match &event.kind {
            EventKind::RankFailed { failed: f, .. } => {
                failed.insert(*f);
                Ok(())
            }
            EventKind::GroupIncl { old, new, ranks } => match ctx.groups[r].get(old).map(|m| {
                ranks.iter().map(|&i| m.get(i as usize).copied()).collect::<Option<Vec<_>>>()
            }) {
                None => Err(format!("GroupIncl references unknown {old}").into()),
                Some(None) => Err(format!("GroupIncl index out of range for {old}").into()),
                Some(Some(members)) => {
                    ctx.groups[r].insert(*new, members);
                    Ok(())
                }
            },
            EventKind::CommGroup { comm, group } => (ctx.comms.get(comm).cloned())
                .map(|members| drop(ctx.groups[r].insert(*group, members)))
                .ok_or_else(|| format!("CommGroup references unknown {comm}").into()),
            EventKind::CommCreate { group, new: Some(c), .. } => {
                (ctx.groups[r].get(group).cloned())
                    .map(|members| drop(ctx.comms.insert(*c, members)))
                    .ok_or_else(|| format!("CommCreate references unknown {group}").into())
            }
            EventKind::WinCreate { win, base, len, comm } => match base.checked_add(*len) {
                Some(_) => {
                    let entry = win_parts.entry(*win).or_insert_with(|| (*comm, HashMap::new()));
                    entry.1.insert(er.rank, (*base, *len));
                    Ok(())
                }
                None => Err(format!(
                    "MPI_Win_create of {len} byte(s) at {base:#x} wraps the address space"
                )
                .into()),
            },
            EventKind::TypeContiguous { new, .. }
            | EventKind::TypeVector { new, .. }
            | EventKind::TypeStruct { new, .. } => ctx
                .derive_type(er.rank, &event.kind)
                .map(|info| drop(ctx.dtypes[r].insert(*new, info))),
            _ => Ok(()),
        };
        if let Err(r) = defined {
            bad_defs.push(TraceError::at(er, &event.kind, r));
        }
    }

    // Assemble window tables in member order; a window over an unknown
    // communicator, or missing a live member's part, stays out.
    for (win, (comm, parts)) in win_parts {
        let Some(members) = ctx.comms.get(&comm) else { continue };
        let ranks = members
            .iter()
            .map(|m| parts.get(m).copied().or_else(|| failed.contains(m).then_some((0, 0))))
            .collect::<Option<Vec<_>>>();
        if let Some(ranks) = ranks {
            ctx.wins.insert(win, WinMeta { comm, ranks });
        }
    }

    // Check every use, merging in the definition errors (both walks go
    // in (rank, index) order).
    let mut bad_defs = bad_defs.into_iter().peekable();
    let mut errors = Vec::new();
    for (er, event) in trace.iter_events() {
        if let Some(e) = bad_defs.next_if(|e| (e.rank, e.idx) == (er.rank, er.idx)) {
            errors.push(e);
        } else if let Err(r) = ctx.check(er.rank, &event.kind) {
            errors.push(TraceError::at(er, &event.kind, r));
        }
    }
    (ctx, errors)
}

/// The predefined datatypes, in every rank's table from the start.
const PRIMITIVES: [DatatypeId; 5] =
    [DatatypeId::BYTE, DatatypeId::INT, DatatypeId::FLOAT, DatatypeId::DOUBLE, DatatypeId::LONG];

/// The span of `count` tiles of `map` placed at `base`, if building them
/// (`map.tiled(count).shifted(base)`) stays inside the address space.
fn tiled_span(map: &DataMap, count: u64, base: u64) -> Option<u64> {
    if count == 0 || map.is_empty() {
        return Some(0);
    }
    map.extent().checked_mul(count)?.checked_add(base)?;
    Some((count - 1) * map.extent() + map.span())
}

/// Whether `map.tiled(count)` stays within [`MAX_SEGMENTS`].
fn within_limit(map: &DataMap, count: u64) -> bool {
    map.is_dense() || (map.segments().len() as u64).saturating_mul(count) <= MAX_SEGMENTS
}

impl Ctx {
    /// Builds the datatype a `Type*` event defines.
    fn derive_type(&self, rank: Rank, kind: &EventKind) -> Result<DtypeInfo, Refusal> {
        let table = &self.dtypes[rank.idx()];
        let known = |id: &DatatypeId| {
            table.get(id).ok_or_else(|| format!("datatype definition references unknown {id}"))
        };
        let wraps = || "datatype definition wraps the address space".to_string();
        let too_big = || over_limit("datatype definition".into());
        // `count` tiles of `map` at `base`, if they fit both bounds.
        let tile = |map: &DataMap, count: u32, base: u64| -> Result<DataMap, Refusal> {
            tiled_span(map, count as u64, base).ok_or_else(wraps)?;
            within_limit(map, count as u64).then(|| map.tiled(count as u64)).ok_or_else(too_big)
        };
        let (map, basic) = match kind {
            EventKind::TypeContiguous { new, .. }
            | EventKind::TypeVector { new, .. }
            | EventKind::TypeStruct { new, .. }
                if new.primitive_size().is_some() =>
            {
                return Err(format!("datatype definition redefines {new}").into());
            }
            EventKind::TypeContiguous { count, elem, .. } => {
                let info = known(elem)?;
                (tile(&info.map, *count, 0)?, info.basic)
            }
            EventKind::TypeVector { count, blocklen, stride, elem, .. } => {
                let info = known(elem)?;
                let block = tile(&info.map, *blocklen, 0)?;
                let stride = info.map.extent().checked_mul(*stride as u64).ok_or_else(wraps)?;
                let span = block.span();
                (tile(&block.with_extent(stride.max(span)), *count, 0)?, info.basic)
            }
            EventKind::TypeStruct { fields, .. } => {
                if fields.iter().any(|(_, _, ty)| !table.contains_key(ty)) {
                    let what = "datatype definition references an unknown field type";
                    return Err(what.to_string().into());
                }
                let (mut parts, mut basic, mut segments) = (Vec::new(), None, 0);
                for (i, (disp, count, ty)) in fields.iter().enumerate() {
                    let info = known(ty)?;
                    // The fields' common basic type, if they share one.
                    basic = if i == 0 || basic == info.basic { info.basic } else { None };
                    let part = tile(&info.map, *count, *disp)?;
                    segments += part.segments().len() as u64;
                    parts.push((*disp, part));
                }
                if segments > MAX_SEGMENTS {
                    return Err(too_big());
                }
                (DataMap::structured(parts), basic)
            }
            _ => unreachable!("derive_type is called on datatype definitions only"),
        };
        Ok(DtypeInfo { map, basic })
    }

    /// Checks one event's references against the finished tables: first
    /// that the event is valid, then that its footprints fit the checker.
    fn check(&self, rank: Rank, kind: &EventKind) -> Result<(), Refusal> {
        let call = kind.call_name();
        let win = |w: &WinId| self.wins.get(w).ok_or_else(|| format!("{call} on incomplete {w}"));
        let target = |w: &WinId, t: Rank| {
            let exposed = win(w)?.ranks.get(t.0 as usize).copied();
            exposed.ok_or_else(|| format!("{call} target {t} out of range for {w}"))
        };
        let member = |comm: &CommId, peer: Rank, role: &str| match self.comms.get(comm) {
            None => Err(format!("{call} on unknown {comm}")),
            Some(m) if peer.0 as usize >= m.len() => {
                Err(format!("{call} {role} {peer} out of range for {comm}"))
            }
            Some(_) => Ok(()),
        };
        let dtype = |id: DatatypeId| {
            let info = self.dtypes[rank.idx()].get(&id);
            info.map(|d| &d.map).ok_or_else(|| format!("{call} uses unknown {id}"))
        };
        let origin = |map: &DataMap, count: u32, addr: u64| {
            tiled_span(map, count as u64, addr).map(drop).ok_or_else(|| {
                format!(
                    "{call} origin buffer of {count} element(s) at {addr:#x} wraps the address \
                     space"
                )
            })
        };
        // The target footprint must fit the target's exposure (`disp +
        // span <= len`), and building it at `base + disp` must not wrap.
        let in_window = |(base, len): (u64, u64), map: &DataMap, count: u32, disp: u64| {
            let span = base.checked_add(disp).and_then(|at| tiled_span(map, count as u64, at));
            let fits =
                span.is_some_and(|s| s == 0 || disp.checked_add(s).is_some_and(|e| e <= len));
            fits.then_some(()).ok_or_else(|| {
                format!("{call} of {count} element(s) at displacement {disp} runs past the {len}-byte exposure")
            })
        };
        let of_target = |t: Rank, w: WinId| move |e: String| format!("{e} of target {t} in {w}");
        let limit = |map: &DataMap, count: u32, what: &str| {
            let fits = within_limit(map, count as u64);
            fits.then_some(())
                .ok_or_else(|| over_limit(format!("{call} {what} of {count} element(s)")))
        };
        match kind {
            EventKind::WinCreate { win: w, .. }
            | EventKind::Fence { win: w }
            | EventKind::WinFree { win: w } => win(w).map(drop),
            EventKind::Lock { win, target: t, .. }
            | EventKind::Unlock { win, target: t }
            | EventKind::Flush { win, target: t } => target(win, *t).map(drop),
            EventKind::Rma(op) | EventKind::RmaReq { op, .. } => {
                let exposed = target(&op.win, op.target)?;
                let (o, t) = (dtype(op.origin_dtype)?, dtype(op.target_dtype)?);
                origin(o, op.origin_count, op.origin_addr)?;
                in_window(exposed, t, op.target_count, op.target_disp)
                    .map_err(of_target(op.target, op.win))?;
                limit(o, op.origin_count, "origin buffer")?;
                return limit(t, op.target_count, "target footprint");
            }
            // A primitive type is dense, so an atomic is never over the limit.
            EventKind::RmaAtomic(op) => {
                let exposed = target(&op.win, op.target)?;
                if op.dtype.primitive_size().is_none() {
                    return Err(format!("{call} uses non-primitive {}", op.dtype).into());
                }
                let elem = dtype(op.dtype)?;
                for addr in [op.origin_addr, op.result_addr].into_iter().chain(op.compare_addr) {
                    origin(elem, op.count, addr)?;
                }
                in_window(exposed, elem, op.count, op.target_disp)
                    .map_err(of_target(op.target, op.win))
            }
            EventKind::Send { comm, to: peer, .. }
            | EventKind::Isend { comm, to: peer, .. }
            | EventKind::Recv { comm, from: peer, .. }
            | EventKind::Irecv { comm, from: peer, .. } => member(comm, *peer, "peer"),
            EventKind::Bcast { comm, root, .. } | EventKind::Reduce { comm, root, .. } => {
                member(comm, *root, "root")
            }
            EventKind::Barrier { comm } | EventKind::Allreduce { comm, .. } => {
                self.comms.get(comm).map(drop).ok_or_else(|| format!("{call} on unknown {comm}"))
            }
            EventKind::Post { group, .. } | EventKind::Start { group, .. } => {
                (self.groups[rank.idx()].contains_key(group))
                    .then_some(())
                    .ok_or_else(|| format!("{call} references unknown {group}"))
            }
            EventKind::Load { addr, len } | EventKind::Store { addr, len } => {
                addr.checked_add(*len).map(drop).ok_or_else(|| {
                    format!("{call} of {len} byte(s) at {addr:#x} wraps the address space")
                })
            }
            EventKind::RankFailed { failed, .. } => {
                (failed.idx() < self.nprocs).then_some(()).ok_or_else(|| {
                    format!("{call} names {failed}, outside the {}-rank run", self.nprocs)
                })
            }
            // Definitions were checked as they were built. Closes are
            // no-ops when nothing is open, waits on unknown requests are
            // ignored, query calls and the other failure/recovery markers
            // reference no table.
            _ => Ok(()),
        }
        .map_err(Refusal::from)
    }
}

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

    fn put(target: u32, count: u32, dtype: DatatypeId, disp: u64) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 500,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: count,
            target_dtype: dtype,
        })
    }

    /// `kind`, logged by rank 0 after the two-rank window of
    /// [`two_rank_win_trace`] (rank 0's base 100, rank 1's 200, 64 bytes
    /// each), as the one error the resolver reports.
    fn refused(kind: EventKind) -> TraceError {
        let mut t = two_rank_win_trace();
        t.procs[0].events.push(mcc_types::Event::new(kind, mcc_types::LocId::UNKNOWN));
        let (_, errors) = resolve(&t);
        assert_eq!(errors.len(), 1, "{errors:?}");
        let e = try_preprocess(&t).unwrap_err();
        assert_eq!(e, errors[0]);
        e
    }

    #[test]
    fn unknown_dtype_is_a_trace_error() {
        let e = refused(put(1, 1, DatatypeId(99), 0));
        assert_eq!((e.rank, e.idx, e.call), (Rank(0), 1, "MPI_Put"));
        assert_eq!(e.to_string(), "P0#1: MPI_Put uses unknown dtype99");
    }

    #[test]
    fn bad_handles_and_ranks_are_trace_errors() {
        assert!(refused(put(9, 1, DatatypeId::INT, 0)).what.contains("target P9 out of range"));
        let mut wrong_win = put(1, 1, DatatypeId::INT, 0);
        let EventKind::Rma(op) = &mut wrong_win else { unreachable!() };
        op.win = WinId(5);
        assert_eq!(refused(wrong_win).what, "MPI_Put on incomplete win5");
        let send =
            EventKind::Send { comm: CommId::WORLD, to: Rank(2), tag: mcc_types::Tag(0), bytes: 4 };
        assert!(refused(send).what.contains("peer P2 out of range"));
    }

    #[test]
    fn footprints_are_bounded_before_they_are_built() {
        // 4e9 ints would be 16 GB of target window; the window has 64.
        let e = refused(put(1, 4_000_000_000, DatatypeId::INT, 0));
        assert!(e.what.contains("runs past the 64-byte exposure of target P1"), "{e}");
        assert!(refused(put(1, 2, DatatypeId::INT, 60)).what.contains("runs past"));
        assert!(refused(put(1, 1, DatatypeId::INT, u64::MAX - 2)).what.contains("runs past"));
        let store = EventKind::Store { addr: u64::MAX - 1, len: 4 };
        assert!(refused(store).what.contains("wraps the address space"));
        // In bounds, and a zero-count transfer touches nothing.
        let mut t = two_rank_win_trace();
        for kind in [put(1, 16, DatatypeId::INT, 0), put(1, 0, DatatypeId::INT, 64)] {
            t.procs[0].events.push(mcc_types::Event::new(kind, mcc_types::LocId::UNKNOWN));
        }
        assert!(resolve(&t).1.is_empty());
    }

    #[test]
    fn oversized_datatypes_are_refused_not_allocated() {
        let strided = EventKind::TypeVector {
            new: DatatypeId(20),
            count: u32::MAX,
            blocklen: 1,
            stride: 2,
            elem: DatatypeId::INT,
        };
        let e = refused(strided);
        assert!(e.over_limit && e.what.contains("the checker's limit"), "{e}");
        assert_eq!(e.headline(), "trace exceeds a checker limit");
        // A vector of two million ints, every other one, is valid MPI and
        // within the limit.
        let mut t = two_rank_win_trace();
        let vector = EventKind::TypeVector {
            new: DatatypeId(22),
            count: 2 << 20,
            blocklen: 1,
            stride: 2,
            elem: DatatypeId::INT,
        };
        t.procs[0].events.push(mcc_types::Event::new(vector, mcc_types::LocId::UNKNOWN));
        assert!(resolve(&t).1.is_empty());
        // A dense type of any count stays one segment.
        let dense = EventKind::TypeContiguous {
            new: DatatypeId(21),
            count: u32::MAX,
            elem: DatatypeId::INT,
        };
        let mut t = two_rank_win_trace();
        t.procs[0].events.push(mcc_types::Event::new(dense, mcc_types::LocId::UNKNOWN));
        let (ctx, errors) = resolve(&t);
        assert!(errors.is_empty());
        assert_eq!(ctx.resolve_dtype(Rank(0), DatatypeId(21)).map.segments().len(), 1);
    }

    #[test]
    fn incomplete_window_refuses_every_reference() {
        let mut t = Trace::new(2);
        let create = EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD };
        for kind in [create, EventKind::Fence { win: WinId(0) }] {
            t.procs[0].events.push(mcc_types::Event::new(kind, mcc_types::LocId::UNKNOWN));
        }
        let (ctx, errors) = resolve(&t);
        assert!(ctx.wins.is_empty());
        let at: Vec<_> = errors.iter().map(|e| (e.rank, e.idx)).collect();
        assert_eq!(at, vec![(Rank(0), 0), (Rank(0), 1)]);
        assert_eq!(errors[0].to_string(), "P0#0: MPI_Win_create on incomplete win0");
    }

    #[test]
    #[should_panic(expected = "P0#1: MPI_Put uses unknown dtype99")]
    fn preprocess_panics_with_the_trace_error_text() {
        let mut t = two_rank_win_trace();
        t.procs[0]
            .events
            .push(mcc_types::Event::new(put(1, 1, DatatypeId(99), 0), mcc_types::LocId::UNKNOWN));
        preprocess(&t);
    }
}
