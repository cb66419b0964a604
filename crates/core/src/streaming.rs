//! Online (streaming) analysis — the paper's stated future work:
//! "While MC-Checker analyzes the traces offline, we can extend it to
//! perform online analysis by leveraging streaming processing algorithms"
//! (§VII-B).
//!
//! The key enabler is the concurrent-region theorem of §III-B: operations
//! separated by a global synchronization can never conflict. The
//! [`StreamingChecker`] therefore buffers events only until every rank has
//! passed its next global synchronization point, analyzes that region
//! with the ordinary pipeline, emits its findings, and discards the
//! region's events — memory stays bounded by the largest region plus the
//! (small) registry events that must persist (window/datatype/group
//! definitions).
//!
//! # Batch equivalence
//!
//! Findings are reported exactly as the batch [`AnalysisSession`] would
//! report them — same event references, same epoch numbers, same
//! canonical order, same surviving representative per deduplicated
//! conflict — so a streamed report and a batch report over the same
//! trace are byte-comparable. Three mechanisms make this work:
//!
//! * every finding's [`EventRef`] is remapped from its region-local index
//!   back to the event's position in the rank's full stream;
//! * epochs are numbered by **per-rank ordinal** (their position among
//!   the rank's epochs), which is invariant under splitting the trace at
//!   global synchronization, and each flushed region advances a per-rank
//!   base so ordinals stay continuous across regions;
//! * deduplication keeps, for each source-level conflict, the occurrence
//!   with the smallest [`ConsistencyError::canonical_key`] seen in *any*
//!   region — the same representative the batch canonical
//!   sort-then-dedup selects — and [`StreamingChecker::finish`] returns
//!   the survivors in canonical order.
//!
//! # Bounded memory
//!
//! A stream that never reaches a global synchronization would otherwise
//! buffer without bound. [`StreamingChecker::set_high_watermark`] caps
//! the buffer: when it fills and no region is flushable, the checker
//! *evicts* — it analyzes everything buffered as one partial region in
//! degraded mode (epoch closes synthesized via [`crate::degrade`]),
//! drops the buffer, and downgrades the session to
//! [`Confidence::Degraded`], since a conflict between an evicted event
//! and a later one can no longer be observed.
//!
//! Known limitation (inherent to discarding flushed regions): an epoch
//! that *spans* a global synchronization point is analyzed piecewise, so
//! an intra-epoch pair straddling the boundary is missed. Well-formed
//! programs close epochs before global synchronization; the batch
//! checker remains the completeness reference.

use crate::preprocess::TraceError;
use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo};
use crate::session::AnalysisSession;
use mcc_types::{CommId, EventKind, EventRef, Rank, SourceLoc, Trace, TraceBuilder, WinId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

/// Why the streaming checker rejected a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A checker must cover at least one rank.
    ZeroRanks,
    /// An event named a rank outside `0..nprocs`.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// The checker's world size.
        nprocs: usize,
    },
    /// A region held an event the resolver refuses; its rank and index
    /// are the event's position in the stream.
    Trace(TraceError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::ZeroRanks => f.write_str("a streaming checker needs at least one rank"),
            StreamError::RankOutOfRange { rank, nprocs } => {
                write!(f, "event names rank {rank}, but the session covers {nprocs} rank(s)")
            }
            StreamError::Trace(e) => write!(f, "{}: {e}", e.headline()),
        }
    }
}

impl std::error::Error for StreamError {}

/// Estimated resident cost, in bytes, of one buffered event: the inline
/// `(EventKind, SourceLoc)` pair plus every heap allocation hanging off
/// it (location strings, datatype field tables, group rank lists). The
/// estimate is deterministic — a pure function of the event, never of
/// allocator behavior — so any byte-denominated policy built on it
/// (quotas, the daemon's memory accountant) makes the same decisions on
/// every run and on journal replay.
pub fn event_cost(kind: &EventKind, loc: &SourceLoc) -> usize {
    let heap = match kind {
        EventKind::TypeStruct { fields, .. } => {
            fields.capacity() * std::mem::size_of::<(u64, u32, mcc_types::DatatypeId)>()
        }
        EventKind::GroupIncl { ranks, .. } => ranks.capacity() * std::mem::size_of::<u32>(),
        _ => 0,
    };
    std::mem::size_of::<(EventKind, SourceLoc)>() + loc.file.len() + loc.func.len() + heap
}

/// Incremental, bounded-memory checker.
pub struct StreamingChecker {
    nprocs: usize,
    session: AnalysisSession,
    /// Registry events that must survive region flushes, per rank.
    ctx_events: Vec<Vec<(EventKind, SourceLoc)>>,
    /// Each registry event's index in its rank's stream.
    ctx_pos: Vec<Vec<usize>>,
    /// Buffered (unflushed) events per rank.
    buf: Vec<Vec<(EventKind, SourceLoc)>>,
    /// Boundary (global-sync) indices inside `buf`, per rank.
    boundaries: Vec<Vec<usize>>,
    /// Window → communicator table learned from WinCreate events.
    win_comm: HashMap<WinId, CommId>,
    /// Communicators known to span all ranks.
    world_comms: HashSet<CommId>,
    /// Canonical-minimum finding per dedup key, event refs remapped to
    /// the full stream. Bounded by the number of distinct source-level
    /// conflicts, not by trace length.
    best: HashMap<String, ConsistencyError>,
    /// Events already consumed (flushed or evicted) per rank — the global
    /// stream index of each rank's first buffered event.
    consumed: Vec<usize>,
    /// Per-rank epoch ordinal base: epochs owned by each rank in regions
    /// analyzed so far.
    epoch_base: Vec<u32>,
    /// Buffered-event cap; exceeding it with no flushable region evicts.
    high_watermark: Option<usize>,
    degraded: bool,
    /// A failure notification passed through the stream; the failed
    /// rank's unflushed tail is handled by the failure-aware pipeline at
    /// the final drain.
    recovered: bool,
    /// Regions flushed so far.
    pub regions_flushed: usize,
    /// High-water mark of buffered events (the memory bound).
    pub peak_buffered: usize,
    /// Estimated bytes currently buffered (see [`event_cost`]).
    buffered_bytes: usize,
    /// High-water mark of [`Self::buffered_bytes`].
    pub peak_buffered_bytes: usize,
    /// Partial regions force-analyzed at the high watermark.
    pub evictions: usize,
    /// When the first event arrived — the start of the first-finding
    /// latency clock (ROADMAP's time-to-first-finding metric).
    first_event_at: Option<Instant>,
    /// Whether the first-finding latency was already observed.
    first_finding_seen: bool,
}

impl StreamingChecker {
    /// Creates a streaming checker for `nprocs` ranks with the default
    /// (paper-configuration) analysis session.
    pub fn new(nprocs: usize) -> Result<Self, StreamError> {
        Self::with_session(nprocs, AnalysisSession::new())
    }

    /// Creates a streaming checker that analyzes regions with a custom
    /// session (engine, recorder, ...).
    pub fn with_session(nprocs: usize, session: AnalysisSession) -> Result<Self, StreamError> {
        if nprocs == 0 {
            return Err(StreamError::ZeroRanks);
        }
        let mut world_comms = HashSet::new();
        world_comms.insert(CommId::WORLD);
        Ok(Self {
            nprocs,
            session,
            ctx_events: vec![Vec::new(); nprocs],
            ctx_pos: vec![Vec::new(); nprocs],
            buf: vec![Vec::new(); nprocs],
            boundaries: vec![Vec::new(); nprocs],
            win_comm: HashMap::new(),
            world_comms,
            best: HashMap::new(),
            consumed: vec![0; nprocs],
            epoch_base: vec![0; nprocs],
            high_watermark: None,
            degraded: false,
            recovered: false,
            regions_flushed: 0,
            peak_buffered: 0,
            buffered_bytes: 0,
            peak_buffered_bytes: 0,
            evictions: 0,
            first_event_at: None,
            first_finding_seen: false,
        })
    }

    /// Caps the number of buffered events. When the cap is reached and no
    /// region is flushable, the buffer is analyzed as a degraded partial
    /// region and dropped instead of growing without bound. `None`
    /// removes the cap.
    pub fn set_high_watermark(&mut self, cap: Option<usize>) {
        self.high_watermark = cap.map(|c| c.max(1));
    }

    /// Events currently buffered across all ranks.
    pub fn buffered(&self) -> usize {
        self.buf.iter().map(Vec::len).sum()
    }

    /// Estimated bytes currently buffered across all ranks — the
    /// per-event [`event_cost`] summed over every unflushed event. This
    /// is what the daemon's memory accountant charges against its global
    /// ceiling; it is maintained incrementally, so reading it is O(1).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Whether any eviction or degraded analysis happened; if so, the
    /// final findings carry [`Confidence::Degraded`].
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether a failure notification was streamed: the session covers a
    /// survivable rank failure, and the overall verdict is
    /// [`Confidence::Recovered`] (unless also degraded, which wins).
    pub fn is_recovered(&self) -> bool {
        self.recovered
    }

    /// The session's overall confidence so far: degraded beats recovered
    /// beats complete.
    pub fn confidence(&self) -> Confidence {
        if self.is_degraded() {
            Confidence::Degraded
        } else if self.is_recovered() {
            Confidence::Recovered
        } else {
            Confidence::Complete
        }
    }

    /// Distinct source-level conflicts found so far.
    pub fn findings_so_far(&self) -> usize {
        self.best.len()
    }

    fn is_registry(kind: &EventKind) -> bool {
        matches!(
            kind,
            EventKind::WinCreate { .. }
                | EventKind::TypeContiguous { .. }
                | EventKind::TypeVector { .. }
                | EventKind::TypeStruct { .. }
                | EventKind::GroupIncl { .. }
                | EventKind::CommGroup { .. }
                | EventKind::CommCreate { .. }
        )
    }

    fn is_global_sync(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::Barrier { comm }
            | EventKind::Bcast { comm, .. }
            | EventKind::Reduce { comm, .. }
            | EventKind::Allreduce { comm, .. } => self.world_comms.contains(comm),
            EventKind::Fence { win } | EventKind::WinFree { win } => {
                self.win_comm.get(win).is_some_and(|c| self.world_comms.contains(c))
            }
            EventKind::WinCreate { comm, .. } => self.world_comms.contains(comm),
            _ => false,
        }
    }

    /// Feeds one event from `rank`'s instrumentation stream. Returns any
    /// findings completed by this event (i.e. the analysis of a region
    /// that just became flushable, or of a partial region evicted at the
    /// high watermark), or [`StreamError::Trace`] if the flushed region
    /// does not resolve — the stream has no coherent continuation then.
    pub fn push(
        &mut self,
        rank: Rank,
        kind: EventKind,
        loc: SourceLoc,
    ) -> Result<Vec<ConsistencyError>, StreamError> {
        let r = rank.idx();
        if r >= self.nprocs {
            return Err(StreamError::RankOutOfRange { rank: rank.0, nprocs: self.nprocs });
        }
        self.session.recorder().add("stream_events_total", 1);
        if self.first_event_at.is_none() {
            self.first_event_at = Some(Instant::now());
        }
        // Maintain the lightweight registry needed for boundary detection.
        match &kind {
            EventKind::WinCreate { win, comm, .. } => {
                self.win_comm.insert(*win, *comm);
            }
            EventKind::CommCreate { new: Some(_c), .. } => {
                // Sub-communicators never span all ranks unless they
                // mirror the world; conservatively treat them as local
                // (their collectives do not flush regions).
            }
            _ => {}
        }
        if matches!(kind, EventKind::RankFailed { .. }) {
            self.recovered = true;
        }
        if self.is_global_sync(&kind) {
            self.boundaries[r].push(self.buf[r].len());
        }
        self.buffered_bytes += event_cost(&kind, &loc);
        self.peak_buffered_bytes = self.peak_buffered_bytes.max(self.buffered_bytes);
        self.buf[r].push((kind, loc));
        let buffered = self.buffered();
        self.peak_buffered = self.peak_buffered.max(buffered);

        if self.boundaries.iter().all(|b| !b.is_empty()) {
            self.flush_region().map_err(StreamError::Trace)
        } else if self.high_watermark.is_some_and(|cap| buffered >= cap) {
            Ok(self.evict())
        } else {
            Ok(Vec::new())
        }
    }

    /// Replays a recorded event stream — the recovery entry point. The
    /// events must be in their original ingest order (e.g. read back
    /// from a session journal); pushing them one by one rebuilds the
    /// checker's exact mid-stream state, so a caller that sets the same
    /// high watermark *before* replaying gets the same flushes and
    /// evictions — and ultimately the byte-identical report — the
    /// uninterrupted run would have produced. Returns the number of
    /// events replayed.
    pub fn replay<I>(&mut self, events: I) -> Result<u64, StreamError>
    where
        I: IntoIterator<Item = (Rank, EventKind, SourceLoc)>,
    {
        let mut n = 0u64;
        for (rank, kind, loc) in events {
            self.push(rank, kind, loc)?;
            n += 1;
        }
        Ok(n)
    }

    /// Advances each rank's consumed-event count after a drain.
    fn advance_consumed(&mut self, cuts: &[usize]) {
        for (c, n) in self.consumed.iter_mut().zip(cuts) {
            *c += n;
        }
    }

    /// Cuts one region (through each rank's first boundary) and analyzes
    /// it together with the persistent registry events.
    fn flush_region(&mut self) -> Result<Vec<ConsistencyError>, TraceError> {
        let _span = self.session.recorder().span("stream.flush_region");
        let flush_started = Instant::now();
        self.session.recorder().add("stream_regions_flushed_total", 1);
        let cuts = self.boundaries.iter().map(|b| b[0] + 1).collect();
        let (trace, ctx_counts, cuts) = self.cut(cuts);
        self.regions_flushed += 1;
        let fresh = self.analyze_region(&trace, &ctx_counts, false);
        self.advance_consumed(&cuts);
        self.session
            .recorder()
            .observe(mcc_obs::names::REGION_FLUSH_US, flush_started.elapsed().as_micros() as u64);
        fresh
    }

    /// Drains *everything* buffered into one trace (no boundary needed) —
    /// the final drain of `finish`, and the partial region of an
    /// eviction or a degraded salvage.
    fn drain_all(&mut self) -> (Trace, Vec<usize>, Vec<usize>) {
        let all = self.buf.iter().map(Vec::len).collect();
        self.cut(all)
    }

    /// Cuts the first `cuts[r]` buffered events of each rank into one
    /// region trace, behind the persistent registry events. Returns the
    /// trace, each rank's registry prefix length, and the cuts.
    fn cut(&mut self, cuts: Vec<usize>) -> (Trace, Vec<usize>, Vec<usize>) {
        let ctx_counts: Vec<usize> = self.ctx_events.iter().map(Vec::len).collect();
        let mut b = TraceBuilder::new(self.nprocs);
        #[allow(clippy::needless_range_loop)] // r indexes five parallel per-rank arrays
        for r in 0..self.nprocs {
            let rank = Rank(r as u32);
            for (kind, loc) in &self.ctx_events[r] {
                b.push_at(rank, kind.clone(), loc.clone());
            }
            let rest = self.buf[r].split_off(cuts[r]);
            for (i, (kind, loc)) in
                std::mem::replace(&mut self.buf[r], rest).into_iter().enumerate()
            {
                self.buffered_bytes = self.buffered_bytes.saturating_sub(event_cost(&kind, &loc));
                if Self::is_registry(&kind) {
                    self.ctx_pos[r].push(self.consumed[r] + i);
                    self.ctx_events[r].push((kind.clone(), loc.clone()));
                }
                b.push_at(rank, kind, loc);
            }
            // Boundaries index the buffer: drop the cut ones, shift the rest.
            self.boundaries[r].retain(|&at| at >= cuts[r]);
            for at in self.boundaries[r].iter_mut() {
                *at -= cuts[r];
            }
        }
        (b.build(), ctx_counts, cuts)
    }

    /// Analyzes everything buffered as a degraded partial region and
    /// drops it. Called at the high watermark; conflicts between evicted
    /// events and later ones can no longer be observed, so the session is
    /// degraded from here on.
    fn evict(&mut self) -> Vec<ConsistencyError> {
        let _span = self.session.recorder().span("stream.evict");
        self.session.recorder().add("stream_evictions_total", 1);
        mcc_obs::log!(
            Warn,
            "streaming buffer hit the high watermark with no flushable region; \
             evicting {} buffered event(s) in degraded mode",
            self.buffered()
        );
        self.degraded = true;
        self.evictions += 1;
        let (trace, ctx_counts, cuts) = self.drain_all();
        // The repair cannot fail.
        let fresh = self.analyze_region(&trace, &ctx_counts, true).unwrap_or_default();
        self.advance_consumed(&cuts);
        fresh
    }

    /// Remaps a finding's event reference from its region-local index to
    /// the event's position in the rank's full stream, and its epoch
    /// index to the global per-rank ordinal. Findings never reference the
    /// replayed registry events at the front of a region trace (only RMA
    /// operations and local accesses appear in findings), so subtracting
    /// the replay prefix is always in range.
    fn remap_op(&self, o: &mut OpInfo, ctx_counts: &[usize]) {
        let r = o.rank.idx();
        debug_assert!(o.ev.idx >= ctx_counts[r], "findings never cite replayed registry events");
        let global = self.consumed[r] + o.ev.idx.saturating_sub(ctx_counts[r]);
        o.ev = EventRef::new(o.rank, global);
        if let Some(e) = o.epoch.as_mut() {
            *e += self.epoch_base[r];
        }
    }

    /// Maps a region-local event reference to the event's position in its
    /// rank's full stream: replayed registry events first, then the
    /// region's own events after everything already consumed.
    fn stream_ref(&self, er: EventRef, ctx_counts: &[usize]) -> EventRef {
        let r = er.rank.idx();
        let idx = match er.idx.checked_sub(ctx_counts[r]) {
            Some(own) => self.consumed[r] + own,
            // A replayed event: one of the first `ctx_counts[r]` entries.
            None => self.ctx_pos[r][er.idx],
        };
        EventRef::new(er.rank, idx)
    }

    /// Runs the batch pipeline over one region trace — strictly, or
    /// through the repair when `degraded` (which cannot fail) — remaps
    /// the findings into full-stream coordinates, and merges them into
    /// the canonical-minimum table. Returns the findings whose dedup key
    /// was new, in canonical order, or the region's first invalid event
    /// in stream coordinates.
    fn analyze_region(
        &mut self,
        trace: &Trace,
        ctx_counts: &[usize],
        degraded: bool,
    ) -> Result<Vec<ConsistencyError>, TraceError> {
        let report = if degraded {
            self.session.run_with_repair(trace).0
        } else {
            self.session.try_run(trace).map_err(|mut e| {
                let at = self.stream_ref(EventRef::new(e.rank, e.idx), ctx_counts);
                e.idx = at.idx;
                for c in &mut e.cycle {
                    *c = self.stream_ref(*c, ctx_counts);
                }
                e
            })?
        };
        let mut fresh = Vec::new();
        for mut e in report.diagnostics {
            self.remap_op(&mut e.a, ctx_counts);
            self.remap_op(&mut e.b, ctx_counts);
            if self.degraded {
                e.confidence = Confidence::Degraded;
            }
            match self.best.entry(e.dedup_key()) {
                Entry::Vacant(v) => {
                    v.insert(e.clone());
                    fresh.push(e);
                }
                Entry::Occupied(mut o) => {
                    // Keep the canonically smallest occurrence — the same
                    // representative the batch sort-then-dedup keeps.
                    if e.canonical_key() < o.get().canonical_key() {
                        o.insert(e);
                    }
                }
            }
        }
        for (r, n) in report.stats.epochs_per_rank.iter().enumerate() {
            self.epoch_base[r] += *n as u32;
        }
        fresh.sort_by_key(batch_order);
        if !fresh.is_empty() && !self.first_finding_seen {
            self.first_finding_seen = true;
            if let Some(t0) = self.first_event_at {
                self.session.recorder().observe(
                    mcc_obs::names::FIRST_FINDING_LATENCY_US,
                    t0.elapsed().as_micros() as u64,
                );
            }
        }
        Ok(fresh)
    }

    /// The accumulated findings in canonical order.
    fn collect(self) -> Vec<ConsistencyError> {
        let degraded = self.degraded;
        let mut out: Vec<ConsistencyError> = self.best.into_values().collect();
        out.sort_by_key(batch_order);
        if degraded {
            for e in &mut out {
                e.confidence = Confidence::Degraded;
            }
        }
        out
    }

    /// Flushes whatever remains and returns all findings in canonical
    /// order — byte-comparable with the batch report when the stream was
    /// complete and no eviction happened. A final partial region that
    /// does not resolve is analyzed through the repair instead, and the
    /// session ends degraded.
    pub fn finish(mut self) -> Vec<ConsistencyError> {
        let _span = self.session.recorder().span("stream.finish");
        if let Err(e) = self.drain_final() {
            mcc_obs::log!(Warn, "final region does not resolve ({e}); repaired it");
        }
        self.collect()
    }

    /// [`finish`](Self::finish) for strict callers: a final partial
    /// region that does not resolve is the error, as in
    /// [`push`](Self::push).
    pub fn try_finish(mut self) -> Result<Vec<ConsistencyError>, StreamError> {
        let _span = self.session.recorder().span("stream.finish");
        self.drain_final().map_err(StreamError::Trace)?;
        Ok(self.collect())
    }

    /// Analyzes whatever is still buffered: strictly, or — degrading the
    /// session — through the repair when that fails. Returns the strict
    /// failure.
    fn drain_final(&mut self) -> Result<(), TraceError> {
        if self.buffered() == 0 {
            return Ok(());
        }
        let (trace, ctx_counts, cuts) = self.drain_all();
        let strict = self.analyze_region(&trace, &ctx_counts, false);
        if strict.is_err() {
            self.degraded = true;
            // The repair cannot fail.
            self.analyze_region(&trace, &ctx_counts, true).unwrap_or_default();
        }
        self.advance_consumed(&cuts);
        strict.map(drop)
    }

    /// Salvages a session that ended abnormally (client died mid-stream,
    /// idle timeout): the remaining buffer is analyzed in degraded mode —
    /// truncated epochs get synthesized closes via [`crate::degrade`] —
    /// and **every** finding is downgraded to [`Confidence::Degraded`],
    /// because the unseen tail could have contained synchronization that
    /// changes any verdict.
    pub fn finish_degraded(mut self) -> Vec<ConsistencyError> {
        let _span = self.session.recorder().span("stream.finish");
        self.degraded = true;
        if self.buffered() > 0 {
            let (trace, ctx_counts, cuts) = self.drain_all();
            // The repair cannot fail.
            self.analyze_region(&trace, &ctx_counts, true).unwrap_or_default();
            self.advance_consumed(&cuts);
        }
        self.collect()
    }

    /// Streams a complete trace through the checker, strictly: an event
    /// the resolver refuses, in any region, is the error (`mcc check
    /// --streaming` and the equivalence tests).
    pub fn run_over(trace: &Trace) -> Result<(Vec<ConsistencyError>, StreamingStats), StreamError> {
        let mut sc = StreamingChecker::new(trace.nprocs())?;
        for (rank, kind, loc) in trace.stream_order() {
            sc.push(rank, kind, loc)?;
        }
        let stats = StreamingStats {
            regions_flushed: sc.regions_flushed,
            peak_buffered: sc.peak_buffered,
            peak_buffered_bytes: sc.peak_buffered_bytes,
            total_events: trace.total_events(),
            evictions: sc.evictions,
            confidence: sc.confidence(),
        };
        Ok((sc.try_finish()?, stats))
    }
}

/// The batch report's total order. The batch pipeline stably sorts by
/// [`ConsistencyError::canonical_key`] over findings generated intra
/// before inter, so when one event pair yields both an intra-epoch and a
/// cross-process finding (equal canonical keys, distinct dedup keys) the
/// intra-epoch one comes first. The streaming checker accumulates
/// findings in a hash map, which loses that generation order, so the
/// scope class is restored here as an explicit tiebreaker.
fn batch_order(e: &ConsistencyError) -> ((EventRef, EventRef, u64, u64), u8) {
    let class = match e.scope {
        ErrorScope::IntraEpoch { .. } => 0,
        ErrorScope::CrossProcess { .. } => 1,
    };
    (e.canonical_key(), class)
}

/// Memory-profile statistics of a streaming run.
#[derive(Debug, Clone, Copy)]
pub struct StreamingStats {
    /// Regions flushed before the final drain.
    pub regions_flushed: usize,
    /// Maximum simultaneously buffered events.
    pub peak_buffered: usize,
    /// Maximum simultaneously buffered bytes (estimated).
    pub peak_buffered_bytes: usize,
    /// Events processed in total.
    pub total_events: usize,
    /// Partial regions force-analyzed at the high watermark.
    pub evictions: usize,
    /// The run's overall verdict class ([`StreamingChecker::confidence`]
    /// once the last event was pushed) — with "any error finding?", the
    /// two inputs of the exit-code contract.
    pub confidence: Confidence,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{DatatypeId, RmaKind, RmaOp};

    fn put(target: u32) -> EventKind {
        EventKind::Rma(RmaOp {
            kind: RmaKind::Put,
            win: WinId(0),
            target: Rank(target),
            origin_addr: 0x200,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: 0,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    }

    /// Many fence-separated rounds, one conflict in round 5.
    fn rounds_trace(rounds: usize) -> Trace {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        for round in 0..rounds {
            if round == 5 {
                b.push(Rank(0), put(1));
                b.push(Rank(1), EventKind::Store { addr: 0x40, len: 4 });
            } else {
                b.push(Rank(0), put(1));
            }
            for r in 0..2u32 {
                b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            }
        }
        b.build()
    }

    #[test]
    fn zero_ranks_rejected() {
        assert_eq!(StreamingChecker::new(0).err(), Some(StreamError::ZeroRanks));
        assert!(StreamError::ZeroRanks.to_string().contains("at least one rank"));
    }

    #[test]
    fn invalid_regions_are_trace_errors_in_stream_coordinates() {
        // Round 7's put names target 9: the flush of its region fails,
        // naming the put's position in rank 0's whole stream.
        let mut trace = rounds_trace(10);
        let mut puts = trace.procs[0].events.iter().enumerate().filter(|(_, e)| e.kind.is_rma_op());
        let (idx, _) = puts.nth(7).unwrap();
        trace.procs[0].events[idx].kind = put(9);
        match StreamingChecker::run_over(&trace) {
            Err(StreamError::Trace(e)) => {
                assert_eq!((e.rank, e.idx), (Rank(0), idx));
                assert!(e.what.contains("target P9 out of range"), "{e}");
            }
            other => panic!("{other:?}"),
        }
        // A bad event in the final partial region: `try_finish` refuses
        // it, `finish` repairs it.
        let stream = |t: &Trace| {
            let mut sc = StreamingChecker::new(2).unwrap();
            for (rank, kind, loc) in t.stream_order() {
                sc.push(rank, kind, loc).unwrap();
            }
            sc
        };
        let mut tail = rounds_trace(2);
        tail.procs[0].events.push(mcc_types::Event::new(put(9), mcc_types::LocId(0)));
        assert!(matches!(stream(&tail).try_finish(), Err(StreamError::Trace(_))));
        let repaired = stream(&tail).finish();
        assert_eq!(repaired, StreamingChecker::run_over(&rounds_trace(2)).unwrap().0);
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let mut sc = StreamingChecker::new(2).unwrap();
        let err = sc.push(Rank(2), put(1), SourceLoc::unknown()).unwrap_err();
        assert_eq!(err, StreamError::RankOutOfRange { rank: 2, nprocs: 2 });
        assert!(err.to_string().contains("rank 2"));
    }

    #[test]
    fn streaming_matches_batch_exactly() {
        // Not just the same dedup keys: the same findings — event refs in
        // full-stream coordinates, per-rank epoch ordinals, canonical
        // order, canonical representative.
        let trace = rounds_trace(12);
        let batch = AnalysisSession::new().run(&trace);
        let (streamed, stats) = StreamingChecker::run_over(&trace).unwrap();
        assert_eq!(streamed, batch.diagnostics);
        assert!(stats.regions_flushed >= 10, "regions flushed incrementally");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn memory_stays_bounded() {
        // 100 rounds: the peak buffer must stay near one round's worth of
        // events, far below the total.
        let trace = rounds_trace(100);
        let (_, stats) = StreamingChecker::run_over(&trace).unwrap();
        assert!(
            stats.peak_buffered * 4 < stats.total_events,
            "peak {} vs total {}",
            stats.peak_buffered,
            stats.total_events
        );
    }

    #[test]
    fn incremental_findings_surface_early() {
        let trace = rounds_trace(12);
        let mut sc = StreamingChecker::new(2).unwrap();
        let found_at = trace
            .stream_order()
            .position(|(rank, kind, loc)| !sc.push(rank, kind, loc).unwrap().is_empty())
            .map(|i| i + 1);
        let total = trace.total_events();
        let at = found_at.expect("conflict reported during the stream");
        assert!(at < total, "finding surfaced before the end ({at}/{total})");
    }

    #[test]
    fn clean_stream_reports_nothing() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let (findings, _) = StreamingChecker::run_over(&b.build()).unwrap();
        assert!(findings.is_empty());
    }

    /// A stream with no global synchronization at all: the high watermark
    /// must bound memory by evicting partial regions, and the result is
    /// degraded — never an unbounded buffer.
    #[test]
    fn high_watermark_evicts_and_degrades() {
        let mut sc = StreamingChecker::new(2).unwrap();
        sc.set_high_watermark(Some(16));
        for r in 0..2u32 {
            sc.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
                SourceLoc::unknown(),
            )
            .unwrap();
        }
        // Rank 0 locks and floods puts; rank 1 stays silent, so no global
        // sync ever completes and nothing is flushable.
        sc.push(
            Rank(0),
            EventKind::Lock { win: WinId(0), target: Rank(1), kind: mcc_types::LockKind::Shared },
            SourceLoc::unknown(),
        )
        .unwrap();
        for i in 0..64u32 {
            sc.push(Rank(0), put(1), SourceLoc::new("flood.c", i, "main")).unwrap();
            assert!(sc.buffered() <= 16, "buffer stays at or below the watermark");
        }
        assert!(sc.evictions >= 1, "eviction happened");
        assert!(sc.is_degraded());
        let findings = sc.finish();
        assert!(findings.iter().all(|e| e.confidence == Confidence::Degraded));
    }

    /// A session killed mid-stream: `finish_degraded` salvages what was
    /// buffered (synthesizing the missing epoch close) and every finding
    /// is downgraded.
    #[test]
    fn finish_degraded_salvages_partial_region() {
        let mut sc = StreamingChecker::new(2).unwrap();
        for r in 0..2u32 {
            sc.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
                SourceLoc::unknown(),
            )
            .unwrap();
            sc.push(Rank(r), EventKind::Fence { win: WinId(0) }, SourceLoc::unknown()).unwrap();
        }
        // The intra-epoch bug: a put whose origin buffer is stored to
        // before the (never-seen) closing fence.
        sc.push(Rank(0), put(1), SourceLoc::new("kill.c", 3, "main")).unwrap();
        sc.push(
            Rank(0),
            EventKind::Store { addr: 0x200, len: 4 },
            SourceLoc::new("kill.c", 4, "main"),
        )
        .unwrap();
        let findings = sc.finish_degraded();
        assert!(!findings.is_empty(), "the pre-kill bug is salvaged");
        assert!(findings.iter().all(|e| e.confidence == Confidence::Degraded));
    }

    /// The byte accountant tracks every push and every drain: it charges
    /// the heap behind location strings, returns to (near) zero once the
    /// buffer is flushed, and records a peak that reflects the strings'
    /// length, not just the event count.
    #[test]
    fn buffered_bytes_follow_pushes_and_flushes() {
        let mut sc = StreamingChecker::new(2).unwrap();
        assert_eq!(sc.buffered_bytes(), 0);
        let long_func = "f".repeat(1000);
        for r in 0..2u32 {
            sc.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
                SourceLoc::unknown(),
            )
            .unwrap();
        }
        sc.push(Rank(0), put(1), SourceLoc::new("big.c", 1, &long_func)).unwrap();
        let with_big_loc = sc.buffered_bytes();
        assert!(with_big_loc >= 1000, "loc strings are charged ({with_big_loc} bytes)");
        assert_eq!(sc.peak_buffered_bytes, with_big_loc);
        // A fence on each rank makes the region flushable; the buffer
        // drains and the accountant follows it down.
        for r in 0..2u32 {
            sc.push(Rank(r), EventKind::Fence { win: WinId(0) }, SourceLoc::unknown()).unwrap();
        }
        assert_eq!(sc.buffered(), 0);
        assert_eq!(sc.buffered_bytes(), 0);
        assert_eq!(sc.peak_buffered_bytes, with_big_loc.max(sc.peak_buffered_bytes));
    }

    /// WinCreate counts as the first global synchronization, so the batch
    /// comparison holds from the very first region.
    #[test]
    fn streaming_matches_batch_on_multiwindow_trace() {
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 0x40, len: 0x40, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), put(1));
        b.push(Rank(2), put(1));
        b.push(Rank(1), EventKind::Store { addr: 0x40, len: 4 });
        for r in 0..3u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let trace = b.build();
        let batch = AnalysisSession::new().run(&trace);
        let (streamed, _) = StreamingChecker::run_over(&trace).unwrap();
        assert_eq!(streamed, batch.diagnostics);
        assert!(!streamed.is_empty());
    }
}
