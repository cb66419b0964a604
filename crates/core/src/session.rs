//! The analysis pipeline API: [`AnalysisSession`].
//!
//! A session owns the configuration of one analysis — conflict engine
//! and the ablation knobs — and runs the full
//! DN-Analyzer pipeline (preprocessing, synchronization matching, DAG
//! construction, vector clocks, concurrent-region and epoch extraction,
//! the two detectors) on any number of traces:
//!
//! ```
//! use mcc_core::session::{AnalysisSession, Engine};
//! # use mcc_types::{EventRef, Trace};
//! let session = AnalysisSession::builder().engine(Engine::Sweep).build();
//! let report = session.run(&Trace::new(2));
//! assert!(!report.has_errors());
//! ```
//!
//! # Strict and tolerant
//!
//! [`AnalysisSession::try_run`] is the strict entry: the first event the
//! resolver refuses ([`crate::preprocess::resolve`]) is its error.
//! [`AnalysisSession::run_with_repair`] is the one tolerant entry: it
//! drops every such event, closes what the damage left open, and marks the
//! report degraded. [`AnalysisSession::run`] is `try_run` for traces this
//! process built itself, and panics on an invalid one.
//!
//! # One thread per analysis
//!
//! One `run` is one thread, as in the paper's DN-Analyzer: the
//! intra-epoch detector walks the epochs in order, the cross-process
//! detector walks the `(region, window, target)` shards in order (the
//! grouping the sort-and-sweep needs — see [`crate::inter`]). Callers
//! that want more cores run independent analyses side by side — sessions
//! in the daemon, schedules in the explorer.
//!
//! # Determinism
//!
//! The order of findings is fixed by construction: epochs and shards are
//! enumerated in a fixed order. The findings are then stably sorted by
//! [`ConsistencyError::canonical_key`] — `(rank, event id, byte offset)`
//! of the two operations — before deduplication, so the report is
//! **bit-identical in both engines**: the sweep and the all-pairs oracle
//! discover the same pairs in different orders, and the sort picks the
//! same representative of a duplicated finding for both.

use crate::check::{AnalysisStats, CheckReport};
use crate::dag;
use crate::degrade::{self, DegradedInfo};
use crate::epoch;
use crate::inter;
use crate::intra;
use crate::matching;
use crate::preprocess::{self, Ctx, TraceError};
use crate::recovery;
use crate::regions::{self, Regions};
use crate::report::{self, Confidence, ConsistencyError};
use crate::vc::Clocks;
use mcc_obs::RecorderHandle;
use mcc_types::{EventRef, Trace};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Which cross-process conflict engine to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The sharded sort-and-sweep engine: O(n log n + k) per shard. The
    /// default.
    #[default]
    Sweep,
    /// The combinatorial all-pairs baseline (§IV-C4 ablation, and the
    /// oracle of the differential tests).
    Naive,
}

/// Builder for [`AnalysisSession`]. Defaults reproduce the paper's
/// configuration: sweep engine, region partitioning on, progress-counter
/// matching.
#[derive(Debug, Clone)]
pub struct AnalysisSessionBuilder {
    engine: Engine,
    partition_regions: bool,
    naive_matching: bool,
    recorder: RecorderHandle,
}

impl Default for AnalysisSessionBuilder {
    fn default() -> Self {
        Self {
            engine: Engine::Sweep,
            partition_regions: true,
            naive_matching: false,
            recorder: RecorderHandle::disabled(),
        }
    }
}

impl AnalysisSessionBuilder {
    /// Selects the cross-process conflict engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Partition the trace into concurrent regions at global
    /// synchronization (§III-B); off = one region (ablation).
    pub fn partition_regions(mut self, yes: bool) -> Self {
        self.partition_regions = yes;
        self
    }

    /// Use the scan-from-the-start synchronization matcher instead of the
    /// progress-counter Algorithm 1 (ablation).
    pub fn naive_matching(mut self, yes: bool) -> Self {
        self.naive_matching = yes;
        self
    }

    /// Attaches an observability recorder: phase spans and pipeline
    /// counters of every run flow into it. Defaults to
    /// [`RecorderHandle::disabled`], whose operations are single-branch
    /// no-ops, so un-instrumented sessions pay (nearly) nothing.
    pub fn recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> AnalysisSession {
        AnalysisSession { cfg: self }
    }
}

/// A configured analysis pipeline. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct AnalysisSession {
    cfg: AnalysisSessionBuilder,
}

impl AnalysisSession {
    /// Starts configuring a session.
    pub fn builder() -> AnalysisSessionBuilder {
        AnalysisSessionBuilder::default()
    }

    /// A session with the default (paper) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attached observability recorder (disabled unless
    /// [`AnalysisSessionBuilder::recorder`] installed one).
    pub fn recorder(&self) -> &RecorderHandle {
        &self.cfg.recorder
    }

    /// Runs the pipeline on a trace this process built (the simulator,
    /// the profiler, [`mcc_types::TraceBuilder`]).
    ///
    /// # Panics
    /// Panics with the [`TraceError`] text if the trace does not resolve.
    /// A trace from disk or a peer goes through [`Self::try_run`] or
    /// [`Self::run_with_repair`].
    pub fn run(&self, trace: &Trace) -> CheckReport {
        self.try_run(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the pipeline on a trace that must resolve: the first event
    /// the resolver refuses, or a happens-before cycle, is the error.
    ///
    /// Traces carrying failure notifications
    /// ([`mcc_types::EventKind::RankFailed`]) are routed through the
    /// failure-aware pipeline ([`Self::run_recovered`]) once they
    /// resolve: a survivable failure is not trace damage, and analyzing
    /// the failed rank's in-flight tail with the ordinary rules would mix
    /// delivered and undelivered effects.
    pub fn try_run(&self, trace: &Trace) -> Result<CheckReport, TraceError> {
        let t0 = Instant::now();
        let ctx = {
            let _s = self.cfg.recorder.span("check.preprocess");
            preprocess::try_preprocess(trace)?
        };
        if recovery::has_failure_markers(trace) {
            return Ok(self.recover(trace, &ctx).0);
        }
        match self.analyze(trace, ctx, t0.elapsed()) {
            Ok((report, _)) => Ok(report),
            Err(cycles) => {
                let path = cycles.into_iter().next().expect("a cyclic DAG has a cycle");
                let call = trace.event(path[0]).kind.call_name();
                Err(TraceError::cycle(path, call))
            }
        }
    }

    /// The tolerant entry: repairs the trace as [`degrade::sanitize`]
    /// does, marks the report degraded if repair was needed, and returns
    /// what the repair did. Traces with failure notifications take
    /// [`Self::run_recovered`].
    pub fn run_with_repair(&self, trace: &Trace) -> (CheckReport, DegradedInfo) {
        if recovery::has_failure_markers(trace) {
            return self.run_recovered(trace);
        }
        let ((mut report, _), _, info) = self.repair(trace);
        if !info.is_clean() {
            let obs = &self.cfg.recorder;
            obs.add("degraded_dropped_events_total", info.dropped.len() as u64);
            obs.add("degraded_synthesized_closes_total", info.synthesized.len() as u64);
            mcc_obs::log!(
                Warn,
                "trace repaired before analysis: {} event(s) dropped, {} close(s) synthesized",
                info.dropped.len(),
                info.synthesized.len()
            );
            report.mark_degraded();
        }
        (report, info)
    }

    /// The failure-aware pipeline for traces that record a survivable
    /// rank failure.
    ///
    /// The trace is sanitized (the failed rank's torn tail gets its
    /// synthetic epoch closes, attributed to the failure), analyzed with
    /// the ordinary rules, and then post-processed against the
    /// [`recovery`] pass: regular findings that cite *quarantined* events
    /// — the failed rank's in-flight tail, whose memory effects may never
    /// have been delivered — are retracted, and the failure-specific
    /// findings (stale reads, lost updates across re-exposure) are merged
    /// in canonical order. The report is
    /// [`Confidence::Recovered`] unless a *surviving* rank's log also
    /// needed repair, which is real damage and keeps the report
    /// [`Confidence::Degraded`].
    pub fn run_recovered(&self, trace: &Trace) -> (CheckReport, DegradedInfo) {
        self.recover(trace, &preprocess::resolve(trace).0)
    }

    /// [`Self::run_recovered`], given what of the trace resolves.
    fn recover(&self, trace: &Trace, ctx: &Ctx) -> (CheckReport, DegradedInfo) {
        let obs = &self.cfg.recorder;
        // Ghost synchronization first: append the failed ranks' ghost
        // participation in the collectives the survivors completed around
        // them, so post-failure epoch boundaries still match. The ghosts
        // are recorded as synthesized events — the recovery pass skips
        // them when placing the quarantine line, and the degraded summary
        // attributes them to the failure.
        let mut ghosted = trace.clone();
        let ghosts = recovery::synthesize_ghost_sync(&mut ghosted, ctx);
        let ((mut report, ctx), repaired, mut info) = self.repair(&ghosted);
        for &(rank, n) in &ghosts {
            obs.add("recovered_ghost_sync_total", n as u64);
            for _ in 0..n {
                info.synthesized
                    .push((rank, "ghost participation in a survivor collective".to_string()));
            }
        }
        let rec = recovery::analyze(&repaired, &info, &ctx);
        obs.add("recovered_failed_ranks_total", rec.failed.len() as u64);
        obs.add("recovered_quarantined_events_total", rec.quarantined.len() as u64);
        mcc_obs::log!(
            Warn,
            "failure-aware analysis: {} failed rank(s), {} event(s) quarantined, \
             {} failure-specific finding(s)",
            rec.failed.len(),
            rec.quarantined.len(),
            rec.findings.len()
        );

        // Retract regular findings built on quarantined evidence BEFORE
        // merging the failure-specific ones (which legitimately cite the
        // quarantined write as one side of the pair).
        let quarantined: HashSet<_> = rec.quarantined.iter().copied().collect();
        report
            .diagnostics
            .retain(|d| !quarantined.contains(&d.a.ev) && !quarantined.contains(&d.b.ev));
        count_findings(obs, &rec.findings);
        report.diagnostics.extend(rec.findings);
        report::canonical_merge(&mut report.diagnostics);

        // Repair at a rank that did NOT fail is genuine trace damage.
        let failed: HashSet<u32> = rec.failed.iter().map(|(r, _)| r.0).collect();
        let survivor_damage = info.dropped.iter().map(|e| e.rank.0).any(|r| !failed.contains(&r))
            || info.synthesized.iter().map(|(r, _)| r.0).any(|r| !failed.contains(&r));
        if survivor_damage {
            report.mark_degraded();
        } else {
            report.mark_recovered();
        }
        obs.add(
            mcc_obs::names::FINDINGS_RECOVERED,
            report
                .diagnostics
                .iter()
                .filter(|d| d.confidence == crate::report::Confidence::Recovered)
                .count() as u64,
        );
        (report, info)
    }

    /// [`degrade::repair`] with this session's pipeline as the analysis.
    fn repair(&self, trace: &Trace) -> ((CheckReport, Ctx), Trace, DegradedInfo) {
        degrade::repair(trace, &self.cfg.recorder, |t, ctx, time| self.analyze(t, ctx, time))
    }

    /// The pipeline over a trace and its resolved context, which took
    /// `preprocess_time` to resolve. Returns the context with the report,
    /// or the happens-before cycles if the DAG has any.
    fn analyze(
        &self,
        trace: &Trace,
        ctx: Ctx,
        preprocess_time: Duration,
    ) -> Result<(CheckReport, Ctx), Vec<Vec<EventRef>>> {
        let obs = &self.cfg.recorder;
        let _run_span = obs.span("check.run");
        let run_start = Instant::now();
        let mut stats = AnalysisStats {
            total_events: trace.total_events(),
            preprocess_time,
            ..Default::default()
        };
        obs.add("events_total", stats.total_events as u64);

        let t0 = Instant::now();
        let matching = {
            let _s = obs.span("check.matching");
            if self.cfg.naive_matching {
                matching::match_sync_naive(trace, &ctx)
            } else {
                matching::match_sync(trace, &ctx)
            }
        };
        stats.matching_time = t0.elapsed();
        stats.unmatched_sync = matching.unmatched.len();
        obs.add("unmatched_sync_total", stats.unmatched_sync as u64);

        let t0 = Instant::now();
        let (dag, clocks) = {
            let _s = obs.span("check.dag");
            let dag = dag::build(trace, &ctx, &matching);
            let clocks = Clocks::try_compute(&dag)?;
            (dag, clocks)
        };
        stats.dag_nodes = dag.node_count();
        stats.dag_edges = dag.edge_count();
        stats.dag_time = t0.elapsed();
        obs.add("dag_nodes_total", stats.dag_nodes as u64);
        obs.add("dag_edges_total", stats.dag_edges as u64);

        let t0 = Instant::now();
        let (regions, epochs) = {
            let _s = obs.span("check.regions");
            let regions = if self.cfg.partition_regions {
                regions::partition(trace, &matching)
            } else {
                Regions::whole(trace)
            };
            let epochs = epoch::extract(trace, &ctx);
            (regions, epochs)
        };
        stats.regions = regions.count;
        stats.epochs = epochs.epochs.len();
        stats.epochs_per_rank = epochs.per_rank_counts(trace.nprocs());
        stats.region_time = t0.elapsed();
        obs.add("regions_total", stats.regions as u64);
        obs.add("epochs_total", stats.epochs as u64);

        // Detection: every epoch in order, then every shard in order,
        // into one list of raw findings.
        let t0 = Instant::now();
        let detect_span = obs.span("check.detect");
        let mut diagnostics: Vec<ConsistencyError> = Vec::new();
        {
            let _s = obs.span("check.detect.intra");
            for (epoch, &ordinal) in epochs.epochs.iter().zip(&epochs.ordinals) {
                diagnostics.extend(intra::check_epoch(trace, &ctx, epoch, ordinal));
            }
        }
        {
            let _s = obs.span("check.detect.inter");
            match self.cfg.engine {
                Engine::Sweep => {
                    let shards = {
                        let _s = obs.span("check.shard");
                        inter::build_shards(trace, &ctx, &epochs, &regions)
                    };
                    obs.add("shards_total", shards.len() as u64);
                    for shard in &shards {
                        obs.observe("shard_items", shard.len() as u64);
                        diagnostics.extend(inter::detect_shard(trace, &dag, &clocks, shard, obs));
                    }
                }
                Engine::Naive => diagnostics.extend(inter::detect_naive(
                    trace, &ctx, &epochs, &regions, &dag, &clocks, obs,
                )),
            }
        }
        drop(detect_span);
        stats.detect_time = t0.elapsed();

        let t0 = Instant::now();
        let dropped = {
            let _s = obs.span("check.merge");
            report::canonical_merge(&mut diagnostics)
        };
        stats.merge_time = t0.elapsed();
        obs.add("dedup_dropped_total", dropped as u64);
        count_findings(obs, &diagnostics);
        mcc_obs::log!(
            Debug,
            "analysis done: {} event(s), {} finding(s) ({} raw), {} epoch(s), {} region(s)",
            stats.total_events,
            diagnostics.len(),
            diagnostics.len() + dropped,
            stats.epochs,
            stats.regions
        );
        stats.total_time = preprocess_time + run_start.elapsed();

        Ok((CheckReport { diagnostics, stats, confidence: Confidence::Complete }, ctx))
    }
}

/// Adds each finding to its `findings_*_total` severity and rule counters.
fn count_findings(obs: &RecorderHandle, findings: &[ConsistencyError]) {
    use crate::report::Severity;
    use mcc_types::ConflictKind;
    for d in findings {
        obs.add(
            match d.severity {
                Severity::Error => "findings_error_total",
                Severity::Warning => "findings_warning_total",
            },
            1,
        );
        obs.add(
            match d.kind {
                ConflictKind::OverlapViolation => "findings_overlap_total",
                ConflictKind::SeparationViolation => "findings_separation_total",
                ConflictKind::StaleReadFromFailedRank => "findings_stale_read_total",
                ConflictKind::LostUpdateAcrossReexposure => "findings_lost_update_total",
            },
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{CommId, DatatypeId, EventKind, Rank, RmaKind, RmaOp, TraceBuilder, WinId};

    fn buggy_trace() -> Trace {
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let put = |target: u32| {
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(target),
                origin_addr: 200,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            })
        };
        b.push(Rank(0), put(1));
        b.push(Rank(2), put(1));
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        for r in 0..3u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.build()
    }

    #[test]
    fn session_finds_both_error_classes() {
        let report = AnalysisSession::new().run(&buggy_trace());
        assert!(report.has_errors());
        assert!(report.diagnostics.len() >= 3, "intra + two cross findings");
    }

    #[test]
    fn identical_reports_across_engines() {
        let trace = buggy_trace();
        let base = AnalysisSession::new().run(&trace);
        let naive = AnalysisSession::builder().engine(Engine::Naive).build().run(&trace);
        assert_eq!(naive.diagnostics.len(), base.diagnostics.len());
        for (x, y) in naive.diagnostics.iter().zip(&base.diagnostics) {
            assert_eq!(x.canonical_key(), y.canonical_key());
            assert_eq!(x.severity, y.severity);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn findings_in_canonical_order() {
        let report = AnalysisSession::new().run(&buggy_trace());
        let keys: Vec<_> = report.diagnostics.iter().map(|e| e.canonical_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "findings sorted by (rank, event id, byte offset)");
    }

    #[test]
    fn tolerant_session_repairs_truncated_trace() {
        let mut t = buggy_trace();
        let cut = t.procs[0].events.len() - 1;
        t.procs[0].events.truncate(cut);
        let session = AnalysisSession::new();
        let report = session.run_with_repair(&t).0;
        assert_eq!(report.confidence, Confidence::Degraded);
        assert!(report.has_errors());
        let (report2, info) = session.run_with_repair(&t);
        assert!(!info.is_clean());
        assert_eq!(report2.diagnostics.len(), report.diagnostics.len());
    }

    #[test]
    fn degraded_reports_identical_across_engines() {
        let mut t = buggy_trace();
        let cut = t.procs[0].events.len() - 1;
        t.procs[0].events.truncate(cut);
        let run = |engine| {
            AnalysisSession::builder().engine(engine).build().run_with_repair(&t).0.render()
        };
        assert_eq!(run(Engine::Sweep), run(Engine::Naive));
    }
}
