//! The cells of the differential matrix and the per-cell check of each
//! path that more than one suite holds a body to. `tests/differential.rs`
//! runs every check over every cell; the path suites (`engine_determinism`,
//! `streaming_equivalence`, `streaming_vs_batch`, `recovery_pipeline`,
//! `trace_io`) run the same checks over the registry rows of one source.

use super::scratch;
use mc_checker::apps::{bugs, cases, Body, Case, Scope, Source, Verdict};
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::{CheckReport, Confidence};
use mc_checker::prelude::*;
use mc_checker::profiler::write_trace_dir;
use mc_checker::profiler::{read_trace_dir, read_trace_dir_tolerant, stream_trace_dir};
use mc_checker::types::ConflictKind;
use std::sync::OnceLock;

/// Rows run at most this many ranks (lockopts' 64 run as 8).
pub const MAX_PROCS: u32 = 8;

/// One body of one row, simulated once and shared by every check.
pub struct Cell {
    pub case: &'static Case,
    pub fixed: bool,
    pub body: Body,
    pub procs: u32,
    pub trace: Trace,
    /// The simulator cut the run short: only degraded analysis applies.
    pub cut: bool,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}{}", self.case.name, if self.fixed { " (fixed)" } else { "" })
    }

    pub fn report(&self, engine: Engine) -> CheckReport {
        report_of(&self.trace, self.cut, engine)
    }

    /// The buggy body of a Table II, extension or Figure 2 row: a bug
    /// archetype.
    pub fn is_archetype(&self) -> bool {
        !self.fixed
            && matches!(
                self.case.source,
                Source::Table2(_) | Source::Extension(_) | Source::Figure2(_)
            )
    }

    /// A body of a recovery-gallery row.
    pub fn is_recovery(&self) -> bool {
        matches!(self.case.source, Source::Recovery(_))
    }
}

/// A scratch directory private to the calling test: suites share the
/// checks, and a suite's tests run in parallel.
fn cell_scratch(what: &str) -> std::path::PathBuf {
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("main").replace("::", "-");
    scratch(&format!("{}-{test}-{what}", env!("CARGO_CRATE_NAME")))
}

/// The batch report, through the degraded repair when the run was cut
/// short (as `mcc demo` does).
pub fn report_of(trace: &Trace, cut: bool, engine: Engine) -> CheckReport {
    let session = AnalysisSession::builder().engine(engine).build();
    if !cut {
        return session.run(trace);
    }
    let (mut report, _) = session.run_with_repair(trace);
    report.mark_degraded();
    report
}

/// Every body of every row, buggy before fixed, in registry order.
pub fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let bodies = cases().iter().flat_map(|case| [(case, false), (case, true)]);
        bodies
            .filter_map(|(case, fixed)| {
                let body = case.body(fixed)?;
                let procs = case.procs.min(MAX_PROCS);
                let (trace, error) = match case.faults {
                    None => (bugs::trace_of(procs, 0xdead, body), None),
                    Some(plan) => bugs::trace_under_faults(procs, 0xdead, plan(), body),
                };
                Some(Cell { case, fixed, body, procs, trace, cut: error.is_some() })
            })
            .collect()
    })
}

/// The Sweep report meets the row's verdict; a fixed body is complete
/// and clean.
pub fn check_batch(cell: &Cell) {
    let (name, report) = (cell.name(), cell.report(Engine::Sweep));
    let rendered = report.render();
    if cell.fixed {
        assert_eq!(report.confidence, Confidence::Complete, "{name}");
        assert!(report.diagnostics.is_empty(), "{name} flagged:\n{rendered}");
        return;
    }
    match cell.case.verdict() {
        Verdict::Errors(scope) => {
            assert_eq!(report.confidence, Confidence::Complete, "{name}");
            let cross = scope == Scope::CrossProcess;
            assert!(
                report
                    .errors()
                    .any(|e| matches!(e.scope, ErrorScope::CrossProcess { .. }) == cross),
                "{name}: no {} error:\n{rendered}",
                scope.name()
            );
        }
        Verdict::Recovered(spec) => {
            assert_eq!(report.confidence, Confidence::Recovered, "{name}");
            let kinds: Vec<&str> = report
                .diagnostics
                .iter()
                .map(|d| match d.kind {
                    ConflictKind::StaleReadFromFailedRank => "stale-read-from-failed-rank",
                    ConflictKind::LostUpdateAcrossReexposure => "lost-update-across-reexposure",
                    _ => "other",
                })
                .collect();
            assert_eq!(kinds, spec.expected_kinds, "{name}:\n{rendered}");
            for d in &report.diagnostics {
                assert_eq!(d.a.rank.0, spec.failed_rank, "{name}: side A is the dead rank");
                assert_ne!(d.b.rank.0, spec.failed_rank, "{name}: side B is a survivor");
            }
        }
        Verdict::Degraded => {
            assert_eq!(report.confidence, Confidence::Degraded, "{name}");
            assert!(report.has_errors(), "{name}:\n{rendered}");
        }
    }
    if !cell.cut {
        for d in &report.diagnostics {
            assert_eq!(d.confidence, report.confidence, "{name}: finding confidence");
        }
    }
}

/// The naive all-pairs engine, the Sweep engine's oracle, gives the same
/// report bytes.
pub fn check_naive(cell: &Cell) {
    let name = cell.name();
    let sweep = cell.report(Engine::Sweep).to_json();
    assert!(sweep.contains("\"schema_version\": 1"), "{name}");
    assert_eq!(sweep, cell.report(Engine::Naive).to_json(), "{name}: engines disagree");
}

/// The same, degraded: rank 1 cut mid-file on disk and read back
/// tolerantly.
pub fn check_naive_degraded(cell: &Cell) {
    let name = cell.name();
    let dir = cell_scratch("naive");
    stream_trace_dir(&cell.trace, &dir).unwrap();
    let victim = dir.join("rank-1.jsonl");
    let data = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &data[..data.len() / 2]).unwrap();
    let (damaged, health) = read_trace_dir_tolerant(&dir).unwrap();
    assert!(!health.is_complete(), "{name}");
    let degraded = |engine: Engine| {
        let session = AnalysisSession::builder().engine(engine).build();
        let mut report = session.run_with_repair(&damaged).0;
        report.mark_degraded();
        report.to_json()
    };
    assert_eq!(degraded(Engine::Sweep), degraded(Engine::Naive), "{name}: degraded");
}

/// The streaming checker's findings serialize exactly as the batch
/// diagnostics, and its confidence is batch's: Recovered exactly on
/// Recovered rows. Returns the streamed findings.
pub fn check_streaming(cell: &Cell) -> Vec<ConsistencyError> {
    let (name, batch) = (cell.name(), cell.report(Engine::Sweep));
    let (streamed, stats) = StreamingChecker::run_over(&cell.trace).unwrap();
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&batch.diagnostics).unwrap(),
        "{name}: streamed findings diverge from batch"
    );
    assert_eq!(stats.total_events, cell.trace.total_events(), "{name}");
    assert_eq!(stats.evictions, 0, "{name}: no cap set, nothing may be evicted");
    let recovered = matches!(cell.case.verdict(), Verdict::Recovered(_));
    assert_eq!(stats.confidence == Confidence::Recovered, recovered, "{name}: recovered flag");
    assert_eq!(stats.confidence, batch.confidence, "{name}");
    streamed
}

/// The trace survives the on-disk round trip losslessly and gives the
/// same report.
pub fn check_disk(cell: &Cell) {
    let name = cell.name();
    let dir = cell_scratch("disk");
    write_trace_dir(&cell.trace, &dir).unwrap();
    let loaded = read_trace_dir(&dir).unwrap();
    assert!(loaded == cell.trace, "{name}: lossy round trip");
    let reread = report_of(&loaded, cell.cut, Engine::Sweep);
    assert_eq!(reread.to_json(), cell.report(Engine::Sweep).to_json(), "{name}");
}
