//! The `mcc check` path: `read_trace_dir` → `AnalysisSession::run` →
//! `CheckReport::to_json`, one op per trace directory, threads 1.

use crate::gen::{verify_findings, Plant};
use crate::metrics::{median, quantile, ratio, Ledger};
use crate::section::Section;
use crate::spans::Tracer;
use mcc_core::vc::Clocks;
use mcc_core::{dag, epoch, matching, preprocess, regions, AnalysisSession, AnalysisStats};
use mcc_obs::RecorderHandle;
use mcc_profiler::{read_trace_dir, write_trace_dir};
use mcc_types::Trace;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One trace on disk with its expected findings.
#[derive(Debug, Clone)]
pub struct CheckCase {
    /// The trace directory `mcc check` would be pointed at.
    pub dir: PathBuf,
    /// Events in the trace.
    pub events: usize,
    /// The planted conflicts.
    pub plants: Vec<Plant>,
}

/// Writes one trace under `root` as `trace-<i>/`.
pub fn write_case(
    root: &Path,
    i: usize,
    trace: &Trace,
    plants: Vec<Plant>,
) -> std::io::Result<CheckCase> {
    let dir = root.join(format!("trace-{i}"));
    write_trace_dir(trace, &dir)?;
    Ok(CheckCase { dir, events: trace.total_events(), plants })
}

/// What one op did, for the per-layer numbers.
#[derive(Debug)]
struct OpStats {
    stats: AnalysisStats,
    findings: usize,
}

/// One `mcc check`: read, analyze, render, compare with the plants.
fn check_op(case: &CheckCase, tr: &mut Tracer) -> Result<OpStats, String> {
    let root = tr.enter("check.op");
    let result = (|| {
        let trace = tr
            .span("profiler.read", || read_trace_dir(&case.dir))
            .map_err(|e| format!("reading {}: {e}", case.dir.display()))?;
        let report = tr.span("core.run", || AnalysisSession::new().run(&trace));
        let json = tr.span("core.report_json", || report.to_json());
        black_box(&json);
        tr.span("harness.verify", || verify_findings(&report.diagnostics, &case.plants))?;
        Ok(OpStats { findings: report.diagnostics.len(), stats: report.stats })
    })();
    tr.exit(root);
    result
}

/// What the ops of one pass (untraced or traced) added up to.
#[derive(Debug, Default)]
struct CheckRun {
    /// Wall time of every op, ms.
    op_ms: Vec<f64>,
    /// Events read and analyzed.
    events: u64,
    /// Events per second of every slice.
    slice_events_per_s: Vec<f64>,
    /// Ops that failed, with the reason.
    failures: Vec<String>,
    stats: Vec<OpStats>,
}

/// The check path of a run: its cases and what was measured so far.
pub struct CheckSection {
    cases: Vec<CheckCase>,
    /// Next case; ops go round-robin across slices.
    cursor: usize,
    scratch: PathBuf,
    plain: CheckRun,
    traced: CheckRun,
}

impl CheckSection {
    /// A section over `cases`; `scratch` is where the layer pass may
    /// write.
    pub fn new(cases: Vec<CheckCase>, scratch: &Path) -> Self {
        assert!(!cases.is_empty(), "a check section needs a trace");
        Self {
            cases,
            cursor: 0,
            scratch: scratch.to_path_buf(),
            plain: CheckRun::default(),
            traced: CheckRun::default(),
        }
    }

    /// Test hook: falsifies the first case's expected findings.
    pub fn corrupt_truth(&mut self) {
        if self.cases[0].plants.pop().is_none() {
            self.cases[0].plants.push(Plant { line_lo: 1, line_hi: 2, target: 0 });
        }
    }
}

impl Section for CheckSection {
    fn warm_up(&mut self) -> Result<(), String> {
        check_op(&self.cases[0], &mut Tracer::disabled()).map(|_| ())
    }

    /// Ops round-robin over the cases until `budget` is spent, at least
    /// one. The cases of a workload have one shape, so every slice is
    /// the same mix whichever case it starts at.
    fn slice(&mut self, budget: Duration, tr: &mut Tracer) {
        let run = if tr.is_enabled() { &mut self.traced } else { &mut self.plain };
        let start = Instant::now();
        let mut events = 0u64;
        loop {
            let case = &self.cases[self.cursor % self.cases.len()];
            self.cursor += 1;
            let t = Instant::now();
            match check_op(case, tr) {
                Ok(s) => {
                    run.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    events += case.events as u64;
                    run.stats.push(s);
                }
                Err(e) => run.failures.push(e),
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        run.events += events;
        run.slice_events_per_s.push(events as f64 / start.elapsed().as_secs_f64());
    }

    fn ops(&self) -> (u64, Vec<String>) {
        let failures: Vec<String> =
            self.plain.failures.iter().chain(&self.traced.failures).cloned().collect();
        ((self.plain.op_ms.len() + self.traced.op_ms.len() + failures.len()) as u64, failures)
    }

    /// Throughput is the median over slices and latency the median over
    /// ops, so a stall of the host during one slice moves neither.
    fn end_to_end(&self, ledger: &mut Ledger) -> Result<(), String> {
        if self.plain.op_ms.is_empty() {
            return Err("no check op succeeded".into());
        }
        ledger.set("check_events_per_s", median(&self.plain.slice_events_per_s));
        ledger.set("check_p50_ms", median(&self.plain.op_ms));
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Result<f64, String> {
        if self.traced.op_ms.is_empty() {
            return Err("no traced check op succeeded".into());
        }
        layers(&self.cases, &self.traced, &self.scratch, tr, ledger)?;
        Ok((median(&self.traced.op_ms) / median(&self.plain.op_ms) - 1.0) * 100.0)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms_of(tr: &Tracer, name: &str) -> f64 {
    let v: Vec<f64> = tr.durations_ns(name).iter().map(|&ns| ns as f64 / 1e6).collect();
    median(&v)
}

/// The per-layer numbers of the check path: the traced loop's spans and
/// `CheckReport.stats`, then each public phase function timed on its
/// own, the writer, and the recorder's counters and overhead.
fn layers(
    cases: &[CheckCase],
    traced: &CheckRun,
    scratch: &Path,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let read_ns: u64 = tr.durations_ns("profiler.read").iter().sum();
    ledger.set("profiler.read_ns_per_event", read_ns as f64 / traced.events as f64);
    ledger.set("core.run_ms", median_ms_of(tr, "core.run"));
    ledger.set("core.report_json_ms", median_ms_of(tr, "core.report_json"));
    ledger.set("check.p90_ms", quantile(&traced.op_ms, 0.9));
    let stat = |f: fn(&OpStats) -> f64| median(&traced.stats.iter().map(f).collect::<Vec<_>>());
    ledger.set("core.detect_ms", stat(|s| ms(s.stats.detect_time)));
    ledger.set("core.merge_ms", stat(|s| ms(s.stats.merge_time)));
    ledger.set("core.events", stat(|s| s.stats.total_events as f64));
    ledger.set("core.dag_nodes", stat(|s| s.stats.dag_nodes as f64));
    ledger.set("core.dag_edges", stat(|s| s.stats.dag_edges as f64));
    ledger.set("core.regions", stat(|s| s.stats.regions as f64));
    ledger.set("core.epochs", stat(|s| s.stats.epochs as f64));
    ledger.set("core.findings", stat(|s| s.findings as f64));

    // The phases `AnalysisSession::run` goes through, each called through
    // its public function so it gets a span of its own.
    let (mut written_ns, mut written_bytes, mut events) = (0u64, 0u64, 0u64);
    let (mut pairs, mut hits, mut misses, mut findings) = (0u64, 0u64, 0u64, 0u64);
    let (mut with_obs, mut without_obs) = (Vec::new(), Vec::new());
    for (i, case) in cases.iter().enumerate() {
        let trace = read_trace_dir(&case.dir).map_err(|e| e.to_string())?;
        let root = tr.enter("core.phases");
        let ctx = tr.span("core.preprocess", || preprocess::preprocess(&trace));
        let matched = tr.span("core.matching", || matching::match_sync(&trace, &ctx));
        let dag = tr.span("core.dag", || dag::build(&trace, &ctx, &matched));
        black_box(tr.span("core.clocks", || Clocks::compute(&dag)));
        black_box(tr.span("core.regions", || regions::partition(&trace, &matched)));
        black_box(tr.span("core.epochs", || epoch::extract(&trace, &ctx)));
        tr.exit(root);

        let dir = scratch.join(format!("rewrite-{i}"));
        let t = Instant::now();
        tr.span("profiler.write", || write_trace_dir(&trace, &dir)).map_err(|e| e.to_string())?;
        written_ns += t.elapsed().as_nanos() as u64;
        written_bytes += dir_bytes(&dir).map_err(|e| e.to_string())?;
        events += case.events as u64;

        // Recorder on vs off, alternating so drift hits both alike.
        for _ in 0..3 {
            let obs = RecorderHandle::enabled();
            let session = AnalysisSession::builder().recorder(obs.clone()).build();
            let t = Instant::now();
            let report = tr.span("obs.run_enabled", || session.run(&trace));
            with_obs.push(ms(t.elapsed()));
            let t = Instant::now();
            black_box(tr.span("obs.run_disabled", || AnalysisSession::new().run(&trace)));
            without_obs.push(ms(t.elapsed()));
            let snap = obs.snapshot();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            pairs = counter("interval_pairs_total");
            hits = counter("reach_hits_total");
            misses = counter("reach_misses_total");
            findings = report.diagnostics.len() as u64;
        }
    }
    for phase in ["preprocess", "matching", "dag", "clocks", "regions", "epochs"] {
        let span = format!("core.{phase}");
        ledger.set(&format!("core.{phase}_ms"), median_ms_of(tr, &span));
    }
    ledger.set("profiler.write_ns_per_event", written_ns as f64 / events as f64);
    ledger.set("profiler.trace_bytes_per_event", written_bytes as f64 / events as f64);
    // Counts of the last case: same shape as the others, and a ratio of
    // sums over cases would weigh nothing differently.
    ledger.set("core.interval_pairs", pairs as f64);
    ledger.set("core.findings_per_interval_pair", ratio(findings, pairs));
    ledger.set("core.reach_hit_ratio", ratio(hits, hits + misses));
    ledger
        .set("obs.enabled_overhead_pct", (median(&with_obs) / median(&without_obs) - 1.0) * 100.0);
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}
