//! One workload run: set up, then six rounds, each giving the
//! workload's own path two thirds of the round and the other two paths
//! a sixth each (see `section.rs` for why the time is cut this way).
//!
//! The other two paths are *probes*. They exist because the gate wants
//! every end-to-end metric from every workload: `check_dense` has no
//! sessions of its own, so its `serve_*` numbers come from a short fixed
//! serve probe, and likewise for the rest. A workload's *own* rows are
//! the ones chosen to isolate a mechanism; its probe rows are controls
//! that should move only when the probed path itself changes.

use crate::check::{self, CheckSection};
use crate::explore::{self, Body, ExploreSection};
use crate::gen::{rounds_trace, sync_trace, Generated, RoundShape, SyncShape};
use crate::metrics::{median, Ledger, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::rng::SplitMix64;
use crate::section::Section;
use crate::serve::{self, ServeSection, SessionCase};
use crate::spans::Tracer;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input sizes: `Full` is what the gate runs, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The documented workload sizes.
    Full,
    /// A few hundred events per input; exercises every code path in
    /// well under a second.
    Tiny,
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time, split 4:1:1 between the workload and its probes.
    pub seconds: f64,
    /// Traced pass: per-layer metrics and the span file.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Test hook: falsify the expected answer of the first input, so the
    /// run must fail its ground-truth check.
    pub corrupt_truth: bool,
    /// Where scratch inputs and the span file go.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Every op's output matched its ground truth.
    pub correct: bool,
    /// Ops attempted, all sections.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl Scale {
    /// How often set-up is repeated; `setup_s` is the median.
    fn setup_reps(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }

    /// Rounds a run is cut into; every path gets a slice of every round.
    fn rounds(self) -> u32 {
        match self {
            Scale::Full => 6,
            Scale::Tiny => 1,
        }
    }

    /// Traces per check workload.
    fn check_traces(self) -> usize {
        match self {
            Scale::Full => 8,
            Scale::Tiny => 2,
        }
    }

    /// Session traces per serve section, split between the clients.
    fn session_cases(self) -> usize {
        match self {
            Scale::Full => 8,
            Scale::Tiny => serve::CLIENTS,
        }
    }
}

/// A workload's own section. The concrete type is kept for the parts
/// that are not common to all sections: the daemon to stop, the session
/// cases the probes reuse, the test hook.
enum Own {
    Check(CheckSection),
    Serve(ServeSection),
    Explore(ExploreSection),
}

impl Own {
    fn section(&mut self) -> &mut dyn Section {
        match self {
            Own::Check(s) => s,
            Own::Serve(s) => s,
            Own::Explore(s) => s,
        }
    }

    fn corrupt_truth(&mut self) {
        match self {
            Own::Check(s) => s.corrupt_truth(),
            Own::Serve(s) => s.corrupt_truth(),
            Own::Explore(s) => s.corrupt_truth(),
        }
    }

    fn stop(&mut self) -> Result<(), String> {
        match self {
            Own::Serve(s) => s.stop(),
            Own::Check(_) | Own::Explore(_) => Ok(()),
        }
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn check_input(workload: &str, seed: u64, tiny: bool, i: usize) -> Generated {
    let s = SplitMix64::fork(seed, i as u64).next_u64();
    if workload == "check_dense" {
        rounds_trace(&RoundShape::dense(tiny), s)
    } else {
        sync_trace(&SyncShape::sync(tiny), s)
    }
}

fn session_cases(seed: u64, scale: Scale) -> Vec<SessionCase> {
    let shape = RoundShape::session(scale == Scale::Tiny);
    serve::prepare_cases(&shape, seed ^ 0x5e55_1045, scale.session_cases())
}

/// The explore probe's gallery, and all of the smoke test's.
fn probe_gallery(scale: Scale) -> Vec<Body> {
    let bodies = if scale == Scale::Tiny { 2 } else { 3 };
    explore::gallery().into_iter().take(bodies).collect()
}

/// Set-up: generates the workload's inputs, writes what lives on disk,
/// binds the daemon, and runs one warm-up op.
fn set_up(args: &RunArgs, dir: &Path) -> Result<Own, String> {
    let tiny = args.scale == Scale::Tiny;
    let mut own = match args.workload.as_str() {
        "check_dense" | "check_sync" => {
            // One trace alive at a time, so set-up never needs more
            // memory than an op does and the peak RSS is the op's.
            let cases = (0..args.scale.check_traces())
                .map(|i| {
                    let g = check_input(&args.workload, args.seed, tiny, i);
                    check::write_case(dir, i, &g.trace, g.plants)
                })
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| e.to_string())?;
            Own::Check(CheckSection::new(cases, dir))
        }
        "serve_stream" | "serve_durable" => Own::Serve(ServeSection::start(
            session_cases(args.seed, args.scale),
            args.workload == "serve_durable",
            dir,
        )?),
        "explore_gallery" => Own::Explore(ExploreSection::new(if tiny {
            probe_gallery(args.scale)
        } else {
            explore::gallery()
        })),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of: {})",
                WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
            ))
        }
    };
    own.section().warm_up().map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok(own)
}

/// The other two paths, measured beside the workload's own because the
/// gate wants every end-to-end metric from every workload. Their inputs
/// are session traces (the workload's own when it is a serve one) and
/// the first three gallery programs (5 schedules a pass); their set-up
/// is not part of `setup_s`.
fn probes(own: &Own, args: &RunArgs, scratch: &Path) -> Result<Vec<Box<dyn Section>>, String> {
    let sessions = match own {
        Own::Serve(s) => s.cases().to_vec(),
        Own::Check(_) | Own::Explore(_) => session_cases(args.seed, args.scale),
    };
    let mut out: Vec<Box<dyn Section>> = Vec::new();
    if !matches!(own, Own::Check(_)) {
        let dir = scratch.join("probe-check");
        let cases = sessions
            .iter()
            .enumerate()
            .map(|(i, c)| check::write_case(&dir, i, &c.trace, c.plants.clone()))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| e.to_string())?;
        out.push(Box::new(CheckSection::new(cases, &dir)));
    }
    if !matches!(own, Own::Serve(_)) {
        out.push(Box::new(ServeSection::start(sessions, false, &scratch.join("probe-serve"))?));
    }
    if !matches!(own, Own::Explore(_)) {
        out.push(Box::new(ExploreSection::new(probe_gallery(args.scale))));
    }
    for p in &mut out {
        // An op that fails here fails again in the measured slices,
        // where it is counted.
        let _ = p.warm_up();
    }
    Ok(out)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one workload. `Err` is a harness or set-up failure (nothing was
/// measured); ground-truth failures are reported in the result.
pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    let scratch = args.out_dir.join(format!("tmp-{}-{}", std::process::id(), args.workload));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = run_in(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// One slice of a round: all of it untraced, or half and half.
fn slice(section: &mut dyn Section, budget: Duration, tracer: &mut Tracer) {
    if tracer.is_enabled() {
        section.slice(budget / 2, &mut Tracer::disabled());
        section.slice(budget / 2, tracer);
    } else {
        section.slice(budget, tracer);
    }
}

fn run_in(args: &RunArgs, scratch: &Path) -> Result<RunResult, String> {
    let rounds = args.scale.rounds();
    let mut setup_s = Vec::new();
    let mut own: Option<Own> = None;
    for rep in 0..args.scale.setup_reps() {
        if let Some(mut previous) = own.take() {
            previous.stop()?;
        }
        let t = Instant::now();
        own = Some(set_up(args, &scratch.join(format!("setup-{rep}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut own = own.expect("set-up runs at least once");
    if args.corrupt_truth {
        own.corrupt_truth();
    }

    let mut ledger = Ledger::default();
    ledger.set("setup_s", median(&setup_s));
    let mut tracer = if args.trace { Tracer::enabled(Instant::now()) } else { Tracer::disabled() };
    let own_slice = secs(args.seconds * 4.0 / 6.0) / rounds;
    let probe_slice = secs(args.seconds / 6.0) / rounds;

    // Round 0 starts with the workload alone, so the peak RSS read after
    // its first slice is its own: the probes' inputs do not exist yet.
    slice(own.section(), own_slice, &mut tracer);
    ledger.set("peak_rss_mib", peak_rss_mib()?);
    let mut probes = probes(&own, args, scratch)?;
    for round in 0..rounds {
        if round > 0 {
            slice(own.section(), own_slice, &mut tracer);
        }
        for p in &mut probes {
            slice(p.as_mut(), probe_slice, &mut tracer);
        }
    }

    let (mut attempted, mut failures) = (0u64, Vec::new());
    let mut sections: Vec<&mut dyn Section> = vec![own.section()];
    sections.extend(probes.iter_mut().map(|p| p.as_mut() as &mut dyn Section));
    for (i, section) in sections.into_iter().enumerate() {
        let (n, failed) = section.ops();
        attempted += n;
        failures.extend(failed);
        section.end_to_end(&mut ledger)?;
        if args.trace {
            let overhead = section.layers(&mut tracer, &mut ledger)?;
            if i == 0 {
                ledger.set("harness.trace_overhead_pct", overhead);
            }
        }
    }
    drop(probes);
    own.stop()?;

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = ledger
        .complete(table)
        .map_err(|missing| format!("metrics never measured: {}", missing.join(", ")))?;
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        write_json(&path, &tracer.to_value())?;
    }
    let failed = failures.len() as u64;
    failures.truncate(5);
    Ok(RunResult { correct: failed == 0, attempted, failed, failures, metrics })
}

/// Writes `value` as indented JSON.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
