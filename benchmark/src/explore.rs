//! The `mcc explore` path: `Explorer::new(2).with_threads(1)` over the
//! 2-rank gallery programs, whole passes until the budget is spent.

use crate::metrics::{median, ratio, Ledger};
use crate::section::Section;
use crate::spans::Tracer;
use mcc_apps::bugs;
use mcc_explore::Explorer;
use mcc_mpi_sim::{run, DeliveryPolicy, Proc, SimConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One gallery program and its documented verdict — the ground truth
/// comes from the paper's Table II and the apps' own fixed variants, not
/// from running the explorer.
#[derive(Clone, Copy)]
pub struct Body {
    /// Gallery name.
    pub name: &'static str,
    /// Whether some schedule of it has a consistency error.
    pub buggy: bool,
    /// The program.
    pub body: fn(&mut Proc),
}

/// The eight 2-rank gallery bodies, 21 schedules a pass.
pub fn gallery() -> Vec<Body> {
    vec![
        Body { name: "fig2a", buggy: true, body: bugs::archetypes::fig2a },
        Body { name: "ping-pong-fixed", buggy: false, body: bugs::pingpong::fixed },
        Body { name: "adlb", buggy: true, body: bugs::adlb::buggy },
        Body { name: "ping-pong", buggy: true, body: bugs::pingpong::buggy },
        Body { name: "emulate", buggy: true, body: bugs::emulate::buggy },
        Body { name: "emulate-fixed", buggy: false, body: bugs::emulate::fixed },
        Body { name: "bt-broadcast", buggy: true, body: bugs::bt_broadcast::buggy },
        Body { name: "bt-broadcast-fixed", buggy: false, body: bugs::bt_broadcast::fixed },
    ]
}

/// Ranks of every gallery body.
const NPROCS: u32 = 2;
/// Schedule budget per body. Only bt-broadcast (66 schedules, 3.6 s on
/// its own) reaches it; with the cap a pass is 21 schedules, so a run
/// holds several passes. Every buggy body shows its
/// bug in schedule 0, so the verdicts do not depend on the cap.
const MAX_SCHEDULES: u64 = 8;

/// What one exploration covered.
struct Explored {
    schedules: u64,
    pruned: u64,
    deduped: u64,
    /// Schedules a naive enumeration would run; `None` past 2^63, where
    /// the explorer's count saturates.
    naive: Option<u64>,
}

/// One op: explore one body, compare the verdict with the gallery's.
fn explore_op(b: &Body, tr: &mut Tracer) -> Result<Explored, String> {
    let root = tr.enter("explore.op");
    let report = tr.span("explore.run", || {
        Explorer::new(NPROCS).with_threads(1).with_max_schedules(MAX_SCHEDULES).run(b.body)
    });
    let verdict = tr.span("harness.verify", || {
        if b.buggy && report.first_buggy.is_none() {
            Err(format!("{}: no buggy schedule found (exhausted: {})", b.name, report.exhausted))
        } else if !b.buggy && report.has_errors() {
            Err(format!("{}: the fixed program was reported buggy", b.name))
        } else {
            Ok(())
        }
    });
    tr.exit(root);
    verdict.map(|()| Explored {
        schedules: report.schedules_explored,
        pruned: report.pruned,
        deduped: report.deduped,
        naive: (report.naive_schedules != u64::MAX).then_some(report.naive_schedules),
    })
}

/// What the explorations of one pass (untraced or traced) added up to.
#[derive(Debug, Default)]
struct ExploreRun {
    /// Schedules executed.
    schedules: u64,
    /// Subtrees pruned by the sleep sets.
    pruned: u64,
    /// Schedules dropped as duplicates of an explored trace.
    deduped: u64,
    /// Over the bodies whose naive schedule count is finite: that count,
    /// and the schedules actually executed.
    naive: u64,
    /// See [`naive`](Self::naive).
    naive_explored: u64,
    /// Bodies explored with the expected verdict.
    explored: u64,
    /// Whole passes over the gallery.
    passes: u64,
    /// Schedules per second of every pass.
    pass_schedules_per_s: Vec<f64>,
    /// Wall time of the passes.
    elapsed: Duration,
    /// Verdict mismatches, with the reason.
    failures: Vec<String>,
}

/// The explore path of a run: the gallery and what was measured so far.
pub struct ExploreSection {
    bodies: Vec<Body>,
    plain: ExploreRun,
    traced: ExploreRun,
}

impl ExploreSection {
    /// A section over `bodies`.
    pub fn new(bodies: Vec<Body>) -> Self {
        assert!(!bodies.is_empty(), "an explore section needs a program");
        Self { bodies, plain: ExploreRun::default(), traced: ExploreRun::default() }
    }

    /// Test hook: falsifies the first body's expected verdict.
    pub fn corrupt_truth(&mut self) {
        self.bodies[0].buggy = !self.bodies[0].buggy;
    }
}

impl Section for ExploreSection {
    fn warm_up(&mut self) -> Result<(), String> {
        explore_op(&self.bodies[0], &mut Tracer::disabled()).map(|_| ())
    }

    /// Whole passes over the gallery — the programs differ, so only a
    /// whole pass is the same mix every time — as many as are expected
    /// to fit in `budget`, at least one.
    fn slice(&mut self, budget: Duration, tr: &mut Tracer) {
        let run = if tr.is_enabled() { &mut self.traced } else { &mut self.plain };
        let start = Instant::now();
        let mut passes = 0u32;
        while passes == 0 || start.elapsed() + start.elapsed() / passes <= budget {
            let pass = Instant::now();
            let mut pass_schedules = 0u64;
            for b in &self.bodies {
                match explore_op(b, tr) {
                    Ok(e) => {
                        run.explored += 1;
                        pass_schedules += e.schedules;
                        run.pruned += e.pruned;
                        run.deduped += e.deduped;
                        if let Some(naive) = e.naive {
                            run.naive += naive;
                            run.naive_explored += e.schedules;
                        }
                    }
                    Err(e) => run.failures.push(e),
                }
            }
            run.schedules += pass_schedules;
            run.pass_schedules_per_s.push(pass_schedules as f64 / pass.elapsed().as_secs_f64());
            passes += 1;
        }
        run.passes += u64::from(passes);
        run.elapsed += start.elapsed();
    }

    fn ops(&self) -> (u64, Vec<String>) {
        let failures: Vec<String> =
            self.plain.failures.iter().chain(&self.traced.failures).cloned().collect();
        (self.plain.explored + self.traced.explored + failures.len() as u64, failures)
    }

    /// The median over passes, each the same mix of programs.
    fn end_to_end(&self, ledger: &mut Ledger) -> Result<(), String> {
        if self.plain.schedules == 0 {
            return Err("no schedule was explored".into());
        }
        ledger.set("explore_schedules_per_s", median(&self.plain.pass_schedules_per_s));
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Result<f64, String> {
        if self.traced.schedules == 0 {
            return Err("no traced schedule was explored".into());
        }
        layers(&self.bodies, &self.traced, tr, ledger)?;
        let per_schedule = |r: &ExploreRun| r.elapsed.as_secs_f64() / r.schedules as f64;
        Ok((per_schedule(&self.traced) / per_schedule(&self.plain) - 1.0) * 100.0)
    }
}

/// The per-layer numbers of the explore path: the explorer's own
/// counters, and one plain simulator run per body with the explorer's
/// watchdog and without — the watchdog's poll interval is a floor under
/// every run.
fn layers(
    bodies: &[Body],
    traced: &ExploreRun,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let passes = traced.passes as f64;
    ledger.set("explore.schedules_explored", traced.schedules as f64 / passes);
    ledger.set("explore.pruned", traced.pruned as f64 / passes);
    ledger.set("explore.deduped", traced.deduped as f64 / passes);
    ledger.set("explore.pruning_ratio", 1.0 - ratio(traced.naive_explored, traced.naive));
    ledger.set(
        "explore.wall_ms_per_schedule",
        traced.elapsed.as_secs_f64() * 1e3 / traced.schedules as f64,
    );
    ledger.set("explore.verdict_mismatches", traced.failures.len() as f64);

    let (mut watched, mut unwatched, mut events) = (Vec::new(), Vec::new(), Vec::new());
    for b in bodies {
        let config = || SimConfig::new(NPROCS).with_delivery(DeliveryPolicy::AtClose);
        let root = tr.enter("sim.op");
        let t = Instant::now();
        let with = tr
            .span("sim.run", || run(config().with_watchdog(Duration::from_millis(500)), b.body))
            .map_err(|e| format!("{}: {e}", b.name))?;
        watched.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let without = tr
            .span("sim.run_nowatchdog", || run(config(), b.body))
            .map_err(|e| format!("{}: {e}", b.name))?;
        unwatched.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(root);
        black_box(&without);
        events.push(with.trace.map_or(0, |t| t.total_events()) as f64);
    }
    ledger.set("sim.run_ms", median(&watched));
    ledger.set("sim.run_nowatchdog_ms", median(&unwatched));
    ledger.set("sim.events_per_run", median(&events));
    Ok(())
}
