//! The case registry: every built-in case, listed once.
//!
//! `mcc list`, `mcc demo`, `mcc explore` and `mcc overhead`, the `table2`
//! binary, the bug-gallery example and the test suites all read this one
//! table; none of them keeps a case list of its own.
//!
//! | Source | Rows |
//! |---|---|
//! | Table II (paper order) | emulate, bt-broadcast, lockopts, ping-pong, jacobi |
//! | extension studies (§II-B, §V) | adlb, mpi3-queue |
//! | Figure 2 archetypes | fig2a–d |
//! | recovery gallery | jacobi-ckpt, pingpong-reexpose, adlb-failure, notify-race |
//! | crash | adlb-crash |

use crate::bugs::recovery_gallery::{self as rg, RecoverySpec};
use crate::bugs::{
    adlb, archetypes, bt_broadcast, emulate, jacobi, lockopts, mpi3_queue, pingpong, BugSpec,
};
use mcc_mpi_sim::{FaultPlan, Proc};

/// A case body: one rank's program.
pub type Body = fn(&mut Proc);

/// One built-in case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// The name `mcc demo` and `mcc explore` take.
    pub name: &'static str,
    /// The rank count the case runs with by default.
    pub procs: u32,
    /// The body that exhibits the error.
    pub buggy: Body,
    /// The corrected body (`--fixed`), where the case has one.
    pub fixed: Option<Body>,
    /// The fault plan the case ships: a survivable rank failure
    /// (recovery gallery) or a crash.
    pub faults: Option<fn() -> FaultPlan>,
    /// Where the case comes from, with that source's metadata.
    pub source: Source,
}

/// Where a case comes from, with the metadata that source records.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A row of the paper's Table II.
    Table2(BugSpec),
    /// An extension case study beyond Table II.
    Extension(BugSpec),
    /// A Figure 2 archetype, with the scope its finding lies in.
    Figure2(Scope),
    /// A recovery-gallery workload: a rank fails survivably.
    Recovery(RecoverySpec),
    /// A rank crashes mid-epoch; only degraded analysis is possible.
    Crash,
}

/// Where a complete analysis must place an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Within one epoch of one process.
    IntraEpoch,
    /// Across processes.
    CrossProcess,
}

/// What the checker must conclude on a case's buggy body.
#[derive(Debug, Clone, Copy)]
pub enum Verdict {
    /// Complete analysis with an error-severity finding in this scope.
    Errors(Scope),
    /// Recovered analysis with exactly the spec's finding kinds, each
    /// citing the failed rank on side A and a survivor on side B.
    Recovered(RecoverySpec),
    /// Degraded analysis with errors: the run was cut short.
    Degraded,
}

impl Case {
    /// The body `mcc demo NAME [--fixed]` runs; `None` for `--fixed` on a
    /// case without a fixed variant.
    pub fn body(&self, fixed: bool) -> Option<Body> {
        if fixed {
            self.fixed
        } else {
            Some(self.buggy)
        }
    }

    /// The Table II-style row of a Table II or extension case.
    pub fn bug_spec(&self) -> Option<&BugSpec> {
        match &self.source {
            Source::Table2(spec) | Source::Extension(spec) => Some(spec),
            _ => None,
        }
    }

    /// The expected verdict on the buggy body. A bug case's scope is the
    /// paper's "error location" column.
    pub fn verdict(&self) -> Verdict {
        match self.source {
            Source::Table2(spec) | Source::Extension(spec) => {
                Verdict::Errors(if spec.error_location.contains("across") {
                    Scope::CrossProcess
                } else {
                    Scope::IntraEpoch
                })
            }
            Source::Figure2(scope) => Verdict::Errors(scope),
            Source::Recovery(spec) => Verdict::Recovered(spec),
            Source::Crash => Verdict::Degraded,
        }
    }
}

impl Scope {
    /// `intra-epoch` or `cross-process`.
    pub fn name(self) -> &'static str {
        match self {
            Scope::IntraEpoch => "intra-epoch",
            Scope::CrossProcess => "cross-process",
        }
    }
}

/// A Table II or extension case with both variants; it runs at its
/// spec's rank count.
const fn bug(name: &'static str, source: Source, buggy: Body, fixed: Body) -> Case {
    let procs = match source {
        Source::Table2(spec) | Source::Extension(spec) => spec.nprocs,
        _ => panic!("a bug case carries its BugSpec"),
    };
    Case { name, procs, buggy, fixed: Some(fixed), faults: None, source }
}

const fn figure2(name: &'static str, procs: u32, buggy: Body, scope: Scope) -> Case {
    Case { name, procs, buggy, fixed: None, faults: None, source: Source::Figure2(scope) }
}

/// A recovery-gallery workload; it runs at its spec's rank count.
const fn recovery(
    name: &'static str,
    spec: RecoverySpec,
    buggy: Body,
    faults: fn() -> FaultPlan,
) -> Case {
    let source = Source::Recovery(spec);
    Case { name, procs: spec.nprocs, buggy, fixed: None, faults: Some(faults), source }
}

static CASES: [Case; 16] = {
    use Scope::*;
    use Source::*;
    [
        bug("emulate", Table2(emulate::SPEC), emulate::buggy, emulate::fixed),
        bug("bt-broadcast", Table2(bt_broadcast::SPEC), bt_broadcast::buggy, bt_broadcast::fixed),
        bug("lockopts", Table2(lockopts::SPEC), lockopts::buggy, lockopts::fixed),
        bug("ping-pong", Table2(pingpong::SPEC), pingpong::buggy, pingpong::fixed),
        bug("jacobi", Table2(jacobi::SPEC), jacobi::buggy, jacobi::fixed),
        bug("adlb", Extension(adlb::SPEC), adlb::buggy, adlb::fixed),
        bug("mpi3-queue", Extension(mpi3_queue::SPEC), mpi3_queue::buggy, mpi3_queue::fixed),
        figure2("fig2a", 2, archetypes::fig2a, IntraEpoch),
        figure2("fig2b", 3, archetypes::fig2b, CrossProcess),
        figure2("fig2c", 3, archetypes::fig2c, CrossProcess),
        figure2("fig2d", 2, archetypes::fig2d, CrossProcess),
        recovery("jacobi-ckpt", rg::JACOBI_CKPT, rg::jacobi_ckpt, rg::jacobi_ckpt_faults),
        recovery(
            "pingpong-reexpose",
            rg::PINGPONG_REEXPOSE,
            rg::pingpong_reexpose,
            rg::pingpong_reexpose_faults,
        ),
        recovery("adlb-failure", rg::ADLB_FAILURE, rg::adlb_failure, rg::adlb_failure_faults),
        recovery("notify-race", rg::NOTIFY_RACE, rg::notify_race, rg::notify_race_faults),
        Case {
            name: "adlb-crash",
            procs: adlb::SPEC.nprocs,
            buggy: adlb::buggy,
            fixed: None,
            faults: Some(adlb::crash_mid_epoch_faults),
            source: Crash,
        },
    ]
};

/// Every built-in case, in `mcc list` order.
pub fn cases() -> &'static [Case] {
    &CASES
}

/// The case `mcc demo NAME` runs.
pub fn case(name: &str) -> Option<&'static Case> {
    CASES.iter().find(|c| c.name == name)
}
