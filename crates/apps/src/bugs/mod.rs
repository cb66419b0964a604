//! The bug-case applications of the paper's effectiveness evaluation
//! (Table II): three real-world bugs and two injected ones.
//!
//! | App | Procs | Error location | Root cause |
//! |---|---|---|---|
//! | emulate | 2 | within an epoch | conflicting `MPI_Get` and load/store |
//! | BT-broadcast | 2 | within an epoch | conflicting `MPI_Get` and load |
//! | lockopts | 64 | across processes | conflicting load/store and `MPI_Put`/`MPI_Get` |
//! | ping-pong | 2 | within an epoch | conflicting `MPI_Put` and store (injected) |
//! | jacobi | 4 | across processes | conflicting `MPI_Put` and load (injected) |
//!
//! Every case provides a `buggy` and a `fixed` variant; the fixed variants
//! double as false-positive regression tests for the checker.

pub mod adlb;
pub mod archetypes;
pub mod bt_broadcast;
pub mod emulate;
pub mod jacobi;
pub mod lockopts;
pub mod mpi3_queue;
pub mod pingpong;
pub mod recovery_gallery;

use mcc_mpi_sim::{run, run_tolerant, DeliveryPolicy, FaultPlan, Proc, SimConfig, SimError};
use mcc_types::Trace;
use std::time::Duration;

/// Metadata of one Table II row.
#[derive(Debug, Clone, Copy)]
pub struct BugSpec {
    /// Application name as listed in Table II.
    pub name: &'static str,
    /// Number of processes the bug is triggered with.
    pub nprocs: u32,
    /// "within an epoch" or "across processes".
    pub error_location: &'static str,
    /// The conflicting operation pair (root cause).
    pub root_cause: &'static str,
    /// Failure symptom observed in the application.
    pub symptom: &'static str,
    /// Whether this is a real-world or injected bug.
    pub injected: bool,
}

/// Runs a bug-case body under the Profiler and returns its trace.
///
/// Bug demos run under `AtClose` delivery: the worst legal completion
/// timing, which makes the symptoms deterministic (the checker itself is
/// timing-independent — it analyzes the trace, not the symptom).
pub fn trace_of(nprocs: u32, seed: u64, body: impl Fn(&mut Proc) + Send + Sync) -> Trace {
    run(SimConfig::new(nprocs).with_seed(seed).with_delivery(DeliveryPolicy::AtClose), body)
        .expect("bug case must run to completion")
        .trace
        .expect("tracing is enabled")
}

/// Runs a bug-case body under the seeded adversarial delivery policy and
/// returns its trace.
///
/// Unlike [`trace_of`], each RMA operation's completion timing is drawn
/// from the seeded RNG, so the same body can behave differently from
/// seed to seed — the random-search baseline that `mcc explore`'s
/// systematic enumeration replaces.
pub fn trace_adversarial(nprocs: u32, seed: u64, body: impl Fn(&mut Proc) + Send + Sync) -> Trace {
    run(SimConfig::new(nprocs).with_seed(seed).with_delivery(DeliveryPolicy::Adversarial), body)
        .expect("bug case must run to completion")
        .trace
        .expect("tracing is enabled")
}

/// Runs a bug-case body under fault injection and salvages whatever
/// trace the surviving ranks produced.
///
/// Unlike [`trace_of`], the run is allowed to fail: injected aborts,
/// hangs (bounded by a watchdog) and rank deaths all produce a partial
/// trace plus the simulator's verdict instead of a panic. The partial
/// trace is what the degraded-mode checker
/// (`mcc_core::AnalysisSession::run_with_repair`) is for.
pub fn trace_under_faults(
    nprocs: u32,
    seed: u64,
    faults: FaultPlan,
    body: impl Fn(&mut Proc) + Send + Sync,
) -> (Trace, Option<SimError>) {
    let outcome = run_tolerant(
        SimConfig::new(nprocs)
            .with_seed(seed)
            .with_delivery(DeliveryPolicy::AtClose)
            .with_faults(faults)
            .expect("bug-case fault plan targets existing ranks")
            .with_watchdog(Duration::from_millis(2000)),
        body,
    )
    .expect("bug-case configuration is valid");
    (outcome.trace.expect("tracing is enabled"), outcome.error)
}
