#![warn(missing_docs)]
//! # MC-Checker
//!
//! A full-system Rust reproduction of **"MC-Checker: Detecting Memory
//! Consistency Errors in MPI One-Sided Applications"** (Chen et al.,
//! SC 2014).
//!
//! MPI one-sided communication (RMA) decouples data movement from
//! synchronization: `MPI_Put`/`MPI_Get`/`MPI_Accumulate` are nonblocking
//! and complete only at the epoch-closing synchronization. Accessing the
//! involved buffers in between — from the same process or another — leaves
//! window memory undefined. MC-Checker finds those *memory consistency
//! errors* from an execution trace:
//!
//! 1. **ST-Analyzer** ([`st_analyzer`]) statically marks the variables
//!    that can alias RMA-exposed memory, so the Profiler instruments only
//!    relevant loads/stores;
//! 2. **Profiler** ([`mpi_sim`]'s tracer + [`profiler`]) records one-sided
//!    calls, synchronization, datatype/support calls, and the relevant
//!    memory accesses, per rank;
//! 3. **DN-Analyzer** ([`core`]) matches synchronization across ranks
//!    (Algorithm 1), builds the happens-before DAG with epoch semantics,
//!    extracts concurrent regions, and checks unordered operation pairs
//!    against the MPI-2.2 compatibility ruleset (Table I).
//!
//! The distributed substrate the paper ran on (MPICH on a cluster) is
//! replaced by [`mpi_sim`], an in-process simulated MPI runtime with
//! thread-per-rank processes and adversarial RMA completion timing.
//!
//! ## Quickstart
//!
//! ```
//! use mc_checker::prelude::*;
//!
//! // A buggy program: put then store to the same buffer in one epoch.
//! let result = run(SimConfig::new(2).with_seed(1), |p| {
//!     let wbuf = p.alloc_i32s(1);
//!     let win = p.win_create(wbuf, 4, CommId::WORLD);
//!     p.win_fence(win);
//!     if p.rank() == 0 {
//!         let buf = p.alloc_i32s(1);
//!         p.tstore_i32(buf, 7);
//!         p.put(buf, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
//!         p.tstore_i32(buf, 8); // races with the nonblocking put
//!     }
//!     p.win_fence(win);
//!     p.win_free(win);
//! })
//! .unwrap();
//!
//! let report = AnalysisSession::builder()
//!     .engine(Engine::Sweep)
//!     .build()
//!     .run(&result.trace.unwrap());
//! assert!(report.has_errors());
//! println!("{}", report.render());
//! ```

/// The CLI's exit-code contract, shared by `mcc check`, `mcc demo`,
/// `mcc explore` and `mcc submit`. `mcc help` ([`cli::reference`]) ends
/// with this table, the README quotes that reference, and
/// `tests/recovery_pipeline.rs` asserts all three stay in sync with
/// [`exit_code_for`]; `tests/cli.rs` drives the binary through every code.
pub const EXIT_CODE_TABLE: &str = "  0  complete analysis, no errors
  1  complete analysis, errors found
  2  usage, I/O or invalid-trace error
  3  degraded analysis, errors found
  4  degraded analysis, no errors
  5  recovered analysis (rank failure modeled), errors found
  6  recovered analysis (rank failure modeled), no errors
  7  exploration: schedule budget exhausted before covering the space (no errors found)";

/// Maps an analysis verdict to the documented process exit code (the
/// left column of [`EXIT_CODE_TABLE`]).
pub fn exit_code_for(confidence: mcc_core::report::Confidence, has_errors: bool) -> u8 {
    use mcc_core::report::Confidence;
    match (confidence, has_errors) {
        (Confidence::Complete, false) => 0,
        (Confidence::Complete, true) => 1,
        (Confidence::Degraded, true) => 3,
        (Confidence::Degraded, false) => 4,
        (Confidence::Recovered, true) => 5,
        (Confidence::Recovered, false) => 6,
    }
}

pub mod cli;

pub use mcc_apps as apps;
pub use mcc_codec as codec;
pub use mcc_core as core;
pub use mcc_explore as explore;
pub use mcc_mpi_sim as mpi_sim;
pub use mcc_obs as obs;
pub use mcc_profiler as profiler;
pub use mcc_serve as serve;
pub use mcc_st_analyzer as st_analyzer;
pub use mcc_types as types;

/// The names most programs need.
pub mod prelude {
    pub use mcc_core::{
        AnalysisSession, CheckReport, ConsistencyError, Engine, ErrorScope, Severity,
    };
    pub use mcc_mpi_sim::{run, DeliveryPolicy, Instrument, Proc, SimConfig};
    pub use mcc_obs::RecorderHandle;
    pub use mcc_types::{CommId, DataMap, DatatypeId, LockKind, Rank, ReduceOp, Trace, WinId};
}
