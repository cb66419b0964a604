//! The repo's gated benchmark: see `README.md` next to this package.

pub mod check;
pub mod explore;
pub mod gen;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod section;
pub mod serve;
pub mod spans;
