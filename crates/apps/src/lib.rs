#![warn(missing_docs)]
//! The paper's evaluation applications.

pub mod bugs;
mod cases;
pub mod overhead;

pub use cases::{case, cases, Body, Case, Scope, Source, Verdict};
