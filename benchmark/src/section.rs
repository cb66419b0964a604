//! What the three measured paths (check, serve, explore) have in common.
//!
//! A run does not measure its paths one after the other: it cuts the
//! time into rounds and gives every path a slice of every round. The
//! host's speed wanders by ±10 % over seconds; a path measured in one
//! block would report whichever state the host was in, while slices
//! spread over the whole run sample all of them, and the medians over
//! slices and ops repeat from run to run.

use crate::metrics::Ledger;
use crate::spans::Tracer;
use std::time::Duration;

/// One measured path of a run.
pub trait Section {
    /// One op outside the measurement — part of set-up — so lazy
    /// initialisation (page cache, allocator arenas, thread start-up) is
    /// not measured. `Err` when the op fails its ground-truth check.
    fn warm_up(&mut self) -> Result<(), String>;

    /// Measures ops for about `budget`, at least one. A recording tracer
    /// makes it a slice of the traced pass, accounted apart from the
    /// untraced one.
    fn slice(&mut self, budget: Duration, tr: &mut Tracer);

    /// Ops attempted so far and the reason of every failed one.
    fn ops(&self) -> (u64, Vec<String>);

    /// Records the path's end-to-end metrics from the untraced slices.
    fn end_to_end(&self, ledger: &mut Ledger) -> Result<(), String>;

    /// Records the path's per-layer metrics from the traced slices and
    /// its layer probes. Returns the tracing overhead in percent: traced
    /// against untraced median op time.
    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Result<f64, String>;
}
