//! The streaming (online) checker must agree with the batch checker on
//! the entire bug suite — same findings on the buggy variants, silence on
//! the fixed ones — while keeping its buffer bounded. (Every built-in
//! body: the `streaming` column of `tests/differential.rs`.)

mod common;
use common::matrix::{cells, check_streaming, Cell};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::apps::Source;
use mc_checker::core::streaming::StreamingChecker;

fn is_table2(cell: &&Cell) -> bool {
    matches!(cell.case.source, Source::Table2(_))
}

#[test]
fn streaming_matches_batch_on_buggy_suite() {
    for cell in cells().iter().filter(is_table2).filter(|c| !c.fixed) {
        let streamed = check_streaming(cell);
        assert!(!streamed.is_empty(), "{}: bug found while streaming", cell.name());
    }
}

#[test]
fn streaming_matches_batch_on_fixed_suite() {
    for cell in cells().iter().filter(is_table2).filter(|c| c.fixed) {
        let streamed = check_streaming(cell);
        assert!(streamed.is_empty(), "{} flagged by streaming", cell.name());
    }
}

#[test]
fn streaming_matches_batch_on_extension_cases() {
    for cell in cells().iter().filter(|c| matches!(c.case.source, Source::Extension(_))) {
        let streamed = check_streaming(cell);
        assert_eq!(streamed.is_empty(), cell.fixed, "{}", cell.name());
    }
}

#[test]
fn streaming_buffer_bounded_on_iterative_app() {
    // Jacobi runs many fence-bounded iterations; the streaming buffer
    // must stay well below the trace size.
    let trace = trace_of(4, 5, bugs::jacobi::fixed);
    let (_, stats) = StreamingChecker::run_over(&trace);
    assert!(stats.regions_flushed > 2);
    assert!(
        stats.peak_buffered < stats.total_events,
        "peak {} < total {}",
        stats.peak_buffered,
        stats.total_events
    );
}
