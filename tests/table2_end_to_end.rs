//! Integration test for Table II: every bug case detected end-to-end at
//! the paper's process counts, with the expected scope, root-cause pair,
//! and severity — and every fixed variant clean.

use mc_checker::apps::bugs::{self, trace_of, BugSpec};
use mc_checker::apps::{cases, Case, Source};
use mc_checker::prelude::*;

/// The Table II rows of the case registry.
fn table2() -> impl Iterator<Item = (BugSpec, &'static Case)> {
    cases().iter().filter_map(|c| match c.source {
        Source::Table2(spec) => Some((spec, c)),
        _ => None,
    })
}

#[test]
fn all_five_bugs_detected_at_paper_scale() {
    for (spec, case) in table2() {
        let trace = trace_of(case.procs, 0xdead, case.buggy);
        let report = AnalysisSession::new().run(&trace);
        assert!(report.has_errors(), "{} not detected", spec.name);
        // Scope matches the paper's "error location" column.
        let wants_cross = spec.error_location.contains("across");
        assert!(
            report
                .errors()
                .any(|e| matches!(e.scope, ErrorScope::CrossProcess { .. }) == wants_cross),
            "{}: no finding in the expected location `{}`:\n{}",
            spec.name,
            spec.error_location,
            report.render()
        );
        // Diagnostics carry file/line/function for both sides.
        for e in report.errors() {
            assert!(e.a.loc.line > 0, "{}", spec.name);
            assert!(!e.a.loc.func.is_empty());
            assert!(e.b.loc.line > 0);
        }
    }
}

#[test]
fn no_false_positives_on_fixed_variants() {
    for (spec, case) in table2() {
        let trace = trace_of(case.procs, 0xdead, case.fixed.expect("Table II rows have both"));
        let report = AnalysisSession::new().run(&trace);
        assert_eq!(
            report.diagnostics.len(),
            0,
            "{} (fixed) flagged:\n{}",
            spec.name,
            report.render()
        );
    }
}

#[test]
fn detection_is_scale_independent() {
    // "MC-Checker's detection capability is not affected by the scale of
    // the system": lockopts detected from 4 up to 64 ranks.
    for nprocs in [4u32, 16, 64] {
        let trace = trace_of(nprocs, 0xdead, bugs::lockopts::buggy);
        let report = AnalysisSession::new().run(&trace);
        assert!(report.has_errors(), "lockopts at {nprocs} ranks");
    }
}

#[test]
fn exclusive_lock_demotion_matches_paper() {
    // "For the original bug with the exclusive lock, we can also detect
    // it but report only a warning."
    let trace = trace_of(8, 0xdead, bugs::lockopts::original_exclusive);
    let report = AnalysisSession::new().run(&trace);
    assert!(!report.has_errors());
    assert!(report.warnings().next().is_some());
}

#[test]
fn detection_independent_of_checker_options() {
    for (spec, case) in table2() {
        let trace = trace_of(case.procs.min(8), 0xdead, case.buggy);
        let baseline = AnalysisSession::new().run(&trace).diagnostics.len();
        for (name, session) in [
            ("naive engine", AnalysisSession::builder().engine(Engine::Naive).build()),
            ("no region partitioning", AnalysisSession::builder().partition_regions(false).build()),
            ("naive matching", AnalysisSession::builder().naive_matching(true).build()),
        ] {
            let n = session.run(&trace).diagnostics.len();
            assert_eq!(n, baseline, "{} with {name}", spec.name);
        }
    }
}
