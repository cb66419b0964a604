//! Integration test for the paper's Figure 2: all four memory consistency
//! error archetypes are detected, each with the correct scope and
//! conflicting pair, and with byte-precise diagnostics.

use mc_checker::apps::bugs::{archetypes, trace_of};
use mc_checker::apps::{cases, Source};
use mc_checker::prelude::*;

#[test]
fn fig2a_intra_epoch_put_store() {
    let report = AnalysisSession::new().run(&trace_of(2, 5, archetypes::fig2a));
    let e = report.errors().next().expect("fig2a detected");
    assert!(matches!(e.scope, ErrorScope::IntraEpoch { rank: Rank(0), .. }));
    let ops = [e.a.op.as_str(), e.b.op.as_str()];
    assert!(ops.contains(&"MPI_Put") && ops.contains(&"store"));
}

#[test]
fn fig2b_active_target_across_processes() {
    let report = AnalysisSession::new().run(&trace_of(3, 5, archetypes::fig2b));
    let e = report.errors().next().expect("fig2b detected");
    match e.scope {
        ErrorScope::CrossProcess { target, .. } => assert_eq!(target, Rank(1)),
        other => panic!("wrong scope {other:?}"),
    }
    assert_eq!(e.a.op, "MPI_Put");
    assert_eq!(e.b.op, "MPI_Put");
}

#[test]
fn fig2c_passive_target_across_processes() {
    let report = AnalysisSession::new().run(&trace_of(3, 5, archetypes::fig2c));
    let e = report.errors().next().expect("fig2c detected");
    assert!(matches!(e.scope, ErrorScope::CrossProcess { target: Rank(1), .. }));
    let ops = [e.a.op.as_str(), e.b.op.as_str()];
    assert!(ops.contains(&"MPI_Put") && ops.contains(&"MPI_Get"));
    assert_eq!(e.severity, Severity::Error, "shared locks do not serialize");
}

#[test]
fn fig2d_origin_vs_target() {
    let report = AnalysisSession::new().run(&trace_of(2, 5, archetypes::fig2d));
    let e = report.errors().next().expect("fig2d detected");
    assert!(matches!(e.scope, ErrorScope::CrossProcess { target: Rank(1), .. }));
    let ops = [e.a.op.as_str(), e.b.op.as_str()];
    assert!(ops.contains(&"MPI_Put") && ops.contains(&"store"));
}

#[test]
fn diagnostics_point_into_the_archetype_source() {
    for case in cases().iter().filter(|c| matches!(c.source, Source::Figure2(_))) {
        let (name, report) =
            (case.name, AnalysisSession::new().run(&trace_of(case.procs, 5, case.buggy)));
        let e = report.errors().next().unwrap();
        assert!(
            e.a.loc.file.ends_with("archetypes.rs"),
            "{name}: diagnostics cite the source ({})",
            e.a.loc.file
        );
        assert_eq!(e.a.loc.func, name);
        assert!(e.a.region.is_some(), "{name}: byte-precise footprint reported");
    }
}
