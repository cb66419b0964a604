//! The bug gallery: runs all four Figure 2 error archetypes plus the five
//! Table II applications (buggy and fixed variants) and prints what the
//! checker finds for each.
//!
//! ```text
//! cargo run --release --example bug_gallery
//! ```

use mc_checker::apps::{bugs, cases, Source};
use mc_checker::prelude::*;

fn check(name: &str, nprocs: u32, body: impl Fn(&mut Proc) + Send + Sync) {
    let trace = bugs::trace_of(nprocs, 99, body);
    let report = AnalysisSession::new().run(&trace);
    let errors = report.errors().count();
    let warnings = report.warnings().count();
    println!("=== {name} ({nprocs} procs): {errors} error(s), {warnings} warning(s) ===");
    for e in report.diagnostics.iter().take(2) {
        println!("{e}\n");
    }
}

fn main() {
    println!("--- Figure 2 archetypes ---------------------------------\n");
    for case in cases() {
        if let Source::Figure2(scope) = case.source {
            println!("[expected: {}]", scope.name());
            check(case.name, case.procs, case.buggy);
        }
    }

    let table2 = || cases().iter().filter(|c| matches!(c.source, Source::Table2(_)));
    println!("--- Table II applications (buggy) ------------------------\n");
    for case in table2() {
        check(case.bug_spec().unwrap().name, case.procs, case.buggy);
    }

    println!("--- Table II applications (fixed: expect silence) --------\n");
    for case in table2() {
        let name = format!("{} (fixed)", case.bug_spec().unwrap().name);
        check(&name, case.procs, case.fixed.unwrap());
    }

    println!("--- the original lockopts (exclusive lock → warning) -----\n");
    check("lockopts/exclusive", 8, bugs::lockopts::original_exclusive);

    println!("--- extension case studies (ADLB §II-B, MPI-3 §V) --------\n");
    for case in cases() {
        if let Source::Extension(spec) = case.source {
            check(spec.name, case.procs, case.buggy);
            check(&format!("{} (fixed)", spec.name), case.procs, case.fixed.unwrap());
        }
    }
}
