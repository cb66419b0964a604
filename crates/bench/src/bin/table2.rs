//! Regenerates **Table II**: overall effectiveness of MC-Checker on the
//! three real-world and two injected bug cases.
//!
//! For every application the harness runs the buggy variant under the
//! Profiler, feeds the trace to the DN-Analyzer, and reports whether the
//! bug was detected, where, and with which conflicting-operation pair —
//! then runs the fixed variant to confirm the checker stays silent (no
//! false positives).
//!
//! ```text
//! cargo run -p mcc-bench --release --bin table2
//! ```

use mcc_apps::bugs::{fixed_cases, table2_cases, trace_under_faults};
use mcc_core::{AnalysisSession, ErrorScope, Severity};
use mcc_mpi_sim::FaultPlan;

fn main() {
    let checker = AnalysisSession::new();
    println!("Table II: Overall effectiveness of MC-Checker");
    println!();
    println!(
        "{:<14} {:>6} {:<18} {:<46} {:<10} {:<9}",
        "Application",
        "Procs",
        "Error location",
        "Root cause (detected pair)",
        "Detected?",
        "Severity"
    );
    println!("{}", "-".repeat(110));

    let mut all_detected = true;
    for (spec, body) in table2_cases() {
        // The deadlock watchdog inside `trace_under_faults` turns a hung
        // workload into a diagnostic row instead of a stuck benchmark.
        let (trace, sim_err) = trace_under_faults(spec.nprocs, 0xbead, FaultPlan::none(), body);
        if let Some(e) = sim_err {
            all_detected = false;
            println!(
                "{:<14} {:>6} {:<18} {:<46} {:<10} {:<9}",
                spec.name,
                spec.nprocs,
                "-",
                format!("workload did not finish: {e}"),
                "NO",
                "-"
            );
            println!();
            continue;
        }
        let report = checker.run(&trace);
        // Prefer the finding in the error location the paper's row names
        // (an injected bug can surface in more than one class).
        let wants_cross = spec.error_location.contains("across");
        let finding = report
            .diagnostics
            .iter()
            .find(|e| matches!(e.scope, ErrorScope::CrossProcess { .. }) == wants_cross)
            .or_else(|| report.diagnostics.first());
        let detected = finding.is_some();
        all_detected &= detected;
        let (loc, pair, sev) = match finding {
            Some(e) => (
                match e.scope {
                    ErrorScope::IntraEpoch { .. } => "within an epoch",
                    ErrorScope::CrossProcess { .. } => "across processes",
                },
                format!("{} vs {}", e.a.op, e.b.op),
                match e.severity {
                    Severity::Error => "ERROR",
                    Severity::Warning => "WARNING",
                },
            ),
            None => ("-", "-".to_string(), "-"),
        };
        println!(
            "{:<14} {:>6} {:<18} {:<46} {:<10} {:<9}",
            spec.name,
            spec.nprocs,
            loc,
            pair,
            if detected { "yes" } else { "NO" },
            sev
        );
        if let Some(e) = finding {
            println!(
                "{:<14} {:>6} root cause per paper: {}  [{}]",
                "",
                "",
                spec.root_cause,
                if spec.injected { "injected" } else { "real-world" }
            );
            println!("{:<14} {:>6} symptom: {}", "", "", spec.symptom);
            println!("{:<14} {:>6} diagnostics: (1) {}   (2) {}", "", "", e.a, e.b);
        }
        println!();
    }

    println!("False-positive regression (fixed variants):");
    let mut clean = true;
    for (spec, body) in fixed_cases() {
        let (trace, sim_err) = trace_under_faults(spec.nprocs, 0xbead, FaultPlan::none(), body);
        if let Some(e) = sim_err {
            clean = false;
            println!("  {:<14} fixed variant did not finish: {e}", spec.name);
            continue;
        }
        let report = checker.run(&trace);
        let findings = report.diagnostics.len();
        clean &= findings == 0;
        println!("  {:<14} fixed variant: {} finding(s)", spec.name, findings);
    }

    println!();
    println!(
        "Result: {} / 5 bugs detected; fixed variants {}.",
        if all_detected { 5 } else { 0 },
        if clean { "clean (no false positives)" } else { "NOT clean" }
    );
    println!(
        "Paper: \"MC-Checker not only detects all the evaluated three real-world and two \
         injected bugs but also pinpoints the root causes of all five bugs.\""
    );
}
