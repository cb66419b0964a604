//! Regenerates **Table II**: overall effectiveness of MC-Checker on the
//! three real-world and two injected bug cases.
//!
//! For every application the harness runs the buggy variant under the
//! Profiler, feeds the trace to the DN-Analyzer, and reports whether the
//! bug was detected, where, and with which conflicting-operation pair —
//! then runs the fixed variant to confirm the checker stays silent (no
//! false positives). Exits 1 when a bug is missed, a fixed variant is
//! flagged, or a workload does not finish.
//!
//! ```text
//! cargo run -p mcc-bench --release --bin table2
//! ```

use mcc_apps::bugs::trace_under_faults;
use mcc_apps::{cases, Source};
use mcc_core::{AnalysisSession, ErrorScope, Severity};
use mcc_mpi_sim::FaultPlan;
use std::process::ExitCode;

fn main() -> ExitCode {
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

    let rows: Vec<_> = cases()
        .iter()
        .filter_map(|c| match c.source {
            Source::Table2(spec) => Some((spec, c)),
            _ => None,
        })
        .collect();
    let mut detected_rows = 0;
    for &(spec, case) in &rows {
        // The deadlock watchdog inside `trace_under_faults` turns a hung
        // workload into a diagnostic row instead of a stuck benchmark.
        let (trace, sim_err) =
            trace_under_faults(case.procs, 0xbead, FaultPlan::none(), case.buggy);
        if let Some(e) = sim_err {
            println!(
                "{:<14} {:>6} {:<18} {:<46} {:<10} {:<9}",
                spec.name,
                case.procs,
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
        detected_rows += usize::from(detected);
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
            case.procs,
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
    for &(spec, case) in &rows {
        let fixed = case.fixed.expect("every Table II row has a fixed variant");
        let (trace, sim_err) = trace_under_faults(case.procs, 0xbead, FaultPlan::none(), fixed);
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
        "Result: {detected_rows} / {} bugs detected; fixed variants {}.",
        rows.len(),
        if clean { "clean (no false positives)" } else { "NOT clean" }
    );
    println!(
        "Paper: \"MC-Checker not only detects all the evaluated three real-world and two \
         injected bugs but also pinpoints the root causes of all five bugs.\""
    );
    ExitCode::from(u8::from(detected_rows < rows.len() || !clean))
}
