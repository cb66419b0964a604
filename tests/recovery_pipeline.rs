//! End-to-end determinism and ground truth of the recovery gallery.
//!
//! The four fault-tolerant workloads (checkpointed Jacobi, re-exposed
//! pingpong, interrupted ADLB, notification race) die survivably inside
//! the simulator and route the checker through its failure-aware
//! pipeline. The contract under test: the recovered verdict is *stable* —
//! byte-identical across the sweep and naive engines, and between
//! streaming and batch analysis — and matches each workload's ground
//! truth.

use mc_checker::apps::bugs::{recovery_gallery, trace_under_faults};
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::Confidence;
use mc_checker::mpi_sim::{run_tolerant, DeliveryPolicy, SimConfig};
use mc_checker::prelude::*;
use recovery_gallery::RecoverySpec;
use std::time::Duration;

fn gallery_traces() -> Vec<(RecoverySpec, Trace)> {
    recovery_gallery::gallery()
        .into_iter()
        .map(|(spec, faults, body)| {
            let (trace, error) = trace_under_faults(spec.nprocs, 11, faults(), body);
            assert!(error.is_none(), "{}: a survivable failure is not an error", spec.name);
            (spec, trace)
        })
        .collect()
}

/// The runner's own ledger agrees with the spec: exactly the scheduled
/// rank dies, after exactly the advertised number of completed epochs.
#[test]
fn runner_ledger_matches_the_spec() {
    for (spec, faults, body) in recovery_gallery::gallery() {
        let outcome = run_tolerant(
            SimConfig::new(spec.nprocs)
                .with_seed(11)
                .with_delivery(DeliveryPolicy::AtClose)
                .with_faults(faults())
                .expect("gallery fault plans target existing ranks")
                .with_watchdog(Duration::from_millis(2000)),
            body,
        )
        .expect("gallery configuration is valid");
        assert!(outcome.error.is_none(), "{}", spec.name);
        assert_eq!(
            outcome.stats.failures,
            vec![(spec.failed_rank, spec.epochs_completed)],
            "{}: runner failure ledger",
            spec.name
        );
    }
}

/// The sweep and naive engines agree on every recovered report.
#[test]
fn recovered_report_identical_across_engines() {
    for (spec, trace) in gallery_traces() {
        let sweep = AnalysisSession::new().run(&trace).to_json();
        assert!(sweep.contains("\"confidence\": \"recovered\""), "{}", spec.name);
        let naive = AnalysisSession::builder().engine(Engine::Naive).build().run(&trace);
        assert_eq!(sweep, naive.to_json(), "{}: engines disagree", spec.name);
    }
}

/// Streaming analysis of a failure trace reports exactly what batch
/// reports, byte for byte, and flags the session as recovered.
#[test]
fn streaming_matches_batch_on_recovery_gallery() {
    for (spec, trace) in gallery_traces() {
        let batch = AnalysisSession::new().run(&trace);
        assert_eq!(batch.confidence, Confidence::Recovered, "{}", spec.name);
        let (streamed, _stats) = StreamingChecker::run_over(&trace);
        assert_eq!(streamed, batch.diagnostics, "{}: streamed findings diverge", spec.name);
        let a = serde_json::to_string(&streamed).unwrap();
        let b = serde_json::to_string(&batch.diagnostics).unwrap();
        assert_eq!(a, b, "{}: serialized findings diverge", spec.name);
    }
}

/// The streaming checker's recovered flag trips exactly on failure
/// traces.
#[test]
fn streaming_recovered_flag_follows_the_markers() {
    for (spec, trace) in gallery_traces() {
        let mut sc = StreamingChecker::new(trace.nprocs()).unwrap();
        for r in 0..trace.nprocs() {
            for ev in &trace.procs[r].events {
                let loc = trace.procs[r].loc(ev.loc);
                sc.push(Rank(r as u32), ev.kind.clone(), loc).unwrap();
            }
        }
        assert!(
            sc.is_recovered(),
            "{}: streaming checker must notice the failure markers",
            spec.name
        );
        let _ = sc.finish();
    }
}

/// The exit-code contract has one source of truth. Every line of
/// `EXIT_CODE_TABLE` must appear verbatim in the README and in what
/// `mcc help` prints, and the table's left column must agree with
/// `exit_code_for` on every (confidence, has_errors) combination.
#[test]
fn exit_code_table_does_not_drift() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_mcc")).arg("help").output().unwrap();
    let help = String::from_utf8(help.stdout).unwrap();
    for line in mc_checker::EXIT_CODE_TABLE.lines() {
        let line = line.trim();
        assert!(readme.contains(line), "README.md lost exit-code line: {line}");
        assert!(help.contains(line), "`mcc help` lost exit-code line: {line}");
    }
    let expect = [
        (Confidence::Complete, false, 0u8, "complete analysis, no errors"),
        (Confidence::Complete, true, 1, "complete analysis, errors found"),
        (Confidence::Degraded, true, 3, "degraded analysis, errors found"),
        (Confidence::Degraded, false, 4, "degraded analysis, no errors"),
        (Confidence::Recovered, true, 5, "recovered analysis (rank failure modeled), errors found"),
        (Confidence::Recovered, false, 6, "recovered analysis (rank failure modeled), no errors"),
    ];
    for (conf, errs, code, desc) in expect {
        assert_eq!(mc_checker::exit_code_for(conf, errs), code, "{desc}");
        let row = mc_checker::EXIT_CODE_TABLE
            .lines()
            .find(|l| l.trim().starts_with(&format!("{code}  ")))
            .unwrap_or_else(|| panic!("table has no row for exit code {code}"));
        assert!(row.contains(desc), "table row for {code} does not describe `{desc}`: {row}");
    }
    // Code 2 (usage/IO) never comes out of exit_code_for; it must still
    // be documented.
    assert!(mc_checker::EXIT_CODE_TABLE.contains("2  usage or I/O error"));
}

/// Ground truth once more, through the facade: kinds, confidence, and the
/// identity of both sides of each finding.
#[test]
fn gallery_ground_truth_via_facade() {
    for (spec, trace) in gallery_traces() {
        let report = AnalysisSession::new().run(&trace);
        assert_eq!(report.confidence, Confidence::Recovered, "{}", spec.name);
        let kinds: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| match d.kind {
                mc_checker::types::ConflictKind::StaleReadFromFailedRank => {
                    "stale-read-from-failed-rank"
                }
                mc_checker::types::ConflictKind::LostUpdateAcrossReexposure => {
                    "lost-update-across-reexposure"
                }
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, spec.expected_kinds, "{}: {}", spec.name, report.render());
        for d in &report.diagnostics {
            assert_eq!(d.a.rank.0, spec.failed_rank, "{}: side A is the dead rank", spec.name);
        }
    }
}
