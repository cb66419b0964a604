//! End-to-end determinism and ground truth of the recovery gallery.
//!
//! The four fault-tolerant workloads (checkpointed Jacobi, re-exposed
//! pingpong, interrupted ADLB, notification race) die survivably inside
//! the simulator and route the checker through its failure-aware
//! pipeline. The contract under test: the recovered verdict is *stable* —
//! byte-identical across the sweep and naive engines, and between
//! streaming and batch analysis — and matches each workload's ground
//! truth. The checks are the recovery rows' cells of the differential
//! matrix (`tests/differential.rs`); this suite also pins the
//! simulator's own failure ledger and the exit codes that report those
//! verdicts.

mod common;
use common::matrix::{cells, check_batch, check_naive, check_streaming};

use mc_checker::apps::{cases, Source};
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::Confidence;
use mc_checker::mpi_sim::{run_tolerant, DeliveryPolicy, SimConfig};
use mc_checker::prelude::*;
use mc_checker::types::EventKind;
use std::time::Duration;

/// The runner's own ledger agrees with the spec: exactly the scheduled
/// rank dies, after exactly the advertised number of completed epochs,
/// and each survivor's log — not the dead rank's — carries one
/// notification marker.
#[test]
fn runner_ledger_matches_the_spec() {
    for case in cases() {
        let Source::Recovery(spec) = case.source else { continue };
        let faults = case.faults.expect("a recovery workload ships its failure");
        let outcome = run_tolerant(
            SimConfig::new(case.procs)
                .with_seed(11)
                .with_delivery(DeliveryPolicy::AtClose)
                .with_faults(faults())
                .expect("gallery fault plans target existing ranks")
                .with_watchdog(Duration::from_millis(2000)),
            case.buggy,
        )
        .expect("gallery configuration is valid");
        assert!(outcome.error.is_none(), "{}", spec.name);
        assert_eq!(
            outcome.stats.failures,
            vec![(spec.failed_rank, spec.epochs_completed)],
            "{}: runner failure ledger",
            spec.name
        );
        let trace = outcome.trace.expect("tracing is enabled");
        for (r, proc) in trace.procs.iter().enumerate() {
            let markers =
                proc.events.iter().filter(|e| matches!(e.kind, EventKind::RankFailed { .. }));
            let survivor = r as u32 != spec.failed_rank;
            assert_eq!(markers.count(), usize::from(survivor), "{}: rank {r}", spec.name);
        }
    }
}

/// The sweep and naive engines agree on every recovered report.
#[test]
fn recovered_report_identical_across_engines() {
    for cell in cells().iter().filter(|c| c.is_recovery()) {
        let sweep = cell.report(Engine::Sweep).to_json();
        assert!(sweep.contains("\"confidence\": \"recovered\""), "{}", cell.name());
        check_naive(cell);
    }
}

/// Streaming analysis of a failure trace reports exactly what batch
/// reports, byte for byte, and flags the session as recovered.
#[test]
fn streaming_matches_batch_on_recovery_gallery() {
    cells().iter().filter(|c| c.is_recovery()).for_each(|cell| {
        check_streaming(cell);
    });
}

/// The streaming checker's recovered flag trips exactly on failure
/// traces, fed event by event.
#[test]
fn streaming_recovered_flag_follows_the_markers() {
    for cell in cells().iter().filter(|c| c.is_recovery()) {
        let trace = &cell.trace;
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
            cell.name()
        );
        let _ = sc.finish();
    }
}

/// Ground truth once more, through the facade: kinds, confidence, and the
/// identity of both sides of each finding.
#[test]
fn gallery_ground_truth_via_facade() {
    cells().iter().filter(|c| c.is_recovery()).for_each(check_batch);
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
    // Code 2 (usage, I/O, invalid trace) never comes out of
    // exit_code_for; it must still be documented.
    assert!(mc_checker::EXIT_CODE_TABLE.contains("2  usage, I/O or invalid-trace error"));
}
