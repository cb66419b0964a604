//! The differential matrix: every body of every built-in case
//! (`mcc_apps::cases()`: 16 rows, 23 bodies) through every analysis path,
//! one test per path. Each column holds its path to the batch Sweep
//! report, and the batch column holds that report to the row's expected
//! verdict. A cell that does not apply is skipped by a rule on the row,
//! never by name:
//!
//! - a row whose fault plan cuts the run short (`adlb-crash`) can only be
//!   analyzed degraded, so the streaming, serve and durable columns skip
//!   it;
//! - explore enumerates fault-free two-rank rows only.

mod common;
use common::matrix::{
    cells, check_batch, check_disk, check_naive, check_naive_degraded, check_streaming,
};
use common::{run_through_fault, start_server, wire_len, BINARY_CFG, JSON_CFG};

use mc_checker::apps::cases;
use mc_checker::explore::Explorer;
use mc_checker::prelude::*;
use mc_checker::serve::proto::SessionOpts;
use mc_checker::serve::{client, CodecKind, FaultKind, FaultSchedule, ServeConfig};

/// The Sweep report meets the row's verdict; fixed bodies are clean.
#[test]
fn batch() {
    assert_eq!((cases().len(), cells().len()), (16, 23), "rows and bodies");
    cells().iter().for_each(check_batch);
}

/// The naive all-pairs engine is the Sweep engine's oracle, on the
/// complete trace and on one damaged on disk (rank 1 cut mid-file and
/// read back tolerantly).
#[test]
fn naive() {
    for cell in cells() {
        check_naive(cell);
        check_naive_degraded(cell);
    }
}

#[test]
fn streaming() {
    for cell in cells().iter().filter(|c| !c.cut) {
        check_streaming(cell);
    }
}

#[test]
fn disk() {
    cells().iter().for_each(check_disk);
}

/// One daemon, every streamable body submitted twice — over per-event
/// JSON frames and over binary batches; both reports are the batch
/// report.
#[test]
fn serve() {
    let (addr, handle, _, join) = start_server(ServeConfig::default());
    for cell in cells().iter().filter(|c| !c.cut) {
        let (name, batch) = (cell.name(), cell.report(Engine::Sweep));
        let opts = SessionOpts::default();
        let (json, json_info) =
            client::submit_tcp_cfg(&addr, &cell.trace, &opts, &JSON_CFG).expect("json submit");
        let (bin, bin_info) =
            client::submit_tcp_cfg(&addr, &cell.trace, &opts, &BINARY_CFG).expect("binary submit");
        assert_eq!((json_info.codec, bin_info.codec), (CodecKind::Json, CodecKind::Binary));
        assert!(
            bin_info.bytes_sent < json_info.bytes_sent,
            "{name}: binary batches must be smaller ({} vs {} bytes)",
            bin_info.bytes_sent,
            json_info.bytes_sent
        );
        assert_eq!(json.to_json(), bin.to_json(), "{name}: codecs disagree");
        assert_eq!(bin.confidence, batch.confidence, "{name}");
        assert_eq!(bin.events_ingested, cell.trace.total_events() as u64, "{name}");
        assert_eq!(
            serde_json::to_string(&bin.findings).unwrap(),
            serde_json::to_string(&batch.diagnostics).unwrap(),
            "{name}: daemon diverges from batch"
        );
    }
    handle.shutdown();
    join.join().expect("server thread");
}

/// A durable session per streamable body through a chaos proxy; the
/// fault kinds rotate over the bodies, so each kind hits at least four
/// rows.
#[test]
fn durable() {
    for (i, cell) in cells().iter().filter(|c| !c.cut).enumerate() {
        let kind = FaultKind::ALL[i % FaultKind::ALL.len()];
        let schedule = FaultSchedule::from_seed(i as u64, kind, wire_len(&cell.trace));
        run_through_fault(&cell.name(), &cell.trace, schedule, i as u64);
    }
}

/// Fault-free two-rank rows under systematic exploration: a buggy body
/// shows its bug within 8 schedules (bt-broadcast alone has 66), a fixed
/// one is covered completely and clean.
#[test]
fn explore() {
    for cell in cells().iter().filter(|c| c.case.faults.is_none() && c.procs == 2) {
        let name = cell.name();
        if !cell.fixed {
            let report = Explorer::new(2).with_max_schedules(8).run(cell.body);
            assert!(report.first_buggy.is_some(), "{name}: no buggy schedule");
            assert!(report.has_errors(), "{name}: error-severity findings expected");
            assert_eq!(report.exit_code(), 1, "{name}");
            assert!(!report.findings[0].witness.is_empty(), "{name}: finding carries its witness");
            continue;
        }
        let report = Explorer::new(2).run(cell.body);
        assert!(report.first_buggy.is_none() && !report.has_errors(), "{name}: flagged");
        assert!(!report.exhausted, "{name}: the space must be covered, not cut");
        assert_eq!(report.exit_code(), 0, "{name}");
        assert!(report.render().contains("no consistency error in any"), "{name}");
    }
}
