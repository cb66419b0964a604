//! Integration test for the Profiler→DN-Analyzer file boundary: traces
//! survive the on-disk round trip byte-exactly and produce identical
//! reports, mirroring the paper's offline analysis workflow. (Every
//! built-in body: the `disk` column of `tests/differential.rs`.)

mod common;
use common::matrix::{cells, check_disk};

use mc_checker::apps::Source;
use mc_checker::prelude::*;
use mc_checker::profiler::{read_trace_dir, write_trace_dir};
use mc_checker::types::EventKind;

#[test]
fn reports_identical_after_disk_round_trip() {
    cells()
        .iter()
        .filter(|c| !c.fixed && matches!(c.case.source, Source::Table2(_)))
        .for_each(check_disk);
}

#[test]
fn big_trace_round_trip() {
    // A heavier trace with datatypes, groups and sub-communicators.
    let result = run(SimConfig::new(4).with_seed(11), |p| {
        let world = p.comm_group(CommId::WORLD);
        let evens = p.group_incl(world, &[0, 2]);
        let sub = p.comm_create(CommId::WORLD, evens);
        let col = p.type_vector(4, 1, 4, DatatypeId::INT);
        let mat = p.alloc_i32s(16);
        let win = p.win_create(mat, 64, CommId::WORLD);
        p.win_fence(win);
        if p.rank() == 0 {
            let src = p.alloc_i32s(4);
            p.put(src, 4, DatatypeId::INT, 1, 0, 1, col, win);
        }
        p.win_fence(win);
        if let Some(c) = sub {
            p.barrier(c);
        }
        p.win_free(win);
    })
    .unwrap();
    let trace = result.trace.unwrap();
    let dir = std::env::temp_dir().join(format!("mcc-it-big-{}", std::process::id()));
    write_trace_dir(&trace, &dir).unwrap();
    let loaded = read_trace_dir(&dir).unwrap();
    assert_eq!(trace, loaded);
    std::fs::remove_dir_all(&dir).ok();
}

/// Failure traces — with `rank_failed`, `MPI_Win_reexpose`, `checkpoint`
/// and `restore` markers — survive the disk round trip byte-exactly, and
/// the recovered report is identical on both sides.
#[test]
fn recovery_markers_survive_the_disk_round_trip() {
    for cell in cells().iter().filter(|c| c.is_recovery()) {
        assert!(
            cell.trace.iter_events().any(|(_, e)| matches!(e.kind, EventKind::RankFailed { .. })),
            "{}: failure trace carries its markers",
            cell.name()
        );
        check_disk(cell);
    }
}
