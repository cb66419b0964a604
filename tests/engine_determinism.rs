//! The sharded sweep engine against its oracle: the `CheckReport` JSON
//! must be byte-identical to the naive all-pairs engine's on every bug
//! archetype, in both complete and degraded mode.

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::prelude::*;
use mc_checker::profiler::{read_trace_dir_tolerant, stream_trace_dir};
use std::fs;

type BugBody = fn(&mut Proc);

/// Every bug archetype in `crates/apps/src/bugs`, at a small scale.
fn archetype_traces() -> Vec<(&'static str, Trace)> {
    let cases: [(&'static str, u32, BugBody); 8] = [
        ("adlb", 4, bugs::adlb::buggy),
        ("mpi3_queue", 4, bugs::mpi3_queue::buggy),
        ("bt_broadcast", 4, bugs::bt_broadcast::buggy),
        ("emulate", 4, bugs::emulate::buggy),
        ("jacobi", 4, bugs::jacobi::buggy),
        ("lockopts", 4, bugs::lockopts::buggy),
        ("pingpong", 2, bugs::pingpong::buggy),
        ("fig2c", 3, bugs::archetypes::fig2c),
    ];
    cases.iter().map(|&(name, n, body)| (name, trace_of(n, 0xdead, body))).collect()
}

#[test]
fn sweep_matches_naive_on_every_archetype() {
    for (name, trace) in archetype_traces() {
        let sweep = AnalysisSession::new().run(&trace).to_json();
        assert!(sweep.contains("\"schema_version\": 1"), "{name}");
        let naive = AnalysisSession::builder().engine(Engine::Naive).build().run(&trace);
        assert_eq!(sweep, naive.to_json(), "{name}: sweep and naive engines disagree");
    }
}

#[test]
fn degraded_sweep_matches_naive_on_every_archetype() {
    // Damage the on-disk trace (truncate one rank mid-line), read it back
    // tolerantly, and require byte-identical degraded reports from both
    // engines.
    for (name, trace) in archetype_traces() {
        let dir =
            std::env::temp_dir().join(format!("mcc-it-engine-det-{name}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        stream_trace_dir(&trace, &dir).unwrap();
        let victim = dir.join("rank-1.jsonl");
        let data = fs::read(&victim).unwrap();
        fs::write(&victim, &data[..data.len() / 2]).unwrap();
        let (damaged, health) = read_trace_dir_tolerant(&dir).unwrap();
        assert!(!health.is_complete(), "{name}");
        fs::remove_dir_all(&dir).ok();

        let report_of = |engine: Engine| {
            let mut report = AnalysisSession::builder()
                .engine(engine)
                .tolerate_truncation(true)
                .build()
                .run(&damaged);
            report.mark_degraded();
            report.to_json()
        };
        assert_eq!(
            report_of(Engine::Sweep),
            report_of(Engine::Naive),
            "{name}: degraded sweep and naive reports disagree"
        );
    }
}
