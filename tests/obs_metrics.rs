//! Observability invariants: pipeline metric snapshots must be
//! byte-identical from run to run (durations are kept out of snapshots),
//! and the Chrome-trace export must be valid JSON whose span set covers
//! the whole analysis pipeline.

mod common;
use common::{sample_trace, SAMPLE};

use mc_checker::apps::bugs::{self, trace_of};
use mc_checker::prelude::*;
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeSet;

/// Runs one analysis into a fresh recorder and renders the snapshot.
fn snapshot_of(trace: &Trace, engine: Engine) -> String {
    let obs = RecorderHandle::enabled();
    AnalysisSession::builder().engine(engine).recorder(obs.clone()).build().run(trace);
    obs.snapshot().render()
}

#[test]
fn metric_snapshots_identical_across_runs() {
    for (name, trace) in (0..SAMPLE.len()).map(|i| sample_trace(i, 0xdead)) {
        let sweep = snapshot_of(&trace, Engine::Sweep);
        assert!(sweep.contains("mcc_events_total"), "{name}: {sweep}");
        assert!(sweep.contains("mcc_shards_total"), "{name}: {sweep}");
        // The byte-identity contract covers histograms too: the sweep
        // engine populates the shard-size distribution.
        assert!(
            sweep.contains("mcc_shard_items_bucket{le=\"+Inf\"}"),
            "{name}: shard_items histogram missing: {sweep}"
        );
        assert!(sweep.contains("mcc_shard_items_count"), "{name}: {sweep}");
        assert_eq!(snapshot_of(&trace, Engine::Sweep), sweep, "{name}: sweep snapshot diverged");
        let naive = snapshot_of(&trace, Engine::Naive);
        assert_eq!(snapshot_of(&trace, Engine::Naive), naive, "{name}: naive snapshot diverged");
        strict_prometheus_parse(&sweep);
        strict_prometheus_parse(&naive);
    }
}

/// The interval sweep hands the Table-I check only overlaps that involve
/// a window writer. Seven ranks `MPI_Get` the same four slots of rank 0
/// three times each (84 Gets, 840 compatible Get/Get overlaps in the
/// one shard); ranks 1 and 2 also `MPI_Put` to a fifth slot that rank 3
/// reads — the only writer-involved overlaps (Put/Put and two Get/Put).
/// Counts, not timings: a sweep that enumerates reader pairs again
/// fails this at any machine speed.
#[test]
fn interval_pairs_count_only_writer_involved_overlaps() {
    use mc_checker::types::{EventKind, RmaKind, RmaOp, SourceLoc, TraceBuilder};
    const RANKS: u32 = 8;
    let rma = |kind, origin_addr, slot: u64| {
        EventKind::Rma(RmaOp {
            kind,
            win: WinId(0),
            target: Rank(0),
            origin_addr,
            origin_count: 1,
            origin_dtype: DatatypeId::INT,
            target_disp: 8 * slot,
            target_count: 1,
            target_dtype: DatatypeId::INT,
        })
    };
    let mut b = TraceBuilder::new(RANKS as usize);
    for r in 0..RANKS {
        b.push(
            Rank(r),
            EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
        );
        b.push(Rank(r), EventKind::Fence { win: WinId(0) });
    }
    for r in 1..RANKS {
        // Every op has its own origin buffer: no intra-epoch findings.
        for i in 0..12u64 {
            b.push(Rank(r), rma(RmaKind::Get, 4096 + 8 * i, i % 4));
        }
    }
    for (r, kind) in [(1, RmaKind::Put), (2, RmaKind::Put), (3, RmaKind::Get)] {
        // Distinct source lines, so dedup keeps all three findings.
        b.push_at(Rank(r), rma(kind, 8192, 5), SourceLoc::new("plant.c", 10 + r, "main"));
    }
    for r in 0..RANKS {
        b.push(Rank(r), EventKind::Fence { win: WinId(0) });
    }
    let trace = b.build();

    let run = |engine: Engine| {
        let obs = RecorderHandle::enabled();
        let report =
            AnalysisSession::builder().engine(engine).recorder(obs.clone()).build().run(&trace);
        (report.to_json(), obs.snapshot())
    };
    let (naive_json, _) = run(Engine::Naive);
    let (sweep_json, sweep) = run(Engine::Sweep);
    assert_eq!(sweep_json, naive_json, "the filter must not change the report");
    assert_eq!(sweep.counters["findings_error_total"], 3);
    assert_eq!(sweep.counters["interval_pairs_total"], 3, "Get/Get overlaps were enumerated");
}

/// A strict line-level parser for the Prometheus text exposition the
/// daemon serves: every line is either a `# TYPE` header or a sample
/// belonging to the most recent header; histogram blocks carry
/// non-decreasing cumulative buckets ending at `+Inf`, with `_count`
/// equal to the `+Inf` bucket. Returns `(families, samples)` counts.
fn strict_prometheus_parse(text: &str) -> (usize, usize) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    let mut current: Option<(String, &'static str)> = None;
    let mut seen_families = std::collections::BTreeSet::new();
    let mut hist_cum: Option<u64> = None;
    let mut hist_count: Option<u64> = None;
    let mut hist_inf: Option<u64> = None;
    let mut samples = 0usize;
    let close_hist = |cum: &mut Option<u64>, count: &mut Option<u64>, inf: &mut Option<u64>| {
        if let (Some(inf), Some(count)) = (inf.take(), count.take()) {
            assert_eq!(inf, count, "histogram _count must equal the +Inf bucket");
        }
        *cum = None;
    };
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            close_hist(&mut hist_cum, &mut hist_count, &mut hist_inf);
            let mut it = rest.split(' ');
            let name = it.next().expect("TYPE line has a name");
            let kind = match it.next() {
                Some("counter") => "counter",
                Some("gauge") => "gauge",
                Some("histogram") => "histogram",
                other => panic!("unknown metric type {other:?} in `{line}`"),
            };
            assert!(it.next().is_none(), "trailing junk in `{line}`");
            assert!(valid_name(name), "bad metric name in `{line}`");
            assert!(name.starts_with("mcc_"), "unprefixed family in `{line}`");
            assert!(seen_families.insert(name.to_string()), "family `{name}` declared twice");
            current = Some((name.to_string(), kind));
            continue;
        }
        let (family, kind) = current.as_ref().expect("sample before any # TYPE header");
        let (metric, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: u64 = value.parse().unwrap_or_else(|_| panic!("non-integer value in `{line}`"));
        samples += 1;
        match *kind {
            "counter" | "gauge" => {
                assert_eq!(metric, family, "sample `{metric}` outside its family `{family}`");
            }
            "histogram" => {
                if let Some(rest) = metric.strip_prefix(family.as_str()) {
                    match rest {
                        "_sum" => {}
                        "_count" => {
                            assert!(hist_count.replace(value).is_none(), "two _count lines");
                        }
                        _ => {
                            let le = rest
                                .strip_prefix("_bucket{le=\"")
                                .and_then(|s| s.strip_suffix("\"}"))
                                .unwrap_or_else(|| panic!("bad histogram sample `{line}`"));
                            if le == "+Inf" {
                                assert!(hist_inf.replace(value).is_none(), "two +Inf buckets");
                            } else {
                                let _: u64 = le
                                    .parse()
                                    .unwrap_or_else(|_| panic!("non-integer le in `{line}`"));
                                assert!(
                                    hist_inf.is_none(),
                                    "bucket after +Inf in family `{family}`"
                                );
                            }
                            let prev = hist_cum.replace(value).unwrap_or(0);
                            assert!(
                                value >= prev,
                                "cumulative bucket decreased in `{line}` ({prev} -> {value})"
                            );
                        }
                    }
                } else {
                    panic!("sample `{metric}` outside its family `{family}`");
                }
            }
            _ => unreachable!(),
        }
    }
    close_hist(&mut hist_cum, &mut hist_count, &mut hist_inf);
    (seen_families.len(), samples)
}

/// The daemon's `METRICS` payload — counters, latency histograms, and
/// gauges — survives the strict parser, over a snapshot populated by a
/// real pipeline run plus the serve-layer latency families.
#[test]
fn prometheus_exposition_is_strictly_well_formed() {
    let trace = trace_of(4, 0xdead, bugs::adlb::buggy);
    let obs = RecorderHandle::enabled();
    AnalysisSession::builder().recorder(obs.clone()).build().run(&trace);
    // The serve layer feeds the same recorder; emulate its latency
    // observations so every sample shape (counter, histogram bucket,
    // sum, count, gauge) appears in the parsed document.
    for v in [3u64, 70, 900, 20_000, 1_000_000] {
        obs.observe(mc_checker::obs::names::INGEST_ACK_LATENCY_US, v);
        obs.observe(mc_checker::obs::names::FIRST_FINDING_LATENCY_US, v * 2);
    }
    let mut text = obs.snapshot().render();
    text.push_str(&mc_checker::obs::render_gauge("sessions_active", 3));
    let (families, samples) = strict_prometheus_parse(&text);
    assert!(families >= 5, "expected a populated exposition, got {families} families");
    assert!(samples > families, "histograms must contribute multiple samples per family");
    assert!(text.contains("# TYPE mcc_serve_ingest_ack_latency_us histogram"), "{text}");
    assert!(text.contains("# TYPE mcc_stream_first_finding_latency_us histogram"), "{text}");
    assert!(text.contains("# TYPE mcc_sessions_active gauge"), "{text}");
    // An out-of-range observation lands in +Inf only: count reflects it,
    // no finite bucket does.
    assert!(text.contains("mcc_serve_ingest_ack_latency_us_count 5"), "{text}");
}

#[test]
fn chrome_trace_is_valid_json_and_covers_the_pipeline() {
    let trace = trace_of(4, 0xdead, bugs::adlb::buggy);
    let obs = RecorderHandle::enabled();
    AnalysisSession::builder().recorder(obs.clone()).build().run(&trace);
    let json = obs.to_chrome_trace();
    let doc = serde_json::parse_value_str(&json).expect("chrome trace must parse as JSON");

    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing: {json}");
    };
    let names: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for phase in [
        "check.run",
        "check.preprocess",
        "check.matching",
        "check.dag",
        "check.regions",
        "check.detect",
        "check.shard",
        "check.detect.intra",
        "check.detect.inter",
        "check.merge",
    ] {
        assert!(names.contains(phase), "span `{phase}` missing from trace: {names:?}");
    }
    // Every event is a complete-span record with the fields Perfetto
    // needs, and parent links point at recorded span ids.
    let mut ids = BTreeSet::new();
    for e in events {
        assert!(matches!(e.get("ph"), Some(Value::Str(s)) if s == "X"), "{json}");
        assert!(matches!(e.get("ts"), Some(Value::Int(_))));
        assert!(matches!(e.get("dur"), Some(Value::Int(_))));
        if let Some(args) = e.get("args") {
            if let Some(Value::Int(id)) = args.get("id") {
                ids.insert(*id);
            }
        }
    }
    for e in events {
        if let Some(args) = e.get("args") {
            if let Some(Value::Int(parent)) = args.get("parent") {
                assert!(ids.contains(parent), "dangling parent span id {parent}");
            }
        }
    }
    assert!(
        matches!(doc.get("metrics"), Some(Value::Obj(o)) if !o.is_empty()),
        "metrics object missing from trace: {json}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The snapshot contract holds for any archetype at any seed, and
    /// for both engines — histogram buckets (`shard_items` and anything
    /// else a run observes) included, since the comparison is over the
    /// full rendered exposition.
    #[test]
    fn metric_snapshots_run_invariant_at_any_seed(case in 0..SAMPLE.len(), seed in 0..u64::MAX) {
        let (name, trace) = sample_trace(case, seed);
        let sweep = snapshot_of(&trace, Engine::Sweep);
        prop_assert!(
            sweep.contains("mcc_shard_items_bucket"),
            "{}: histogram missing from sweep snapshot", name
        );
        prop_assert_eq!(&snapshot_of(&trace, Engine::Sweep), &sweep, "{} diverged", name);
        let naive = snapshot_of(&trace, Engine::Naive);
        prop_assert_eq!(&snapshot_of(&trace, Engine::Naive), &naive, "{} naive diverged", name);
        // Both expositions must survive the strict parser whatever the
        // seed produced.
        strict_prometheus_parse(&sweep);
        strict_prometheus_parse(&naive);
    }
}
