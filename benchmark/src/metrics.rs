//! The catalogue: every workload and every metric the benchmark emits,
//! with unit, direction and (for end-to-end metrics) the regression
//! bound. `../BENCHMARK.json` lists the same names; the smoke test keeps
//! the two in step.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// One workload of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// Why it was chosen (one line; the README has the long form).
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "check_dense",
        why: "8 traces of 16 ranks x 2 fence regions of 512 RMA ops per rank, a read-shared hot table \
              and 6 planted Put/Put races: core.detect is the majority of mcc check",
    },
    WorkloadDef {
        name: "check_sync",
        why: "8 traces of 32 ranks x 96 tiny conflict-free rounds of fence, barrier, send/recv rings \
              and allreduce: decode, matching, DAG and clocks dominate, detect idles; check_dense's \
              control",
    },
    WorkloadDef {
        name: "serve_stream",
        why: "2 closed-loop clients stream binary-batched sessions to one daemon: codec decode, \
              StreamingChecker and the registry, the incremental use of the same core",
    },
    WorkloadDef {
        name: "serve_durable",
        why: "the serve_stream traffic as durable sessions journaled with fsync per ack: journal \
              append, fsync and the ack path beside the reads",
    },
    WorkloadDef {
        name: "explore_gallery",
        why: "mcc explore over eight 2-rank gallery programs: hundreds of tiny sim, trace and check \
              runs where per-run fixed cost is everything",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// The seven gated end-to-end metrics. A bound is sized to the run-to-run
/// spread measured on the 2-core sandbox this was built on (quartile
/// distance over ten seeds, README "Steadiness"): the bound is at least
/// three times the typical spread and twice the worst one seen in three
/// such rounds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("check_events_per_s", "1/s", Better::Higher, 0.20),
    e2e("check_p50_ms", "ms", Better::Lower, 0.20),
    e2e("serve_events_per_s", "1/s", Better::Higher, 0.20),
    e2e("serve_session_p50_ms", "ms", Better::Lower, 0.20),
    e2e("explore_schedules_per_s", "1/s", Better::Higher, 0.10),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
];

/// The per-layer ledger of the traced pass. Pure size counts have no
/// better direction; they are listed as `lower` (less work).
pub const PER_LAYER: &[MetricDef] = &[
    // profiler
    lower("profiler.read_ns_per_event", "ns"),
    lower("profiler.write_ns_per_event", "ns"),
    lower("profiler.trace_bytes_per_event", "B"),
    // core, batch
    lower("core.preprocess_ms", "ms"),
    lower("core.matching_ms", "ms"),
    lower("core.dag_ms", "ms"),
    lower("core.clocks_ms", "ms"),
    lower("core.regions_ms", "ms"),
    lower("core.epochs_ms", "ms"),
    lower("core.detect_ms", "ms"),
    lower("core.merge_ms", "ms"),
    lower("core.run_ms", "ms"),
    lower("core.report_json_ms", "ms"),
    lower("core.events", "count"),
    lower("core.dag_nodes", "count"),
    lower("core.dag_edges", "count"),
    lower("core.regions", "count"),
    lower("core.epochs", "count"),
    lower("core.findings", "count"),
    lower("core.interval_pairs", "count"),
    higher("core.findings_per_interval_pair", "ratio"),
    higher("core.reach_hit_ratio", "ratio"),
    // core, streaming
    lower("stream.push_ns_per_event", "ns"),
    lower("stream.first_finding_ms", "ms"),
    lower("stream.finish_ms", "ms"),
    lower("stream.regions_flushed", "count"),
    lower("stream.peak_buffered_events", "count"),
    lower("stream.peak_buffered_bytes", "B"),
    // codec + proto
    lower("codec.encode_ns_per_event", "ns"),
    lower("codec.decode_ns_per_event", "ns"),
    lower("codec.wire_bytes_per_event", "B"),
    // serve
    lower("serve.client_encode_ms_per_session", "ms"),
    lower("serve.client_io_ms_per_session", "ms"),
    lower("serve.journal_append_ns_per_event", "ns"),
    lower("serve.journal_sync_us", "us"),
    lower("serve.journal_bytes_per_event", "B"),
    lower("serve.journal_replay_ns_per_event", "ns"),
    lower("serve.peak_buffered_events", "count"),
    lower("serve.session_p95_ms", "ms"),
    lower("serve.sessions_failed", "count"),
    lower("serve.resumes", "count"),
    lower("serve.residual_ms_per_session", "ms"),
    // mpi-sim
    lower("sim.run_ms", "ms"),
    lower("sim.run_nowatchdog_ms", "ms"),
    lower("sim.events_per_run", "count"),
    // explore
    lower("explore.schedules_explored", "count"),
    higher("explore.pruned", "count"),
    higher("explore.deduped", "count"),
    higher("explore.pruning_ratio", "ratio"),
    lower("explore.wall_ms_per_schedule", "ms"),
    lower("explore.verdict_mismatches", "count"),
    // obs / harness
    lower("obs.enabled_overhead_pct", "%"),
    lower("harness.trace_overhead_pct", "%"),
    lower("check.p90_ms", "ms"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values by metric name. Only catalogue names are accepted, so
/// a typo fails the first run instead of silently dropping a number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("`{name}` is not in the metric catalogue"));
        self.0.insert(def.name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values of every metric of `table`, in table order, or the
    /// names that were never recorded or are not finite.
    pub fn complete(
        &self,
        table: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, f64)>, Vec<&'static str>> {
        let missing: Vec<&str> = table
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect();
        if missing.is_empty() {
            Ok(table.iter().map(|m| (m, self.0[m.name])).collect())
        } else {
            Err(missing)
        }
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn ledger_reports_missing_metrics() {
        let mut l = Ledger::default();
        l.set("setup_s", 1.0);
        let missing = l.complete(END_TO_END).unwrap_err();
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(!missing.contains(&"setup_s"));
    }

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
