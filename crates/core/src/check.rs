//! Check reports: [`CheckReport`], [`AnalysisStats`], and their stable
//! JSON renderings.
//!
//! The pipeline itself lives in [`crate::session`] behind
//! [`crate::session::AnalysisSession`]; this module holds the result
//! types. [`CheckReport::to_json`] is the deterministic document (no
//! timings); [`CheckReport::to_json_with_timings`] additively extends it
//! with per-phase durations for profiling consumers.

use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use mcc_types::ConflictKind;
use serde::Value;
use std::time::Duration;

/// Per-phase timings and structure sizes of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Events analyzed.
    pub total_events: usize,
    /// DAG nodes (events plus collective phase splits).
    pub dag_nodes: usize,
    /// DAG edges.
    pub dag_edges: usize,
    /// Concurrent regions.
    pub regions: usize,
    /// Extracted epochs.
    pub epochs: usize,
    /// Epochs owned by each rank (indexed by rank). The streaming checker
    /// uses these counts to keep per-rank epoch ordinals continuous
    /// across region flushes; excluded from [`CheckReport::to_json`].
    pub epochs_per_rank: Vec<usize>,
    /// Synchronization calls that found no partner.
    pub unmatched_sync: usize,
    /// Phase durations.
    pub preprocess_time: Duration,
    /// Matching phase duration.
    pub matching_time: Duration,
    /// DAG + vector-clock phase duration.
    pub dag_time: Duration,
    /// Region partitioning + epoch extraction duration.
    pub region_time: Duration,
    /// Detection phase duration (both detectors).
    pub detect_time: Duration,
    /// Canonical sort + dedup duration.
    pub merge_time: Duration,
    /// Whole-pipeline wall time.
    pub total_time: Duration,
}

/// The outcome of a check.
#[derive(Debug)]
pub struct CheckReport {
    /// All findings in canonical order — sorted by the `(rank, event id,
    /// byte offset)` of the conflicting pair — deduplicated by source
    /// location pair.
    pub diagnostics: Vec<ConsistencyError>,
    /// Analysis statistics.
    pub stats: AnalysisStats,
    /// Whether the trace was analyzed whole or after degraded-mode
    /// repair.
    pub confidence: Confidence,
}

impl CheckReport {
    /// Downgrades the report (and every finding in it) to degraded
    /// confidence. Used when the trace itself had to be repaired, or
    /// when the caller knows the trace is incomplete (e.g. the profiler
    /// reported missing ranks) even though analysis succeeded as-is.
    pub fn mark_degraded(&mut self) {
        self.confidence = Confidence::Degraded;
        for d in &mut self.diagnostics {
            d.confidence = Confidence::Degraded;
        }
    }

    /// Marks the report as analyzed across a survivable rank failure.
    ///
    /// Unlike [`mark_degraded`](Self::mark_degraded) this touches only the
    /// report-level confidence: findings from intact pre-failure regions
    /// keep [`Confidence::Complete`] (the streaming checker emitted them
    /// before the failure and batch must agree byte-for-byte), while the
    /// failure-specific findings are constructed as
    /// [`Confidence::Recovered`] at the source.
    pub fn mark_recovered(&mut self) {
        self.confidence = Confidence::Recovered;
    }

    /// Only the definite errors.
    pub fn errors(&self) -> impl Iterator<Item = &ConsistencyError> {
        self.diagnostics.iter().filter(|e| e.severity == Severity::Error)
    }

    /// Only the warnings.
    pub fn warnings(&self) -> impl Iterator<Item = &ConsistencyError> {
        self.diagnostics.iter().filter(|e| e.severity == Severity::Warning)
    }

    /// Whether any definite error was found.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Renders the report the way the MC-Checker CLI would print it.
    pub fn render(&self) -> String {
        let banner = match self.confidence {
            Confidence::Degraded => {
                "MC-Checker: DEGRADED ANALYSIS — the trace was incomplete or damaged; \
                 findings cover only what survived.\n"
            }
            Confidence::Recovered => {
                "MC-Checker: RECOVERED ANALYSIS — a rank failed survivably; \
                 the failure was modeled explicitly.\n"
            }
            Confidence::Complete => "",
        };
        if self.diagnostics.is_empty() {
            return format!("{banner}MC-Checker: no memory consistency errors detected.\n");
        }
        let mut s = format!(
            "{banner}MC-Checker: {} finding(s) ({} error(s), {} warning(s))\n\n",
            self.diagnostics.len(),
            self.errors().count(),
            self.warnings().count()
        );
        for (i, e) in self.diagnostics.iter().enumerate() {
            s.push_str(&format!("--- finding {} ---\n{}\n\n", i + 1, e));
        }
        s
    }

    /// Renders the report as stable, versioned JSON (`schema_version` 1).
    ///
    /// The document carries only run-independent data — findings in
    /// canonical order plus the structural statistics; no durations or
    /// engine names — so for a given trace the output is **byte-identical
    /// on every run and in both engines**. Consumers should reject
    /// documents whose `schema_version` they do not know.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Like [`to_json`](Self::to_json), plus a `timings` object with the
    /// per-phase durations in microseconds. Same `schema_version` — the
    /// field is additive, so consumers of the base schema parse both —
    /// but this variant is NOT byte-stable across runs (wall time never
    /// is) and must not feed byte-identity comparisons.
    pub fn to_json_with_timings(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, with_timings: bool) -> String {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let confidence = |c: Confidence| Value::Str(c.to_string());
        let op = |o: &OpInfo| {
            obj(vec![
                ("rank", Value::Int(i128::from(o.rank.0))),
                ("event", Value::Int(o.ev.idx as i128)),
                ("epoch", o.epoch.map_or(Value::Null, |e| Value::Int(i128::from(e)))),
                ("op", Value::Str(o.op.clone())),
                ("file", Value::Str(o.loc.file.clone())),
                ("line", Value::Int(i128::from(o.loc.line))),
                ("func", Value::Str(o.loc.func.clone())),
                (
                    "bytes",
                    o.region.map_or(Value::Null, |r| {
                        obj(vec![
                            ("start", Value::Int(i128::from(r.base))),
                            ("len", Value::Int(i128::from(r.len))),
                        ])
                    }),
                ),
            ])
        };
        let findings: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|e| {
                let severity = match e.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                let kind = match e.kind {
                    ConflictKind::OverlapViolation => "overlap-violation",
                    ConflictKind::SeparationViolation => "separation-violation",
                    ConflictKind::StaleReadFromFailedRank => "stale-read-from-failed-rank",
                    ConflictKind::LostUpdateAcrossReexposure => "lost-update-across-reexposure",
                };
                let scope = match e.scope {
                    ErrorScope::IntraEpoch { rank, win } => obj(vec![
                        ("type", Value::Str("intra-epoch".into())),
                        ("rank", Value::Int(i128::from(rank.0))),
                        ("win", Value::Int(i128::from(win.0))),
                    ]),
                    ErrorScope::CrossProcess { win, target } => obj(vec![
                        ("type", Value::Str("cross-process".into())),
                        ("win", Value::Int(i128::from(win.0))),
                        ("target", Value::Int(i128::from(target.0))),
                    ]),
                };
                obj(vec![
                    ("severity", Value::Str(severity.into())),
                    ("kind", Value::Str(kind.into())),
                    ("confidence", confidence(e.confidence)),
                    ("scope", scope),
                    ("a", op(&e.a)),
                    ("b", op(&e.b)),
                    ("explanation", Value::Str(e.explanation.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema_version", Value::Int(1)),
            ("tool", Value::Str("mc-checker".into())),
            ("confidence", confidence(self.confidence)),
            (
                "summary",
                obj(vec![
                    ("findings", Value::Int(self.diagnostics.len() as i128)),
                    ("errors", Value::Int(self.errors().count() as i128)),
                    ("warnings", Value::Int(self.warnings().count() as i128)),
                ]),
            ),
            (
                "stats",
                obj(vec![
                    ("total_events", Value::Int(self.stats.total_events as i128)),
                    ("dag_nodes", Value::Int(self.stats.dag_nodes as i128)),
                    ("dag_edges", Value::Int(self.stats.dag_edges as i128)),
                    ("regions", Value::Int(self.stats.regions as i128)),
                    ("epochs", Value::Int(self.stats.epochs as i128)),
                    ("unmatched_sync", Value::Int(self.stats.unmatched_sync as i128)),
                ]),
            ),
        ];
        if with_timings {
            let us = |d: Duration| Value::Int(d.as_micros() as i128);
            fields.push((
                "timings",
                obj(vec![
                    ("preprocess_us", us(self.stats.preprocess_time)),
                    ("matching_us", us(self.stats.matching_time)),
                    ("dag_us", us(self.stats.dag_time)),
                    ("region_us", us(self.stats.region_time)),
                    ("detect_us", us(self.stats.detect_time)),
                    ("merge_us", us(self.stats.merge_time)),
                    ("total_us", us(self.stats.total_time)),
                ]),
            ));
        }
        fields.push(("findings", Value::Arr(findings)));
        let doc = obj(fields);
        struct Doc(Value);
        impl serde::Serialize for Doc {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        // A `Value` built from integers and strings always prints.
        let mut s = serde_json::to_string_pretty(&Doc(doc)).expect("report JSON rendering");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use mcc_types::{
        CommId, DatatypeId, EventKind, LockKind, Rank, RmaKind, RmaOp, Trace, TraceBuilder, WinId,
    };

    fn buggy_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(
            Rank(0),
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(1),
                origin_addr: 200,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            }),
        );
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        b.push(Rank(1), EventKind::Store { addr: 64, len: 4 });
        for r in 0..2u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.build()
    }

    #[test]
    fn full_pipeline_finds_both_error_classes() {
        let report = AnalysisSession::new().run(&buggy_trace());
        assert!(report.has_errors());
        // Intra (put vs origin store) + cross (put vs target store).
        assert_eq!(report.diagnostics.len(), 2);
        assert!(report.render().contains("finding 2"));
        assert!(report.stats.total_events > 0);
        assert!(report.stats.dag_nodes >= report.stats.total_events);
        assert_eq!(report.stats.unmatched_sync, 0);
        assert_eq!(report.stats.epochs, 1);
    }

    #[test]
    fn clean_trace_reports_nothing() {
        let mut b = TraceBuilder::new(2);
        for r in 0..2u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let report = AnalysisSession::new().run(&b.build());
        assert!(!report.has_errors());
        assert!(report.render().contains("no memory consistency errors"));
    }

    #[test]
    fn empty_trace() {
        let report = AnalysisSession::new().run(&Trace::new(4));
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.stats.total_events, 0);
    }

    /// A trace cut mid-epoch (rank 0 dies before its closing fence) is
    /// still checked, the pre-truncation bugs are still found, and every
    /// finding is tagged degraded.
    #[test]
    fn truncated_trace_checked_in_degraded_mode() {
        let mut full = buggy_trace();
        // Rank 0's log is torn right after its store: the closing fence
        // is gone.
        let cut = full.procs[0].events.len() - 1;
        assert!(matches!(full.procs[0].events[cut].kind, EventKind::Fence { .. }));
        full.procs[0].events.truncate(cut);

        let (report, info) = AnalysisSession::new().run_with_repair(&full);
        assert!(!info.is_clean());
        assert!(info.dropped.is_empty());
        assert_eq!(info.synthesized.len(), 1, "{info}");
        assert_eq!(report.confidence, Confidence::Degraded);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 2, "both pre-truncation bugs survive");
        assert!(report.diagnostics.iter().all(|d| d.confidence == Confidence::Degraded));
        let rendered = report.render();
        assert!(rendered.contains("DEGRADED"));
        assert!(rendered.contains("confidence: degraded"));
    }

    #[test]
    fn run_with_repair_on_intact_trace_stays_complete() {
        let (report, info) = AnalysisSession::new().run_with_repair(&buggy_trace());
        assert!(info.is_clean());
        assert_eq!(report.confidence, Confidence::Complete);
        assert_eq!(report.diagnostics.len(), 2);
        assert!(!report.render().contains("DEGRADED"));
    }

    #[test]
    fn mark_degraded_downgrades_existing_findings() {
        let mut report = AnalysisSession::new().run(&buggy_trace());
        assert_eq!(report.confidence, Confidence::Complete);
        report.mark_degraded();
        assert!(report.diagnostics.iter().all(|d| d.confidence == Confidence::Degraded));
        assert!(report.render().contains("DEGRADED"));
    }

    #[test]
    fn json_report_is_versioned_and_parses() {
        let report = AnalysisSession::new().run(&buggy_trace());
        let json = report.to_json();
        let v = serde_json::parse_value_str(&json).expect("valid JSON");
        let Value::Obj(fields) = v else { panic!("top level must be an object") };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("schema_version"), Some(Value::Int(1)));
        assert_eq!(get("confidence"), Some(Value::Str("complete".into())));
        let Some(Value::Arr(findings)) = get("findings") else { panic!("findings array") };
        assert_eq!(findings.len(), 2);
        // Every finding carries rank / epoch / byte-range / confidence.
        for f in &findings {
            let Value::Obj(ff) = f else { panic!("finding must be an object") };
            for key in ["severity", "kind", "confidence", "scope", "a", "b", "explanation"] {
                assert!(ff.iter().any(|(n, _)| n == key), "missing {key}");
            }
        }
        assert!(json.contains("\"bytes\""));
        assert!(json.contains("\"epoch\""));
    }

    #[test]
    fn json_report_excludes_timings() {
        let json = AnalysisSession::new().run(&buggy_trace()).to_json();
        for key in ["_time", "_us", "timings", "duration", "engine"] {
            assert!(!json.contains(key), "{key} would break byte-identity across runs");
        }
    }

    #[test]
    fn json_with_timings_is_additive_same_schema() {
        let report = AnalysisSession::new().run(&buggy_trace());
        let json = report.to_json_with_timings();
        let v = serde_json::parse_value_str(&json).expect("valid JSON");
        let Value::Obj(fields) = v else { panic!("top level must be an object") };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("schema_version"), Some(Value::Int(1)), "schema version unchanged");
        let Some(Value::Obj(t)) = get("timings") else { panic!("timings object") };
        for key in [
            "preprocess_us",
            "matching_us",
            "dag_us",
            "region_us",
            "detect_us",
            "merge_us",
            "total_us",
        ] {
            assert!(t.iter().any(|(n, _)| n == key), "missing {key}");
        }
        // Every base-schema field survives: the variant only adds.
        let base = report.to_json();
        let Value::Obj(base_fields) = serde_json::parse_value_str(&base).unwrap() else { panic!() };
        for (name, _) in &base_fields {
            assert!(fields.iter().any(|(n, _)| n == name), "lost base field {name}");
        }
        assert_eq!(fields.len(), base_fields.len() + 1);
    }

    /// Regression test for the canonical finding order: reports used to be
    /// sorted errors-first by `(severity, event pair)`, which made the
    /// surviving representative of a duplicated finding depend on
    /// detector execution order. The canonical order is by `(rank, event
    /// id, byte offset)` of the pair, severity notwithstanding.
    #[test]
    fn findings_sorted_canonically_not_by_severity() {
        // Rank 0+2 put to rank 1 under exclusive locks (warning), and
        // rank 3's put conflicts with rank 4's store (error). The warning
        // pair has smaller event refs than the error pair, so canonical
        // order puts the WARNING first — the old severity-first order
        // would have flipped it.
        let mut b = TraceBuilder::new(5);
        for r in 0..5u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let put = |target: u32| {
            EventKind::Rma(RmaOp {
                kind: RmaKind::Put,
                win: WinId(0),
                target: Rank(target),
                origin_addr: 200,
                origin_count: 1,
                origin_dtype: DatatypeId::INT,
                target_disp: 0,
                target_count: 1,
                target_dtype: DatatypeId::INT,
            })
        };
        for r in [0u32, 2] {
            b.push(
                Rank(r),
                EventKind::Lock { win: WinId(0), target: Rank(1), kind: LockKind::Exclusive },
            );
            b.push(Rank(r), put(1));
            b.push(Rank(r), EventKind::Unlock { win: WinId(0), target: Rank(1) });
        }
        b.push(Rank(3), put(4));
        b.push(Rank(4), EventKind::Store { addr: 64, len: 4 });
        for r in 0..5u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let report = AnalysisSession::new().run(&b.build());
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
        assert_eq!(report.diagnostics[1].severity, Severity::Error);
        let keys: Vec<_> = report.diagnostics.iter().map(|e| e.canonical_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
