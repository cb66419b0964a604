//! The merged result of one exploration: per-schedule verdicts, witness
//! decision vectors, and the deduplicated findings.

use mcc_core::ConsistencyError;
use serde::Serialize;
use std::fmt::Write as _;

/// What one explored schedule did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Ran to completion, no consistency errors.
    Clean,
    /// Ran to completion with at least one consistency error.
    Buggy,
    /// Ran to completion but produced a trace already seen under another
    /// decision vector — an equivalent schedule, not analyzed twice.
    Deduped,
    /// The schedule deadlocked; the watchdog terminated it and the
    /// decision vector is recorded so the hang can be replayed.
    Deadlock,
    /// A rank panicked or violated the RMA protocol under this schedule.
    Crashed,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Clean => f.write_str("clean"),
            Verdict::Buggy => f.write_str("buggy"),
            Verdict::Deduped => f.write_str("deduplicated"),
            Verdict::Deadlock => f.write_str("deadlock"),
            Verdict::Crashed => f.write_str("crashed"),
        }
    }
}

/// One explored schedule.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleRecord {
    /// Position in exploration order (0 is the all-default root).
    pub index: u64,
    /// The full decision vector that reproduces this schedule.
    pub witness: String,
    /// What happened.
    pub verdict: Verdict,
    /// Consistency errors and warnings found in this schedule (0 for
    /// deduplicated, deadlocked, and crashed schedules).
    pub findings: u64,
    /// The simulator's failure description for deadlocked/crashed
    /// schedules.
    pub note: Option<String>,
}

/// One finding with the schedule that produced it.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreFinding {
    /// Index of the schedule the finding was first seen in.
    pub schedule: u64,
    /// Decision vector for `mcc explore --replay`.
    pub witness: String,
    /// The finding itself.
    pub error: ConsistencyError,
}

/// The merged exploration result.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreReport {
    /// Report schema version.
    pub schema_version: u32,
    /// Ranks per schedule.
    pub nprocs: u32,
    /// The schedule budget the search ran under.
    pub max_schedules: u64,
    /// The flip-depth bound the search ran under.
    pub max_depth: usize,
    /// Simulated runs actually executed.
    pub schedules_explored: u64,
    /// Runs whose trace matched an earlier schedule's fingerprint.
    pub deduped: u64,
    /// Subtrees skipped because their decision commutes with every
    /// conflicting access (the sleep-set argument).
    pub pruned: u64,
    /// Distinct choice points observed in a single run, maximized over
    /// runs.
    pub choice_points: u64,
    /// `2^choice_points` (saturating): what naive enumeration would cost.
    pub naive_schedules: u64,
    /// Whether the budget or depth bound cut the search before the space
    /// was covered.
    pub exhausted: bool,
    /// Index of the first schedule with a [`Verdict::Buggy`] verdict.
    pub first_buggy: Option<u64>,
    /// Every explored schedule in exploration order.
    pub schedules: Vec<ScheduleRecord>,
    /// Deduplicated findings, each with its witness.
    pub findings: Vec<ExploreFinding>,
}

impl ExploreReport {
    /// Whether any schedule produced an error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.error.severity == mcc_core::Severity::Error)
    }

    /// The documented process exit code: 1 when errors were found, 7 when
    /// the budget ran out before covering the space without finding any,
    /// 0 for full coverage with no errors (see `mc_checker::EXIT_CODE_TABLE`).
    pub fn exit_code(&self) -> u8 {
        if self.has_errors() {
            1
        } else if self.exhausted {
            7
        } else {
            0
        }
    }

    /// The stable JSON document (byte-identical at every thread count).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // The count saturates at 64 choice points; the JSON keeps the
        // saturated number, the text says what it means.
        let naive = match self.naive_schedules {
            u64::MAX => "≥ 2^64".to_string(),
            n => n.to_string(),
        };
        let _ = writeln!(
            out,
            "schedule exploration over {} rank(s): {} schedule(s) explored \
             (naive enumeration: {} over {} choice point(s)), {} pruned, {} deduplicated",
            self.nprocs,
            self.schedules_explored,
            naive,
            self.choice_points,
            self.pruned,
            self.deduped,
        );
        for s in &self.schedules {
            let _ = write!(out, "  [{}] {:<12} {}", s.index, s.witness, s.verdict);
            if s.verdict == Verdict::Buggy {
                let _ = write!(out, ": {} finding(s)", s.findings);
            }
            if let Some(note) = &s.note {
                let _ = write!(out, " ({note})");
            }
            out.push('\n');
        }
        match self.first_buggy {
            Some(k) => {
                let witness = &self.schedules[k as usize].witness;
                let _ = writeln!(
                    out,
                    "bug found at schedule {k} of {} — replay with --replay {witness}",
                    self.schedules_explored,
                );
            }
            None if self.exhausted => {
                let _ = writeln!(
                    out,
                    "schedule budget exhausted before covering the space (no errors found)"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "no consistency error in any schedule ({} schedule(s) cover the space)",
                    self.schedules_explored,
                );
            }
        }
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "--- finding {} (schedule {}, witness {}) ---\n{}\n",
                i + 1,
                f.schedule,
                f.witness,
                f.error,
            );
        }
        out
    }
}

/// The outcome of replaying one witness.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The decision vector actually executed (the witness, extended by
    /// defaults if the run asked for more decisions than it supplied).
    pub witness: String,
    /// Findings of the replayed schedule.
    pub findings: Vec<ConsistencyError>,
    /// Failure description when the schedule deadlocked or crashed.
    pub sim_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ExploreReport {
        ExploreReport {
            schema_version: 1,
            nprocs: 2,
            max_schedules: 64,
            max_depth: 64,
            schedules_explored: 1,
            deduped: 0,
            pruned: 3,
            choice_points: 3,
            naive_schedules: 8,
            exhausted: false,
            first_buggy: None,
            schedules: vec![ScheduleRecord {
                index: 0,
                witness: "ccc/-".into(),
                verdict: Verdict::Clean,
                findings: 0,
                note: None,
            }],
            findings: Vec::new(),
        }
    }

    #[test]
    fn exit_codes_follow_the_documented_table() {
        let mut r = empty_report();
        assert_eq!(r.exit_code(), 0);
        r.exhausted = true;
        assert_eq!(r.exit_code(), 7, "exhausted without errors is exit 7");
    }

    #[test]
    fn clean_render_names_full_coverage() {
        let r = empty_report();
        let text = r.render();
        assert!(text.contains("no consistency error in any schedule"), "{text}");
        assert!(text.contains("3 pruned"), "{text}");
    }

    #[test]
    fn saturated_naive_count_renders_as_a_bound() {
        let mut r = empty_report();
        assert!(r.render().contains("(naive enumeration: 8 over 3 choice point(s))"));
        (r.choice_points, r.naive_schedules) = (70, u64::MAX);
        let text = r.render();
        assert!(text.contains("(naive enumeration: ≥ 2^64 over 70 choice point(s))"), "{text}");
        assert!(r.to_json().contains(&format!("\"naive_schedules\": {}", u64::MAX)));
    }

    #[test]
    fn exhausted_render_names_the_budget() {
        let mut r = empty_report();
        r.exhausted = true;
        assert!(r
            .render()
            .contains("schedule budget exhausted before covering the space (no errors found)"));
    }
}
