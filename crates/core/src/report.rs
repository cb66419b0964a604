//! Error reports and diagnostics.
//!
//! "After detecting the conflicting operations, MC-Checker will provide
//! diagnostic information, such as pairs of conflicting operations and
//! operation locations including file names, routine names, and line
//! numbers, to help programmers locate and fix the bugs." (§III-C)

use mcc_types::{ConflictKind, EventRef, MemRegion, Rank, SourceLoc, Trace, WinId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Error severity. The original lockopts bug (exclusive lock) is reported
/// as a warning — the runtime's mutual exclusion may serialize the
/// conflicting epochs (§VII-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A definite memory consistency error.
    Error,
    /// A possible error; runtime lock ordering may serialize it.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("ERROR"),
            Severity::Warning => f.write_str("WARNING"),
        }
    }
}

/// How much of the evidence behind a finding was actually observed.
///
/// Findings from an intact trace are [`Confidence::Complete`]. When the
/// trace had to be repaired first (events dropped, epoch closes
/// synthesized — see [`crate::degrade::sanitize`]) every finding is
/// [`Confidence::Degraded`]: the conflict is real in what survived, but
/// the lost tail could have contained synchronization that changes the
/// verdict.
/// A third state, [`Confidence::Recovered`], sits between the two: the
/// trace records a *survivable* rank failure (failure notifications and —
/// optionally — checkpoint/restore or window re-exposure markers), and the
/// analysis accounted for the failure explicitly. Nothing was guessed, so
/// findings are trustworthy, but the failed rank's final epoch is
/// necessarily incomplete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Confidence {
    /// The whole trace was available and internally consistent.
    #[default]
    Complete,
    /// A rank failed survivably; the analysis is complete over the
    /// surviving data with the failure modeled explicitly.
    Recovered,
    /// The trace was truncated or damaged and analyzed in degraded mode.
    Degraded,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::Complete => f.write_str("complete"),
            Confidence::Recovered => f.write_str("recovered"),
            Confidence::Degraded => f.write_str("degraded"),
        }
    }
}

/// Where a conflict was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorScope {
    /// Conflicting operations within a single epoch at one process
    /// (paper's first error class).
    IntraEpoch {
        /// The rank whose epoch it is.
        rank: Rank,
        /// The window of the epoch.
        win: WinId,
    },
    /// Conflicting operations across processes on a target window
    /// (paper's second error class).
    CrossProcess {
        /// The window.
        win: WinId,
        /// The target rank whose window memory is contended.
        target: Rank,
    },
}

impl fmt::Display for ErrorScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorScope::IntraEpoch { rank, win } => {
                write!(f, "within an epoch at {rank} on {win}")
            }
            ErrorScope::CrossProcess { win, target } => {
                write!(f, "across processes on {win} at target {target}")
            }
        }
    }
}

/// One side of a conflicting pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpInfo {
    /// The rank that performed the operation.
    pub rank: Rank,
    /// The trace event.
    pub ev: EventRef,
    /// Human-readable operation name (`MPI_Put`, `load`, ...).
    pub op: String,
    /// Source location.
    pub loc: SourceLoc,
    /// The contended memory, if byte-precise information applies.
    pub region: Option<MemRegion>,
    /// Index of the epoch the operation belongs to (RMA operations only;
    /// `None` for local accesses and operations outside any epoch).
    pub epoch: Option<u32>,
}

impl OpInfo {
    /// Builds an `OpInfo` from a trace reference.
    pub fn from_trace(trace: &Trace, ev: EventRef, region: Option<MemRegion>) -> Self {
        let e = trace.event(ev);
        OpInfo {
            rank: ev.rank,
            ev,
            op: e.kind.call_name().to_string(),
            loc: trace.loc_of(ev),
            region,
            epoch: None,
        }
    }

    /// Attaches the epoch index.
    pub fn with_epoch(mut self, epoch: Option<u32>) -> Self {
        self.epoch = epoch;
        self
    }
}

impl fmt::Display for OpInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {} at {}", self.op, self.rank, self.loc)?;
        if let Some(r) = self.region {
            write!(f, " touching {r}")?;
        }
        Ok(())
    }
}

/// A detected memory consistency error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyError {
    /// Error or warning.
    pub severity: Severity,
    /// Intra-epoch or cross-process.
    pub scope: ErrorScope,
    /// First conflicting operation.
    pub a: OpInfo,
    /// Second conflicting operation.
    pub b: OpInfo,
    /// Which rule was violated.
    pub kind: ConflictKind,
    /// One-line explanation for the programmer.
    pub explanation: String,
    /// Whether the finding comes from an intact or a repaired trace.
    pub confidence: Confidence,
}

impl ConsistencyError {
    /// A stable key used to deduplicate reports that repeat the same
    /// source-level conflict (e.g. each iteration of a loop). The key is
    /// order-insensitive in the pair and includes the scope and the rule
    /// violated, so the same two source lines conflicting both within an
    /// epoch and across processes — or under an ordinary data race *and* a
    /// failure-specific rule — count as distinct findings.
    pub fn dedup_key(&self) -> String {
        let pa = format!("{}:{}:{}", self.a.loc.file, self.a.loc.line, self.a.op);
        let pb = format!("{}:{}:{}", self.b.loc.file, self.b.loc.line, self.b.op);
        let (lo, hi) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        format!("{}|{:?}|{lo}|{hi}", self.scope, self.kind)
    }

    /// The canonical presentation order of findings: by (rank, event id)
    /// of the first operation, then of the second, then by the byte
    /// offsets of the contended memory. Both engines merge findings in
    /// this order, so their reports are bit-identical whatever order each
    /// discovered the pairs in.
    pub fn canonical_key(&self) -> (EventRef, EventRef, u64, u64) {
        let off = |o: &OpInfo| o.region.map_or(u64::MAX, |r| r.base);
        (self.a.ev, self.b.ev, off(&self.a), off(&self.b))
    }
}

/// The canonical merge: stably sorts findings by
/// [`ConsistencyError::canonical_key`], THEN drops every later finding
/// with an already-seen [`ConsistencyError::dedup_key`], so the
/// representative of each duplicated source-level conflict is its
/// canonically smallest occurrence whatever order the detectors produced
/// them in. Returns the number of findings dropped.
pub(crate) fn canonical_merge(findings: &mut Vec<ConsistencyError>) -> usize {
    let raw = findings.len();
    findings.sort_by_key(|e| e.canonical_key());
    let mut seen = HashSet::new();
    findings.retain(|e| seen.insert(e.dedup_key()));
    raw - findings.len()
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: memory consistency error {}", self.severity, self.scope)?;
        match self.confidence {
            Confidence::Complete => {}
            Confidence::Recovered => {
                writeln!(f, "  confidence: recovered (a rank failure was modeled explicitly)")?;
            }
            Confidence::Degraded => {
                writeln!(f, "  confidence: degraded (analyzed from a damaged trace)")?;
            }
        }
        writeln!(f, "  (1) {}", self.a)?;
        writeln!(f, "  (2) {}", self.b)?;
        writeln!(f, "  rule: {}", self.kind)?;
        write!(f, "  {}", self.explanation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{EventKind, TraceBuilder};

    fn sample() -> ConsistencyError {
        let mut b = TraceBuilder::new(2);
        let a = b.push_at(
            Rank(0),
            EventKind::Store { addr: 64, len: 4 },
            SourceLoc::new("app.c", 4, "main"),
        );
        let c = b.push_at(
            Rank(1),
            EventKind::Load { addr: 64, len: 4 },
            SourceLoc::new("app.c", 9, "main"),
        );
        let t = b.build();
        ConsistencyError {
            severity: Severity::Error,
            scope: ErrorScope::CrossProcess { win: WinId(0), target: Rank(1) },
            a: OpInfo::from_trace(&t, a, Some(MemRegion::new(64, 4))),
            b: OpInfo::from_trace(&t, c, None),
            kind: ConflictKind::OverlapViolation,
            explanation: "test".into(),
            confidence: Confidence::Complete,
        }
    }

    #[test]
    fn display_contains_diagnostics() {
        let e = sample();
        let s = e.to_string();
        assert!(s.contains("ERROR"));
        assert!(s.contains("app.c:4"));
        assert!(s.contains("app.c:9"));
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
        assert!(s.contains("store"));
        assert!(s.contains("load"));
    }

    #[test]
    fn dedup_key_stable() {
        let e = sample();
        assert_eq!(e.dedup_key(), e.dedup_key());
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error < Severity::Warning);
    }

    #[test]
    fn scope_display() {
        let s = ErrorScope::IntraEpoch { rank: Rank(2), win: WinId(1) };
        assert!(s.to_string().contains("P2"));
        assert!(s.to_string().contains("win1"));
    }
}
