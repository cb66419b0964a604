//! The MPI-2.2 RMA memory-model ruleset — the paper's Table I.
//!
//! Two concurrent accesses to overlapping memory in an RMA window can leave
//! the window in an undefined state. Table I of the paper classifies every
//! pair of access categories as one of:
//!
//! * **BOTH** — overlapping and non-overlapping combinations are permitted;
//! * **NON-OV** — only non-overlapping combinations are permitted;
//! * **ERROR** — the combination is erroneous even without buffer overlap
//!   (MPI-2.2's *separation rule*: "a local store cannot be combined with
//!   any `MPI_Put` or `MPI_Accumulate` even when they do not have any
//!   buffer overlap", paper §IV-C4).
//!
//! The table here is the **window interpretation**: both accesses are
//! classified by their effect on the *target window memory* (a `Get` reads
//! the window, a `Put` writes it, a local `store` by the window's owner
//! writes it, ...). It governs the cross-process check.
//!
//! The intra-epoch check at the *origin* process needs a second, derived
//! ruleset ([`origin_conflict`]): inside an epoch a nonblocking `Get` acts
//! as a deferred **store** into its local origin buffer and a `Put`/
//! `Accumulate` as a deferred **load** of it, each unordered with every
//! local access until the closing synchronization. The paper applies
//! exactly this reduction ("Since `MPI_Put` and `MPI_Get` access a local
//! buffer, they can be treated as local load and store, respectively",
//! §IV-C4).

use crate::access::{AccessCategory, AccessClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Verdict of Table I for a pair of access categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Compatibility {
    /// Both overlapping and non-overlapping combinations permitted.
    Both,
    /// Only non-overlapping combinations permitted.
    NonOverlap,
    /// Erroneous even without overlap.
    Error,
}

impl fmt::Display for Compatibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Compatibility::Both => "BOTH",
            Compatibility::NonOverlap => "NON-OV",
            Compatibility::Error => "ERROR",
        };
        f.write_str(s)
    }
}

/// Why a pair of operations conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictKind {
    /// The pair is only permitted on non-overlapping buffers, and the
    /// buffers overlap.
    OverlapViolation,
    /// The pair is erroneous regardless of overlap (separation rule).
    SeparationViolation,
    /// A survivor read window memory whose last writer died before
    /// completing its exposure epoch (failure-aware check, Besta &
    /// Hoefler fault-tolerant RMA).
    StaleReadFromFailedRank,
    /// An RMA operation issued against an old window generation landed
    /// after the window was re-exposed (failure-aware check).
    LostUpdateAcrossReexposure,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::OverlapViolation => {
                f.write_str("conflicting accesses to overlapping memory")
            }
            ConflictKind::SeparationViolation => {
                f.write_str("combination erroneous even without overlap (MPI-2.2 separation rule)")
            }
            ConflictKind::StaleReadFromFailedRank => {
                f.write_str("read of window memory whose last writer failed mid-epoch")
            }
            ConflictKind::LostUpdateAcrossReexposure => f.write_str(
                "RMA update from a pre-failure window generation lost across re-exposure",
            ),
        }
    }
}

/// Table I, window interpretation, for the base categories (the Acc/Acc
/// same-op exception is handled by [`compat`]).
const fn base_compat(a: AccessCategory, b: AccessCategory) -> Compatibility {
    use AccessCategory::*;
    use Compatibility::*;
    match (a, b) {
        (Load, Load) | (Load, Store) | (Store, Load) | (Store, Store) => Both,
        (Load, Get) | (Get, Load) => Both,
        (Load, Put) | (Put, Load) => NonOverlap,
        (Load, Acc) | (Acc, Load) => NonOverlap,
        (Store, Get) | (Get, Store) => NonOverlap,
        (Store, Put) | (Put, Store) => Error,
        (Store, Acc) | (Acc, Store) => Error,
        (Get, Get) => Both,
        (Get, Put) | (Put, Get) => NonOverlap,
        (Get, Acc) | (Acc, Get) => NonOverlap,
        (Put, Put) => NonOverlap,
        (Put, Acc) | (Acc, Put) => NonOverlap,
        (Acc, Acc) => Both, // refined by `compat` below
    }
}

/// Table I lookup for two fully-classified accesses (window
/// interpretation).
///
/// Implements the accumulate exception: two accumulate-class operations
/// may overlap only when they use the same operation family and the same
/// basic datatype; otherwise the pair is `NON-OV`. `acc_op: None` denotes
/// the compare-and-swap family (MPI-3), which is atomic against itself
/// but not against reduction accumulates.
pub fn compat(a: AccessClass, b: AccessClass) -> Compatibility {
    use AccessCategory::Acc;
    if a.category == Acc && b.category == Acc {
        let same_op = a.acc_op == b.acc_op;
        let same_dtype = a.acc_dtype.is_some() && a.acc_dtype == b.acc_dtype;
        if same_op && same_dtype {
            Compatibility::Both
        } else {
            Compatibility::NonOverlap
        }
    } else {
        base_compat(a.category, b.category)
    }
}

/// Whether two *concurrent* accesses conflict under the window
/// interpretation, given whether their window footprints overlap.
///
/// Returns the kind of violation, or `None` if the pair is permitted.
pub fn conflicts(a: AccessClass, b: AccessClass, overlap: bool) -> Option<ConflictKind> {
    match compat(a, b) {
        Compatibility::Both => None,
        Compatibility::NonOverlap => overlap.then_some(ConflictKind::OverlapViolation),
        Compatibility::Error => Some(ConflictKind::SeparationViolation),
    }
}

/// How a pending RMA operation touches its **origin** (local) buffer while
/// it is in flight: `Get` writes it, `Put`/`Accumulate` read it.
///
/// Returns `None` for `Load`/`Store`, which are not RMA operations.
pub fn origin_effect(category: AccessCategory) -> Option<AccessCategory> {
    match category {
        AccessCategory::Get => Some(AccessCategory::Store),
        AccessCategory::Put | AccessCategory::Acc => Some(AccessCategory::Load),
        AccessCategory::Load | AccessCategory::Store => None,
    }
}

/// Intra-epoch origin-buffer ruleset: does a pending RMA operation's
/// origin-buffer access conflict with another access to overlapping local
/// memory in the same epoch?
///
/// `rma` is the in-flight RMA operation (Get/Put/Acc); `other` is the other
/// access, classified by its effect on the shared local bytes — a CPU
/// `Load`/`Store`, or another RMA operation's origin effect (use
/// [`origin_effect`] to map it first). Because the RMA operation completes
/// at an undefined point before the epoch close, the pair is a data race
/// whenever at least one side writes:
///
/// * `Get` (deferred store) conflicts with any overlapping access — this is
///   the paper's Figure 1 / Figure 6 (BT-broadcast) bug;
/// * `Put`/`Acc` (deferred load) conflict with overlapping *writes* — the
///   paper's Figure 2a / ADLB stack-buffer bug.
pub fn origin_conflict(rma: AccessCategory, other: AccessCategory, overlap: bool) -> bool {
    if !overlap {
        return false;
    }
    let Some(rma_eff) = origin_effect(rma) else {
        return false;
    };
    let other_writes = matches!(other, AccessCategory::Store);
    let rma_writes = matches!(rma_eff, AccessCategory::Store);
    rma_writes || other_writes
}

/// All five categories, for exhaustive iteration in tests and table
/// printing.
pub const ALL_CATEGORIES: [AccessCategory; 5] = [
    AccessCategory::Load,
    AccessCategory::Store,
    AccessCategory::Get,
    AccessCategory::Put,
    AccessCategory::Acc,
];

/// Renders Table I as the paper prints it (used by the `table1` binary).
pub fn render_table1() -> String {
    let mut out = String::from("        Load    Store   Get     Put     Acc\n");
    for a in ALL_CATEGORIES {
        let name = format!("{a:?}");
        out.push_str(&format!("{name:<8}"));
        for b in ALL_CATEGORIES {
            let c = base_compat(a, b);
            let cell = if (a, b) == (AccessCategory::Acc, AccessCategory::Acc) {
                "BOTH*".to_string()
            } else {
                c.to_string()
            };
            out.push_str(&format!("{cell:<8}"));
        }
        out.push('\n');
    }
    out.push_str("* Acc/Acc overlapping only with the same operation and basic datatype.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ReduceOp;
    use crate::ids::DatatypeId;

    #[test]
    fn table_is_symmetric() {
        for a in ALL_CATEGORIES {
            for b in ALL_CATEGORIES {
                assert_eq!(base_compat(a, b), base_compat(b, a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn table_matches_paper_rows() {
        use AccessCategory::*;
        use Compatibility::*;
        // Row Load.
        assert_eq!(base_compat(Load, Load), Both);
        assert_eq!(base_compat(Load, Store), Both);
        assert_eq!(base_compat(Load, Get), Both);
        assert_eq!(base_compat(Load, Put), NonOverlap);
        assert_eq!(base_compat(Load, Acc), NonOverlap);
        // Row Store.
        assert_eq!(base_compat(Store, Store), Both);
        assert_eq!(base_compat(Store, Get), NonOverlap);
        assert_eq!(base_compat(Store, Put), Error);
        assert_eq!(base_compat(Store, Acc), Error);
        // Row Get.
        assert_eq!(base_compat(Get, Get), Both);
        assert_eq!(base_compat(Get, Put), NonOverlap);
        assert_eq!(base_compat(Get, Acc), NonOverlap);
        // Row Put.
        assert_eq!(base_compat(Put, Put), NonOverlap);
        assert_eq!(base_compat(Put, Acc), NonOverlap);
    }

    #[test]
    fn accumulate_exception() {
        let sum_int = AccessClass::acc(ReduceOp::Sum, DatatypeId::INT);
        let sum_int2 = AccessClass::acc(ReduceOp::Sum, DatatypeId::INT);
        let prod_int = AccessClass::acc(ReduceOp::Prod, DatatypeId::INT);
        let sum_dbl = AccessClass::acc(ReduceOp::Sum, DatatypeId::DOUBLE);
        assert_eq!(compat(sum_int, sum_int2), Compatibility::Both);
        assert_eq!(compat(sum_int, prod_int), Compatibility::NonOverlap);
        assert_eq!(compat(sum_int, sum_dbl), Compatibility::NonOverlap);
        // Overlapping same-op accumulates are permitted.
        assert_eq!(conflicts(sum_int, sum_int2, true), None);
        // Overlapping different-op accumulates are a violation.
        assert_eq!(conflicts(sum_int, prod_int, true), Some(ConflictKind::OverlapViolation));
        assert_eq!(conflicts(sum_int, prod_int, false), None);
    }

    /// Every category as a full class, with accumulate in each shape the
    /// same-op exception distinguishes (`acc_op: None` is the CAS family).
    fn all_classes() -> Vec<AccessClass> {
        let cas = AccessClass {
            category: AccessCategory::Acc,
            acc_op: None,
            acc_dtype: Some(DatatypeId::INT),
        };
        let mut classes = vec![
            AccessClass::acc(ReduceOp::Sum, DatatypeId::INT),
            AccessClass::acc(ReduceOp::Prod, DatatypeId::INT),
            AccessClass::acc(ReduceOp::Sum, DatatypeId::DOUBLE),
            AccessClass::acc(ReduceOp::Replace, DatatypeId::INT),
            cas,
        ];
        classes.extend(
            ALL_CATEGORIES
                .into_iter()
                .filter(|&c| c != AccessCategory::Acc)
                .map(|category| AccessClass { category, acc_op: None, acc_dtype: None }),
        );
        classes
    }

    /// What the detectors' interval sweeps assume of Table I. They never
    /// enumerate a pair of window readers nor a pair of CPU accesses, and
    /// the intra-epoch detector never enumerates two one-sided operations
    /// with disjoint target footprints; a ruleset edit that makes any such
    /// pair erroneous must fail here instead of silently losing findings.
    #[test]
    fn sweep_filters_are_sound_for_table1() {
        let classes = all_classes();
        assert_eq!(classes.len(), ALL_CATEGORIES.len() + 4);
        let one_sided = |c: AccessClass| origin_effect(c.category).is_some();
        for &a in &classes {
            for &b in &classes {
                let readers = a.category.is_window_read() && b.category.is_window_read();
                let locals = !one_sided(a) && !one_sided(b);
                if readers || locals {
                    assert_eq!(conflicts(a, b, true), None, "{a} vs {b}");
                    assert_ne!(compat(a, b), Compatibility::Error, "{a} vs {b}");
                }
                if one_sided(a) && one_sided(b) {
                    assert_eq!(conflicts(a, b, false), None, "disjoint {a} vs {b}");
                }
            }
        }
        // The reader class is exactly Load and Get.
        let readers: Vec<_> = ALL_CATEGORIES.into_iter().filter(|c| c.is_window_read()).collect();
        assert_eq!(readers, [AccessCategory::Load, AccessCategory::Get]);
    }

    #[test]
    fn separation_rule_ignores_overlap() {
        // Store vs Put is erroneous even without overlap (§IV-C4).
        assert_eq!(
            conflicts(AccessClass::STORE, AccessClass::PUT, false),
            Some(ConflictKind::SeparationViolation)
        );
        assert_eq!(
            conflicts(AccessClass::STORE, AccessClass::acc(ReduceOp::Sum, DatatypeId::INT), false),
            Some(ConflictKind::SeparationViolation)
        );
    }

    #[test]
    fn non_overlapping_pairs_permitted() {
        assert_eq!(conflicts(AccessClass::PUT, AccessClass::PUT, false), None);
        assert_eq!(conflicts(AccessClass::GET, AccessClass::PUT, false), None);
        assert_eq!(conflicts(AccessClass::LOAD, AccessClass::PUT, false), None);
    }

    #[test]
    fn overlapping_conflicts() {
        assert_eq!(
            conflicts(AccessClass::PUT, AccessClass::PUT, true),
            Some(ConflictKind::OverlapViolation)
        );
        assert_eq!(
            conflicts(AccessClass::GET, AccessClass::PUT, true),
            Some(ConflictKind::OverlapViolation)
        );
        assert_eq!(conflicts(AccessClass::GET, AccessClass::GET, true), None);
        assert_eq!(conflicts(AccessClass::LOAD, AccessClass::GET, true), None);
    }

    #[test]
    fn origin_effects() {
        assert_eq!(origin_effect(AccessCategory::Get), Some(AccessCategory::Store));
        assert_eq!(origin_effect(AccessCategory::Put), Some(AccessCategory::Load));
        assert_eq!(origin_effect(AccessCategory::Acc), Some(AccessCategory::Load));
        assert_eq!(origin_effect(AccessCategory::Load), None);
        assert_eq!(origin_effect(AccessCategory::Store), None);
    }

    #[test]
    fn origin_ruleset_figures() {
        use AccessCategory::*;
        // Figure 1 / Figure 6: pending Get vs local load of the origin buffer.
        assert!(origin_conflict(Get, Load, true));
        // Figure 1: pending Get vs local store.
        assert!(origin_conflict(Get, Store, true));
        // Figure 2a / ADLB: pending Put vs local store of the origin buffer.
        assert!(origin_conflict(Put, Store, true));
        assert!(origin_conflict(Acc, Store, true));
        // Reading the origin buffer of a pending Put is fine (both reads).
        assert!(!origin_conflict(Put, Load, true));
        assert!(!origin_conflict(Acc, Load, true));
        // No overlap, no conflict.
        assert!(!origin_conflict(Get, Load, false));
        assert!(!origin_conflict(Put, Store, false));
        // Non-RMA first argument never conflicts under this ruleset.
        assert!(!origin_conflict(Load, Store, true));
        assert!(!origin_conflict(Store, Store, true));
    }

    #[test]
    fn render_table_mentions_all_verdicts() {
        let t = render_table1();
        assert!(t.contains("BOTH"));
        assert!(t.contains("NON-OV"));
        assert!(t.contains("ERROR"));
        assert!(t.contains("BOTH*"));
    }

    #[test]
    fn conflict_kind_display() {
        assert!(ConflictKind::OverlapViolation.to_string().contains("overlapping"));
        assert!(ConflictKind::SeparationViolation.to_string().contains("separation"));
        assert!(ConflictKind::StaleReadFromFailedRank.to_string().contains("failed"));
        assert!(ConflictKind::LostUpdateAcrossReexposure.to_string().contains("re-exposure"));
    }
}
