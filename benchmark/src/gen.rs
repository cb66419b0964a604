//! Seeded trace generators with ground truth.
//!
//! Every generator returns the trace together with the list of conflicts
//! it *planted*. That list, not the checker, is the expected answer:
//! each planted pair carries its own two source lines, and every other
//! access is disjoint from, or Table-I compatible with, everything it is
//! concurrent with — by construction of the address layout below, not by
//! asking the checker.
//!
//! Address layout of every rank (simulator-virtual, per rank):
//!
//! ```text
//! WIN_BASE ..            the window: [hot table][one stripe per origin][plant slots]
//! ORIGIN_BASE + 64*i     origin buffer of the i-th RMA op of a round (never shared)
//! LOCAL_BASE + 8*l       plain loads/stores, outside every window and origin buffer
//! ```
//!
//! * the hot table is only ever read (`MPI_Get`), and Get/Get is `BOTH`
//!   in Table I, so its many overlaps are candidates, never findings;
//! * origin `r` writes only into stripe `r` of a target window, one slot
//!   per op of the round, so ordinary Puts never meet;
//! * rounds are separated by fences over `MPI_COMM_WORLD`, so slots and
//!   origin buffers can be reused from round to round;
//! * a plant is two `MPI_Put`s by different ranks to one dedicated slot
//!   of a third rank in the same round: concurrent, overlapping, `NON-OV`.

use crate::rng::SplitMix64;
use mcc_core::ConsistencyError;
use mcc_types::{
    CommId, DatatypeId, EventKind, Rank, RmaKind, RmaOp, SourceLoc, Tag, Trace, TraceBuilder, WinId,
};

const WIN: WinId = WinId(0);
const WIN_BASE: u64 = 0x1000;
const ORIGIN_BASE: u64 = 0x100_0000;
const LOCAL_BASE: u64 = 0x200_0000;
/// Bytes of one window slot (one `MPI_DOUBLE`).
const SLOT: u64 = 8;
const FILE: &str = "bench.c";
/// First source line of the planted pairs; plant `k` owns lines
/// `PLANT_LINE + 2k` and `PLANT_LINE + 2k + 1`, used nowhere else.
const PLANT_LINE: u32 = 9000;
/// The call sites ordinary accesses are drawn from — real programs have
/// tens of call sites, not one per event.
const GET_LINES: [u32; 4] = [110, 120, 130, 140];
const PUT_LINES: [u32; 4] = [210, 220, 230, 240];
const LOCAL_LINE: u32 = 300;

/// One planted conflict: the two source lines of the racing `MPI_Put`s
/// and the rank whose window they hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Plant {
    /// Lower source line of the pair.
    pub line_lo: u32,
    /// Higher source line of the pair.
    pub line_hi: u32,
    /// Target rank of both puts.
    pub target: u32,
}

/// A generated input: the trace and the conflicts it must report.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The trace.
    pub trace: Trace,
    /// Exactly the findings a correct checker reports, sorted.
    pub plants: Vec<Plant>,
}

/// Shape of a fence-round trace (the dense and the session generators).
#[derive(Debug, Clone, Copy)]
pub struct RoundShape {
    /// Ranks.
    pub nprocs: u32,
    /// Fence-delimited rounds.
    pub rounds: u32,
    /// RMA operations per rank per round.
    pub ops: u32,
    /// Plain loads/stores per rank per round.
    pub locals: u32,
    /// Slots of the read-shared hot table (0 = none).
    pub hot_slots: u32,
    /// Percentage of operations that are Gets on the hot table.
    pub hot_pct: u64,
    /// Planted Put/Put conflicts.
    pub plants: u32,
    /// Put the first plant in the first quarter of the rounds (what
    /// time-to-first-finding measures on a stream).
    pub early_plant: bool,
}

impl RoundShape {
    /// check_dense: few huge concurrent regions.
    pub fn dense(tiny: bool) -> Self {
        if tiny {
            Self {
                nprocs: 4,
                rounds: 2,
                ops: 24,
                locals: 4,
                hot_slots: 8,
                hot_pct: 60,
                plants: 2,
                early_plant: false,
            }
        } else {
            // A 4-slot table read by 85 % of the ops gives ~750k
            // overlapping Get/Get pairs per trace for the sweep, and 512
            // ops per epoch make the intra-epoch pass quadratic work:
            // together core.detect is ~58 % of the op.
            Self {
                nprocs: 16,
                rounds: 2,
                ops: 512,
                locals: 16,
                hot_slots: 4,
                hot_pct: 85,
                plants: 6,
                early_plant: false,
            }
        }
    }

    /// serve_*: many small regions with local traffic, as a live
    /// instrumented run streams them.
    pub fn session(tiny: bool) -> Self {
        if tiny {
            Self {
                nprocs: 4,
                rounds: 4,
                ops: 4,
                locals: 8,
                hot_slots: 0,
                hot_pct: 0,
                plants: 3,
                early_plant: true,
            }
        } else {
            Self {
                nprocs: 8,
                rounds: 16,
                ops: 12,
                locals: 80,
                hot_slots: 0,
                hot_pct: 0,
                plants: 3,
                early_plant: true,
            }
        }
    }

    fn hot_bytes(&self) -> u64 {
        u64::from(self.hot_slots) * SLOT
    }

    /// Plant ops use origin-buffer indices past the ordinary ones.
    fn stripe_bytes(&self) -> u64 {
        u64::from(self.ops) * SLOT
    }

    fn plant_base(&self) -> u64 {
        self.hot_bytes() + u64::from(self.nprocs) * self.stripe_bytes()
    }

    fn win_len(&self) -> u64 {
        self.plant_base() + u64::from(self.plants) * SLOT
    }
}

fn loc(line: u32) -> SourceLoc {
    SourceLoc::new(FILE, line, "kernel")
}

fn rma(kind: RmaKind, target: u32, origin_slot: u64, target_disp: u64) -> EventKind {
    EventKind::Rma(RmaOp {
        kind,
        win: WIN,
        target: Rank(target),
        origin_addr: ORIGIN_BASE + 64 * origin_slot,
        origin_count: 1,
        origin_dtype: DatatypeId::DOUBLE,
        target_disp,
        target_count: 1,
        target_dtype: DatatypeId::DOUBLE,
    })
}

struct PlantSite {
    round: u32,
    a: u32,
    b: u32,
    target: u32,
}

/// A fence-round trace: every round is `fence; ops; locals` on every
/// rank, closed by a final fence and `MPI_Win_free`.
pub fn rounds_trace(shape: &RoundShape, seed: u64) -> Generated {
    assert!(shape.nprocs >= 3 || shape.plants == 0, "a plant needs three distinct ranks");
    let n = shape.nprocs;
    let mut rng = SplitMix64::new(seed);
    let sites: Vec<PlantSite> = (0..shape.plants)
        .map(|k| {
            let quarter = (shape.rounds / 4).max(1);
            let round = if k == 0 && shape.early_plant {
                rng.below(u64::from(quarter)) as u32
            } else {
                rng.below(u64::from(shape.rounds)) as u32
            };
            let target = rng.below(u64::from(n)) as u32;
            let a = (target + 1 + rng.below(u64::from(n - 1)) as u32) % n;
            let mut b = (target + 1 + rng.below(u64::from(n - 1)) as u32) % n;
            if b == a {
                b = (a + 1) % n;
                if b == target {
                    b = (b + 1) % n;
                }
            }
            PlantSite { round, a, b, target }
        })
        .collect();

    let mut b = TraceBuilder::new(n as usize);
    for r in 0..n {
        b.push(
            Rank(r),
            EventKind::WinCreate {
                win: WIN,
                base: WIN_BASE,
                len: shape.win_len(),
                comm: CommId::WORLD,
            },
        );
    }
    for round in 0..shape.rounds {
        for r in 0..n {
            b.push(Rank(r), EventKind::Fence { win: WIN });
        }
        for r in 0..n {
            for i in 0..shape.ops {
                // Targets go round-robin, so every seed loads every
                // window alike; slots, kinds and call sites are random.
                let target = (r + 1 + i) % n;
                let site = rng.below(4) as usize;
                if shape.hot_slots > 0 && rng.chance(shape.hot_pct) {
                    let slot = rng.below(u64::from(shape.hot_slots));
                    b.push_at(
                        Rank(r),
                        rma(RmaKind::Get, target, u64::from(i), slot * SLOT),
                        loc(GET_LINES[site]),
                    );
                } else {
                    // Slot `i` of this origin's stripe: used at most once
                    // per round, whichever target it lands on.
                    let disp = shape.hot_bytes()
                        + u64::from(r) * shape.stripe_bytes()
                        + u64::from(i) * SLOT;
                    let (kind, line) = if rng.chance(50) {
                        (RmaKind::Put, PUT_LINES[site])
                    } else {
                        (RmaKind::Get, GET_LINES[site])
                    };
                    b.push_at(Rank(r), rma(kind, target, u64::from(i), disp), loc(line));
                }
            }
            for (k, s) in sites.iter().enumerate().filter(|(_, s)| s.round == round) {
                let line = PLANT_LINE + 2 * k as u32;
                let disp = shape.plant_base() + k as u64 * SLOT;
                let origin_slot = u64::from(shape.ops) + k as u64;
                if s.a == r {
                    b.push_at(Rank(r), rma(RmaKind::Put, s.target, origin_slot, disp), loc(line));
                }
                if s.b == r {
                    b.push_at(
                        Rank(r),
                        rma(RmaKind::Put, s.target, origin_slot, disp),
                        loc(line + 1),
                    );
                }
            }
            for l in 0..shape.locals {
                let addr = LOCAL_BASE + 8 * u64::from(l);
                let kind = if rng.chance(50) {
                    EventKind::Load { addr, len: 8 }
                } else {
                    EventKind::Store { addr, len: 8 }
                };
                b.push_at(Rank(r), kind, loc(LOCAL_LINE));
            }
        }
    }
    for r in 0..n {
        b.push(Rank(r), EventKind::Fence { win: WIN });
        b.push(Rank(r), EventKind::WinFree { win: WIN });
    }
    let mut plants: Vec<Plant> = sites
        .iter()
        .enumerate()
        .map(|(k, s)| Plant {
            line_lo: PLANT_LINE + 2 * k as u32,
            line_hi: PLANT_LINE + 2 * k as u32 + 1,
            target: s.target,
        })
        .collect();
    plants.sort();
    Generated { trace: b.build(), plants }
}

/// Shape of the synchronization-heavy trace.
#[derive(Debug, Clone, Copy)]
pub struct SyncShape {
    /// Ranks.
    pub nprocs: u32,
    /// Rounds of `fence; 2 RMA; fence; barrier; ring there and back;
    /// allreduce`.
    pub rounds: u32,
}

impl SyncShape {
    /// check_sync: many ranks, many tiny regions, no conflicts.
    pub fn sync(tiny: bool) -> Self {
        if tiny {
            Self { nprocs: 4, rounds: 6 }
        } else {
            Self { nprocs: 32, rounds: 96 }
        }
    }
}

/// check_sync: each round is `fence`, a Put to the right neighbour and a
/// Get from the one after (both in this origin's stripe, different
/// slots), `fence`, `barrier`, a send/recv ring to the right and one back
/// to the left, and an `allreduce` — the shape of a halo exchange with a
/// convergence test. Nothing overlaps, so the plant list is empty and
/// detection has almost nothing to do.
pub fn sync_trace(shape: &SyncShape, seed: u64) -> Generated {
    let n = shape.nprocs;
    let mut rng = SplitMix64::new(seed);
    let stripe = 2 * SLOT;
    let mut b = TraceBuilder::new(n as usize);
    for r in 0..n {
        b.push(
            Rank(r),
            EventKind::WinCreate {
                win: WIN,
                base: WIN_BASE,
                len: u64::from(n) * stripe,
                comm: CommId::WORLD,
            },
        );
    }
    for _ in 0..shape.rounds {
        for r in 0..n {
            let disp = u64::from(r) * stripe;
            b.push(Rank(r), EventKind::Fence { win: WIN });
            b.push_at(Rank(r), rma(RmaKind::Put, (r + 1) % n, 0, disp), loc(PUT_LINES[0]));
            b.push_at(Rank(r), rma(RmaKind::Get, (r + 2) % n, 1, disp + SLOT), loc(GET_LINES[0]));
            b.push(Rank(r), EventKind::Fence { win: WIN });
            b.push(Rank(r), EventKind::Barrier { comm: CommId::WORLD });
        }
        // The receiver logs the tag that actually matched, as the
        // Profiler does.
        for (step, line) in [(1, 400), (n - 1, 420)] {
            let tags: Vec<u32> = (0..n).map(|_| rng.below(4) as u32).collect();
            for r in 0..n {
                b.push_at(
                    Rank(r),
                    EventKind::Send {
                        comm: CommId::WORLD,
                        to: Rank((r + step) % n),
                        tag: Tag(tags[r as usize]),
                        bytes: 8,
                    },
                    loc(line),
                );
            }
            for r in 0..n {
                let from = (r + n - step) % n;
                b.push_at(
                    Rank(r),
                    EventKind::Recv {
                        comm: CommId::WORLD,
                        from: Rank(from),
                        tag: Tag(tags[from as usize]),
                        bytes: 8,
                    },
                    loc(line + 10),
                );
            }
        }
        for r in 0..n {
            b.push_at(Rank(r), EventKind::Allreduce { comm: CommId::WORLD, bytes: 8 }, loc(440));
        }
    }
    for r in 0..n {
        b.push(Rank(r), EventKind::WinFree { win: WIN });
    }
    Generated { trace: b.build(), plants: Vec::new() }
}

/// Checks reported findings against the plant list: same pairs, same
/// targets, nothing missing, nothing extra.
pub fn verify_findings(findings: &[ConsistencyError], plants: &[Plant]) -> Result<(), String> {
    let mut got: Vec<Plant> = findings
        .iter()
        .map(|f| {
            let target = match f.scope {
                mcc_core::ErrorScope::CrossProcess { target, .. } => target.0,
                mcc_core::ErrorScope::IntraEpoch { .. } => u32::MAX,
            };
            Plant {
                line_lo: f.a.loc.line.min(f.b.loc.line),
                line_hi: f.a.loc.line.max(f.b.loc.line),
                target,
            }
        })
        .collect();
    got.sort();
    if got == plants {
        Ok(())
    } else {
        Err(format!("findings {got:?} differ from the planted conflicts {plants:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::AnalysisSession;

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        let shape = RoundShape::dense(true);
        let a = rounds_trace(&shape, 5);
        let b = rounds_trace(&shape, 5);
        let c = rounds_trace(&shape, 6);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.plants, b.plants);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn checker_reports_exactly_the_plants() {
        for seed in 0..8 {
            for shape in [RoundShape::dense(true), RoundShape::session(true)] {
                let g = rounds_trace(&shape, seed);
                assert_eq!(g.plants.len(), shape.plants as usize);
                let report = AnalysisSession::new().run(&g.trace);
                verify_findings(&report.diagnostics, &g.plants).unwrap();
            }
            let g = sync_trace(&SyncShape::sync(true), seed);
            let report = AnalysisSession::new().run(&g.trace);
            assert_eq!(report.stats.unmatched_sync, 0);
            verify_findings(&report.diagnostics, &g.plants).unwrap();
        }
    }

    #[test]
    fn a_wrong_plant_list_is_rejected() {
        let g = rounds_trace(&RoundShape::session(true), 1);
        let report = AnalysisSession::new().run(&g.trace);
        assert!(verify_findings(&report.diagnostics, &g.plants[1..]).is_err());
    }
}
