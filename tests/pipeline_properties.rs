//! Property-based integration tests over the full pipeline: randomly
//! generated one-sided programs are run on the simulator, and the
//! checker's invariants are verified on the resulting traces.

use mc_checker::prelude::*;
use proptest::prelude::*;

/// A small random one-sided program: a sequence of per-round actions that
/// is correct by construction (every round is fence-isolated and every
/// target slot is touched by at most one writer per round).
#[derive(Debug, Clone)]
struct SafeProgram {
    nprocs: u32,
    rounds: Vec<Vec<Action>>, // per round, one action per rank
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Idle,
    /// Put into `target`'s slot equal to the origin's rank (disjoint per
    /// origin).
    PutOwnSlot {
        target: u32,
    },
    /// Get from `target`'s read-only slot (never written by anyone).
    GetReadOnly {
        target: u32,
    },
    /// Accumulate(SUM) into `target`'s slot 0 — all sums may overlap.
    AccSlot0 {
        target: u32,
    },
    /// Store to the rank's own *non-window* scratch.
    LocalScratch,
}

fn arb_action(nprocs: u32) -> impl Strategy<Value = Action> {
    (0..5u8, 0..nprocs).prop_map(move |(k, t)| match k {
        0 => Action::Idle,
        1 => Action::PutOwnSlot { target: t },
        2 => Action::GetReadOnly { target: t },
        3 => Action::AccSlot0 { target: t },
        _ => Action::LocalScratch,
    })
}

fn arb_program() -> impl Strategy<Value = SafeProgram> {
    (2..5u32)
        .prop_flat_map(|nprocs| {
            (
                Just(nprocs),
                proptest::collection::vec(
                    proptest::collection::vec(arb_action(nprocs), nprocs as usize),
                    1..5,
                ),
            )
        })
        .prop_map(|(nprocs, rounds)| SafeProgram { nprocs, rounds })
}

fn run_safe(prog: &SafeProgram, seed: u64) -> Trace {
    let prog = prog.clone();
    let n = prog.nprocs;
    let result = run(SimConfig::new(n).with_seed(seed), move |p| {
        let me = p.rank();
        // Layout: slot 0 = accumulate slot, slots 1..=n = per-origin put
        // slots, slot n+1 = read-only slot.
        let slots = n as u64 + 2;
        let wbuf = p.alloc_i32s(slots as usize);
        let win = p.win_create(wbuf, 4 * slots, CommId::WORLD);
        let scratch = p.alloc_i32s(4);
        let src = p.alloc_i32s(1);
        let dst = p.alloc_i32s(1);
        p.win_fence(win);
        for round in &prog.rounds {
            match round[me as usize] {
                Action::Idle => {}
                Action::PutOwnSlot { target } => {
                    p.tstore_i32(src, me as i32);
                    // Slot me+1: disjoint from every other origin's slot
                    // and from slot 0.
                    p.put(
                        src,
                        1,
                        DatatypeId::INT,
                        target,
                        4 * (me as u64 + 1),
                        1,
                        DatatypeId::INT,
                        win,
                    );
                }
                Action::GetReadOnly { target } => {
                    p.get(
                        dst,
                        1,
                        DatatypeId::INT,
                        target,
                        4 * (n as u64 + 1),
                        1,
                        DatatypeId::INT,
                        win,
                    );
                }
                Action::AccSlot0 { target } => {
                    p.tstore_i32(src, 1);
                    p.accumulate(
                        src,
                        1,
                        DatatypeId::INT,
                        target,
                        0,
                        1,
                        DatatypeId::INT,
                        ReduceOp::Sum,
                        win,
                    );
                }
                Action::LocalScratch => {
                    let v = p.load_i32(scratch);
                    p.store_i32(scratch, v + 1);
                }
            }
            p.win_fence(win);
        }
        p.win_free(win);
    })
    .expect("safe program runs");
    result.trace.expect("traced")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness against construction: correct-by-construction programs
    /// never produce findings under any checker configuration.
    #[test]
    fn safe_programs_are_never_flagged(prog in arb_program(), seed in 0u64..1000) {
        let trace = run_safe(&prog, seed);
        for session in [
            AnalysisSession::new(),
            AnalysisSession::builder().engine(Engine::Naive).build(),
            AnalysisSession::builder().partition_regions(false).build(),
        ] {
            let report = session.run(&trace);
            prop_assert_eq!(report.diagnostics.len(), 0, "{}", report.render());
        }
    }

    /// Determinism: identical traces yield identical reports.
    #[test]
    fn checker_is_deterministic(prog in arb_program(), seed in 0u64..1000) {
        let trace = run_safe(&prog, seed);
        let a = AnalysisSession::new().run(&trace);
        let b = AnalysisSession::new().run(&trace);
        prop_assert_eq!(a.diagnostics, b.diagnostics);
    }

    /// Differential: the sweep engine and the naive all-pairs engine agree
    /// on every random trace, finding for finding.
    #[test]
    fn sweep_and_naive_engines_agree(prog in arb_program(), seed in 0u64..1000) {
        let trace = run_safe(&prog, seed);
        let naive = AnalysisSession::builder().engine(Engine::Naive).build().run(&trace);
        let sweep = AnalysisSession::builder().engine(Engine::Sweep).build().run(&trace);
        prop_assert_eq!(&sweep.diagnostics, &naive.diagnostics);
        prop_assert_eq!(sweep.to_json(), naive.to_json());
    }

    /// Injecting a same-slot concurrent writer pair into an otherwise safe
    /// program is always caught (get vs put on overlapping slot 0 across
    /// two origins).
    #[test]
    fn injected_conflicts_are_always_caught(prog in arb_program(), seed in 0u64..1000) {
        let prog2 = prog.clone();
        let n = prog.nprocs;
        let result = run(SimConfig::new(n).with_seed(seed), move |p| {
            let me = p.rank();
            let slots = n as u64 + 2;
            let wbuf = p.alloc_i32s(slots as usize);
            let win = p.win_create(wbuf, 4 * slots, CommId::WORLD);
            let src = p.alloc_i32s(1);
            p.win_fence(win);
            // Safe prefix.
            for round in &prog2.rounds {
                if let Action::PutOwnSlot { target } = round[me as usize] {
                    p.tstore_i32(src, 1);
                    p.put(src, 1, DatatypeId::INT, target, 4 * (me as u64 + 1), 1, DatatypeId::INT, win);
                }
                p.win_fence(win);
            }
            // Injected conflict: ranks 0 and 1 both put slot 0 of rank 0.
            if me < 2 {
                p.tstore_i32(src, me as i32);
                p.put(src, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
            }
            p.win_fence(win);
            p.win_free(win);
        })
        .expect("runs");
        let trace = result.trace.unwrap();
        let report = AnalysisSession::new().run(&trace);
        prop_assert!(report.has_errors());
        // Differential on a conflicting trace: naive agrees with sweep.
        let naive = AnalysisSession::builder().engine(Engine::Naive).build().run(&trace);
        prop_assert_eq!(&naive.diagnostics, &report.diagnostics);
        // And exactly the injected pair: two puts targeting rank 0.
        let e = report.errors().next().unwrap();
        prop_assert_eq!(&e.a.op, "MPI_Put");
        prop_assert_eq!(&e.b.op, "MPI_Put");
        let at_rank0 = matches!(e.scope, ErrorScope::CrossProcess { target: Rank(0), .. });
        prop_assert!(at_rank0);
    }
}
