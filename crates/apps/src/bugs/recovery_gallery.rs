//! The recovery gallery: workloads that *survive* a rank failure and keep
//! computing, exercising the Besta & Hoefler fault-tolerant RMA idioms —
//! failure notification, seeded in-memory checkpoint/restore, and window
//! re-exposure — end to end through the simulator, the failure-aware
//! checker, and the serving stack.
//!
//! Each workload pairs a body with a [`Fault::RankFailure`] plan and a
//! ground-truth verdict:
//!
//! | Workload | Procs | Failure | Ground truth |
//! |---|---|---|---|
//! | `jacobi_ckpt` | 4 | at an epoch boundary | recovered, clean |
//! | `pingpong_reexpose` | 2 | put in flight, window re-exposed | lost update |
//! | `adlb_failure` | 2 | put in flight, server reads | stale read |
//! | `notify_race` | 3 | racing the survivors' fence | stale read (`MPI_Get`) |
//!
//! Unlike the crash cases in the degraded suite, these traces end with
//! explicit `rank_failed` notifications, so the checker routes them
//! through the failure-aware pipeline and the verdict is
//! `Confidence::Recovered` — complete analysis with the failure modeled —
//! not `Degraded`.
//!
//! Each workload is a row of the case registry ([`crate::cases`]),
//! which pairs the body with its `*_faults` plan and its
//! [`RecoverySpec`]; every analysis path must reproduce that ground
//! truth (`tests/differential.rs`). Run one by its hyphenated
//! name:
//!
//! ```text
//! mcc demo jacobi-ckpt          # exit 6: recovered, clean
//! mcc demo pingpong-reexpose    # exit 5: recovered, errors found
//! mcc demo adlb-failure         # exit 5
//! mcc demo notify-race          # exit 5
//! ```

use mcc_mpi_sim::{Fault, FaultPlan, Proc, RecoveryPolicy};
use mcc_types::{CommId, DatatypeId};

/// Metadata and ground truth of one recovery workload.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySpec {
    /// Workload name.
    pub name: &'static str,
    /// World size.
    pub nprocs: u32,
    /// The rank the fault plan kills.
    pub failed_rank: u32,
    /// Epochs the failed rank completes before dying (runner ground
    /// truth: `RunStats::failures` must equal `[(failed_rank, epochs)]`).
    pub epochs_completed: u64,
    /// Expected finding kinds in the recovered report, as the JSON schema
    /// names them, in canonical order. Empty = recovered but clean.
    pub expected_kinds: &'static [&'static str],
}

// ---------------------------------------------------------------------
// jacobi_ckpt: checkpointed Jacobi sweep; rank 3 dies exactly at an
// epoch boundary, so nothing is in flight and the recovered analysis is
// clean. Survivors roll back to their latest checkpoint on notification.
// ---------------------------------------------------------------------

/// Ground truth for [`jacobi_ckpt`].
pub const JACOBI_CKPT: RecoverySpec = RecoverySpec {
    name: "jacobi_ckpt",
    nprocs: 4,
    failed_rank: 3,
    epochs_completed: 3,
    expected_kinds: &[],
};

/// Rank 3 dies at the start of iteration 2, right after completing its
/// iteration-1 fence: `win_create + fence` (2 calls) plus two full
/// iterations of `checkpoint, tstore, put, fence` (4 calls each).
pub fn jacobi_ckpt_faults() -> FaultPlan {
    FaultPlan::none().with(Fault::RankFailure {
        rank: 3,
        after_events: 10,
        recover: RecoveryPolicy::Checkpoint,
    })
}

/// A ring Jacobi sweep with per-iteration checkpoints: each rank relaxes
/// its private interior cell and puts it to the right neighbour's halo.
///
/// Only the halo cell is window-exposed; the interior stays private, so
/// relaxing it inside the exposure epoch never trips the separation rule
/// against the incoming halo put.
pub fn jacobi_ckpt(p: &mut Proc) {
    p.set_func("jacobi_ckpt");
    let n = p.size();
    let right = (p.rank() + 1) % n;
    let interior = p.alloc_f64s(1);
    let boundary = p.alloc_f64s(1);
    let win = p.win_create(boundary, 8, CommId::WORLD);
    p.win_fence(win);
    for iter in 0..3 {
        p.checkpoint(win);
        p.tstore_f64(interior, 0.5 * (iter + 1) as f64);
        p.put(interior, 1, DatatypeId::DOUBLE, right, 0, 1, DatatypeId::DOUBLE, win);
        p.win_fence(win);
    }
    if !p.failed_ranks().is_empty() {
        // Roll back to the latest checkpoint before reading: nothing the
        // dead rank had in flight can taint this value.
        p.restore(win);
        p.tload_f64(boundary);
    }
    p.win_free(win);
}

// ---------------------------------------------------------------------
// pingpong_reexpose: rank 1 dies with a put in flight; rank 0 re-exposes
// the window under a fresh generation, which turns the in-flight put
// into a lost update.
// ---------------------------------------------------------------------

/// Ground truth for [`pingpong_reexpose`].
pub const PINGPONG_REEXPOSE: RecoverySpec = RecoverySpec {
    name: "pingpong_reexpose",
    nprocs: 2,
    failed_rank: 1,
    epochs_completed: 1,
    expected_kinds: &["lost-update-across-reexposure"],
};

/// Rank 1 dies at its closing fence: `win_create, fence, tstore, put`
/// are its four completed calls.
pub fn pingpong_reexpose_faults() -> FaultPlan {
    FaultPlan::none().with(Fault::RankFailure {
        rank: 1,
        after_events: 4,
        recover: RecoveryPolicy::Notify,
    })
}

/// One pingpong volley whose return leg never completes; the survivor
/// recovers by re-exposing the window and carries on reading the fresh
/// generation.
pub fn pingpong_reexpose(p: &mut Proc) {
    p.set_func("pingpong_reexpose");
    let buf = p.alloc_i32s(2);
    let win = p.win_create(buf, 8, CommId::WORLD);
    let scratch = p.alloc_i32s(1);
    p.win_fence(win);
    if p.rank() == 1 {
        p.tstore_i32(scratch, 42);
        p.put(scratch, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
        p.win_fence(win); // dies here — the put is still in flight
    } else {
        p.win_fence(win); // completes around rank 1, logs the notification
        p.win_reexpose(win);
        p.tload_i32(buf); // fresh generation: deliberately not flagged
        p.win_fence(win);
    }
    p.win_free(win);
}

// ---------------------------------------------------------------------
// adlb_failure: the ADLB client dies with a work-unit put in flight; the
// server reads the queue slot after the notification without restoring —
// a stale read from the failed rank.
// ---------------------------------------------------------------------

/// Ground truth for [`adlb_failure`].
pub const ADLB_FAILURE: RecoverySpec = RecoverySpec {
    name: "adlb_failure",
    nprocs: 2,
    failed_rank: 0,
    epochs_completed: 1,
    expected_kinds: &["stale-read-from-failed-rank"],
};

/// Rank 0 dies at its closing fence after `win_create, fence, tstore,
/// put` — the work-unit transfer never completes.
pub fn adlb_failure_faults() -> FaultPlan {
    FaultPlan::none().with(Fault::RankFailure {
        rank: 0,
        after_events: 4,
        recover: RecoveryPolicy::Notify,
    })
}

/// The §II-B ADLB push, interrupted: the client's put is logged but never
/// delivered, and the server consumes the slot anyway.
pub fn adlb_failure(p: &mut Proc) {
    p.set_func("adlb_failure");
    let queue = p.alloc_i32s(2);
    let win = p.win_create(queue, 8, CommId::WORLD);
    let slot = p.alloc_i32s(1);
    p.win_fence(win);
    if p.rank() == 0 {
        p.set_func("push_work");
        p.tstore_i32(slot, 111);
        p.put(slot, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        p.win_fence(win); // dies here — the work unit is still in flight
    } else {
        p.win_fence(win); // completes around rank 0, logs the notification
        p.set_func("serve");
        p.tload_i32(queue); // stale: the logged writer died mid-epoch
        p.win_fence(win);
    }
    p.win_free(win);
}

// ---------------------------------------------------------------------
// notify_race: three ranks; the failure lands while both survivors are
// already blocked in the same fence, so the notification position races
// with the collective. The simulator resolves it deterministically, and
// survivor 1's Get of the dead rank's target bytes is a stale read.
// ---------------------------------------------------------------------

/// Ground truth for [`notify_race`].
pub const NOTIFY_RACE: RecoverySpec = RecoverySpec {
    name: "notify_race",
    nprocs: 3,
    failed_rank: 2,
    epochs_completed: 1,
    expected_kinds: &["stale-read-from-failed-rank"],
};

/// Rank 2 dies at its closing fence after `win_create, fence, tstore,
/// put`, while ranks 0 and 1 already wait inside the same fence.
pub fn notify_race_faults() -> FaultPlan {
    FaultPlan::none().with(Fault::RankFailure {
        rank: 2,
        after_events: 4,
        recover: RecoveryPolicy::Notify,
    })
}

/// The racing-notification workload: both survivors must log the
/// `rank_failed` marker at the same fence, in the same program-order
/// position, on every run.
pub fn notify_race(p: &mut Proc) {
    p.set_func("notify_race");
    let buf = p.alloc_i32s(2);
    let win = p.win_create(buf, 8, CommId::WORLD);
    let scratch = p.alloc_i32s(1);
    p.win_fence(win);
    if p.rank() == 2 {
        p.tstore_i32(scratch, 7);
        p.put(scratch, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
        p.win_fence(win); // dies here, racing the survivors' fence
    } else {
        p.win_fence(win); // both survivors complete around rank 2
        if p.rank() == 1 {
            // Reads the bytes the dead rank's put targeted — stale.
            p.get(scratch, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
        }
        p.win_fence(win);
    }
    p.win_free(win);
}
