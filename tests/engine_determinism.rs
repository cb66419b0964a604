//! The sharded sweep engine against its oracle: the `CheckReport` JSON
//! must be byte-identical to the naive all-pairs engine's on every bug
//! archetype, in both complete and degraded mode. (Every built-in body:
//! the `naive` column of `tests/differential.rs`.)

mod common;
use common::matrix::{cells, check_naive, check_naive_degraded};

#[test]
fn sweep_matches_naive_on_every_archetype() {
    cells().iter().filter(|c| c.is_archetype()).for_each(check_naive);
}

#[test]
fn degraded_sweep_matches_naive_on_every_archetype() {
    // Damage the on-disk trace (truncate one rank mid-line), read it back
    // tolerantly, and require byte-identical degraded reports from both
    // engines.
    cells().iter().filter(|c| c.is_archetype()).for_each(check_naive_degraded);
}
