//! Failing-configuration shrinker.
//!
//! Given a failing cell and a failure predicate, minimise in a fixed
//! order — steps first (halving, then linear), then particle count
//! (same), then each matrix axis back toward the reference — keeping
//! every candidate that still fails. The result is the smallest
//! reproducer this greedy walk can reach; for an injected deposit bug
//! it converges to one step and a handful of particles.

use crate::matrix::{CellConfig, Exec, Mover, Runtime};
use oppic_core::DepositMethod;

/// Upper bound on predicate evaluations during one shrink (each
/// evaluation reruns the cell and its reference).
pub const MAX_ATTEMPTS: usize = 64;

/// Shrink `start` (which must currently fail) to a minimal failing
/// configuration under `fails`. Returns the shrunk cell and how many
/// candidate evaluations were spent.
pub fn shrink(
    start: &CellConfig,
    fails: &mut dyn FnMut(&CellConfig) -> bool,
) -> (CellConfig, usize) {
    let mut cur = start.clone();
    let mut spent = 0usize;
    let mut try_keep = |cur: &mut CellConfig, spent: &mut usize, candidate: CellConfig| -> bool {
        if *spent >= MAX_ATTEMPTS || candidate == *cur {
            return false;
        }
        *spent += 1;
        if fails(&candidate) {
            *cur = candidate;
            true
        } else {
            false
        }
    };

    // 1. Steps: halve while the failure persists, then step down.
    while cur.steps > 1 {
        let mut c = cur.clone();
        c.steps = (cur.steps / 2).max(1);
        if !try_keep(&mut cur, &mut spent, c) {
            break;
        }
    }
    while cur.steps > 1 {
        let mut c = cur.clone();
        c.steps -= 1;
        if !try_keep(&mut cur, &mut spent, c) {
            break;
        }
    }

    // 2. Particles: same halving-then-linear walk.
    while cur.particles > 1 {
        let mut c = cur.clone();
        c.particles = (cur.particles / 2).max(1);
        if !try_keep(&mut cur, &mut spent, c) {
            break;
        }
    }
    while cur.particles > 1 {
        let mut c = cur.clone();
        c.particles -= 1;
        if !try_keep(&mut cur, &mut spent, c) {
            break;
        }
    }

    // 3. Matrix axes: move each one back toward the reference cell.
    if cur.exec != Exec::Seq {
        let mut c = cur.clone();
        c.exec = Exec::Seq;
        try_keep(&mut cur, &mut spent, c);
    }
    if cur.deposit != DepositMethod::Serial {
        let mut c = cur.clone();
        c.deposit = DepositMethod::Serial;
        try_keep(&mut cur, &mut spent, c);
    }
    if cur.mover != Mover::MultiHop {
        let mut c = cur.clone();
        c.mover = Mover::MultiHop;
        try_keep(&mut cur, &mut spent, c);
    }
    // The promise axis shrinks toward off — but only if the failure
    // survives, so a binding-bound reproducer keeps the axis in its id.
    if cur.binding {
        let mut c = cur.clone();
        c.binding = false;
        try_keep(&mut cur, &mut spent, c);
    }
    match cur.runtime {
        Runtime::Host => {}
        Runtime::DeviceModel => {
            let mut c = cur.clone();
            c.runtime = Runtime::Host;
            try_keep(&mut cur, &mut spent, c);
        }
        Runtime::Mpi(r) => {
            // MPI shrinks toward fewer ranks, then to the host path.
            if r > 1 {
                let mut c = cur.clone();
                c.runtime = Runtime::Mpi(1);
                try_keep(&mut cur, &mut spent, c);
            }
            let mut c = cur.clone();
            c.runtime = Runtime::Host;
            try_keep(&mut cur, &mut spent, c);
        }
    }
    if cur.sort_always {
        let mut c = cur.clone();
        c.sort_always = false;
        try_keep(&mut cur, &mut spent, c);
    }

    (cur, spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::App;

    #[test]
    fn shrinks_sizes_and_axes_against_a_synthetic_predicate() {
        // "Fails whenever steps ≥ 2 or particles ≥ 5" — each size axis
        // must land exactly on its own boundary (particles ≥ 5 keeps
        // the predicate failing while steps collapse all the way).
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 13;
        start.particles = 40;
        start.exec = Exec::Pool4;
        start.deposit = DepositMethod::Atomics;
        start.sort_always = true;
        let mut calls = 0usize;
        let (shrunk, spent) = shrink(&start, &mut |c| {
            calls += 1;
            c.steps >= 2 || c.particles >= 5
        });
        assert_eq!(shrunk.steps, 1);
        assert_eq!(shrunk.particles, 5);
        // Axes shrink toward reference when the failure is size-driven.
        assert_eq!(shrunk.exec, Exec::Seq);
        assert_eq!(shrunk.deposit, DepositMethod::Serial);
        assert!(!shrunk.sort_always);
        assert_eq!(calls, spent);
        assert!(spent <= MAX_ATTEMPTS);
    }

    #[test]
    fn always_failing_predicate_reaches_the_floor() {
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 8;
        start.particles = 32;
        start.runtime = Runtime::Mpi(4);
        let (shrunk, _) = shrink(&start, &mut |_| true);
        assert_eq!(shrunk.steps, 1);
        assert_eq!(shrunk.particles, 1);
        assert_eq!(shrunk.runtime, Runtime::Host);
    }

    #[test]
    fn matrix_bound_failure_keeps_the_matrix_axis() {
        // A failure that only reproduces under one deposit method:
        // sizes collapse but the deposit axis of the matrix must NOT
        // shrink to Serial, so the written reproducer still names `at`.
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 9;
        start.particles = 40;
        start.exec = Exec::Pool2;
        start.deposit = DepositMethod::Atomics;
        let (shrunk, _) = shrink(&start, &mut |c| c.deposit == DepositMethod::Atomics);
        assert_eq!(shrunk.deposit, DepositMethod::Atomics);
        assert_eq!(shrunk.steps, 1);
        assert_eq!(shrunk.particles, 1);
        assert_eq!(shrunk.exec, Exec::Seq, "unrelated axes still shrink");
        assert!(shrunk.id().contains("-at-"), "{}", shrunk.id());
    }

    #[test]
    fn binding_bound_failures_keep_their_axis() {
        // A failure that reproduces only with the binding on: sizes
        // and unrelated axes collapse, the promise axis survives the
        // shrink, and the reproducer id names it.
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 7;
        start.particles = 32;
        start.exec = Exec::Pool4;
        start.runtime = Runtime::Mpi(4);
        start.binding = true;
        let (shrunk, _) = shrink(&start, &mut |c| c.binding);
        assert!(shrunk.binding, "binding axis must be preserved");
        assert_eq!(shrunk.steps, 1);
        assert_eq!(shrunk.particles, 1);
        assert_eq!(shrunk.exec, Exec::Seq, "unrelated axes still shrink");
        assert!(shrunk.id().contains("-bind"), "{}", shrunk.id());
    }

    #[test]
    fn unbound_promise_axes_shrink_to_off() {
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 4;
        start.binding = true;
        start.runtime = Runtime::Mpi(2);
        // Size-driven failure: the flag is irrelevant and drops.
        let (shrunk, _) = shrink(&start, &mut |c| c.steps >= 2);
        assert!(!shrunk.binding);
        assert_eq!(shrunk.runtime, Runtime::Host);
    }

    #[test]
    fn never_shrinks_into_a_passing_config() {
        let mut start = CellConfig::reference(App::FemPic);
        start.steps = 6;
        start.particles = 24;
        // Fails only at the original size: nothing can shrink.
        let orig = start.clone();
        let (shrunk, _) = shrink(&start, &mut |c| *c == orig);
        assert_eq!(shrunk, orig);
    }
}
