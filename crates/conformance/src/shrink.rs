//! The one greedy shrinker for every failure-case type.
//!
//! Given a failing case and a failure predicate, minimise in a fixed
//! order — steps first (halving, then linear), then particle count
//! (same), then each of the case type's own [`Case::MOVES`] in turn —
//! keeping every candidate that still fails. A differential cell moves
//! each matrix axis back toward the reference; a chaos cell steps its
//! world down to two ranks, then halves its fault budget. The result
//! is the smallest reproducer this greedy walk can reach; for an
//! injected deposit bug it converges to one step and a handful of
//! particles.

use crate::report::Case;

/// Upper bound on predicate evaluations during one shrink (each
/// evaluation reruns the case and its reference).
pub const MAX_ATTEMPTS: usize = 64;

/// Shrink `start` (which must currently fail) to a minimal failing
/// case under `fails`. Each move is applied while its candidate still
/// fails; it stops at the first candidate that passes, when it has no
/// candidate left, or at [`MAX_ATTEMPTS`]. Returns the shrunk case and
/// how many candidate evaluations were spent.
pub fn shrink<C: Case>(start: &C, fails: &mut dyn FnMut(&C) -> bool) -> (C, usize) {
    let mut cur = start.clone();
    let mut spent = 0usize;
    let mut walk = |cur: &mut C, next: &dyn Fn(&C) -> Option<C>| {
        while spent < MAX_ATTEMPTS {
            let Some(candidate) = next(cur) else {
                return;
            };
            spent += 1;
            if !fails(&candidate) {
                return;
            }
            *cur = candidate;
        }
    };
    for size in 0..2 {
        walk(&mut cur, &|c| resize(c, size, |n| (n / 2).max(1)));
        walk(&mut cur, &|c| resize(c, size, |n| n - 1));
    }
    for mv in C::MOVES {
        walk(&mut cur, mv);
    }
    (cur, spent)
}

/// `case` with run size `size` ([`Case::sizes`]) taken from `n` to
/// `to(n)`; `None` once it is 1.
fn resize<C: Case>(case: &C, size: usize, to: fn(usize) -> usize) -> Option<C> {
    let mut next = case.clone();
    let n = next.sizes().into_iter().nth(size)?;
    if *n <= 1 {
        return None;
    }
    *n = to(*n);
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{App, CellConfig, Exec, Runtime};
    use oppic_core::DepositMethod;

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
