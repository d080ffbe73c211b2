//! Property-based tests on the persistent particle-thread binding
//! (DESIGN.md §12).
//!
//! The binding freezes per-worker slot ranges at build time while the
//! particle set keeps mutating underneath (injection appends,
//! hole-filling truncates, migration does both), so the load-bearing
//! invariant is that [`ThreadBinding::assignments`] is a **true
//! partition** of the live population for *any* frozen binding and
//! *any* drift.

use oppic_core::{partition_defect, RebalancePolicy, ThreadBinding};
use proptest::prelude::*;

/// Random per-cell occupancy histogram → CSR prefix sums, the shape
/// [`ThreadBinding::from_cell_index`] consumes.
fn cell_start(counts: &[usize]) -> Vec<usize> {
    let mut cs = Vec::with_capacity(counts.len() + 1);
    let mut at = 0usize;
    cs.push(0);
    for &c in counts {
        at += c;
        cs.push(at);
    }
    cs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A uniform binding stays a true partition across arbitrary
    /// population drift.
    #[test]
    fn uniform_binding_partitions_under_drift(
        nw in 1usize..9,
        built in 0usize..400,
        live in 0usize..400,
    ) {
        let b = ThreadBinding::uniform(nw, built);
        prop_assert_eq!(partition_defect(&b.assignments(live), 0, live), None);
    }

    /// A cell-block binding built from a random mesh occupancy is a
    /// true partition at build time, after arrivals append past the
    /// built length, and after leavers hole-fill it shorter — the
    /// move/migration lifecycle between rebalances.
    #[test]
    fn cell_index_binding_partitions_after_moves(
        counts in prop::collection::vec(0usize..25, 1..40),
        nw in 1usize..9,
        grow in 0usize..100,
        shrink in 0usize..100,
    ) {
        let cs = cell_start(&counts);
        let total = *cs.last().unwrap();
        let b = ThreadBinding::from_cell_index(&cs, nw);
        prop_assert_eq!(b.built_len(), total);
        prop_assert_eq!(partition_defect(&b.assignments(total), 0, total), None);
        let grown = total + grow;
        prop_assert_eq!(partition_defect(&b.assignments(grown), 0, grown), None);
        let shrunk = total.saturating_sub(shrink);
        prop_assert_eq!(partition_defect(&b.assignments(shrunk), 0, shrunk), None);
    }

    /// At build time every cell-block span boundary is a cell
    /// boundary: workers own whole cells, never fractions of one.
    #[test]
    fn cell_block_spans_align_with_cell_boundaries(
        counts in prop::collection::vec(0usize..25, 1..40),
        nw in 1usize..9,
    ) {
        let cs = cell_start(&counts);
        let total = *cs.last().unwrap();
        let b = ThreadBinding::from_cell_index(&cs, nw);
        for spans in b.assignments(total) {
            for (lo, hi) in spans {
                prop_assert!(cs.contains(&lo), "span start {lo} cuts a cell");
                prop_assert!(cs.contains(&hi), "span end {hi} cuts a cell");
            }
        }
    }

    /// The drift trigger is monotone: once the policy fires at some
    /// drift it keeps firing for any larger drift at the same
    /// population — so a logged rebalance decision can never flip by
    /// under-counting drift.
    #[test]
    fn drift_fraction_is_monotone_in_drift(
        frac in 0.0f64..1.0,
        drifted in 0usize..1000,
        extra in 0usize..1000,
        len in 1usize..1000,
    ) {
        let p = RebalancePolicy::DriftFraction(frac);
        if p.should_rebalance(0, drifted, len) {
            prop_assert!(p.should_rebalance(0, drifted + extra, len));
        }
    }
}
