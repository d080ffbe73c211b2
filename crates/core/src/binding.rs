//! Persistent particle-thread binding (DESIGN.md §12).
//!
//! The executor in [`crate::parloop`] cuts a [`crate::Space::Range`]
//! afresh on every loop: a worker owns its piece for that one loop,
//! so per-thread cache and NUMA state is thrown away between loops
//! and between steps. The particle-thread-binding
//! direction (arXiv 2506.21524, PAPERS.md) instead pins a fixed
//! particle subset to each worker and keeps that assignment **across
//! steps**, rebuilding it only when the population has drifted enough
//! that the bindings are badly unbalanced — the exact trade the
//! [`crate::SortPolicy::DirtyFraction`] sort policy already makes for
//! the CSR cell index.
//!
//! A [`ThreadBinding`] is a partition of the particle slots `0..len`
//! into per-worker span lists. It is built either uniformly or from a
//! fresh CSR cell index ([`crate::ParticleDats::cell_index`]), in
//! which case spans align with cell-block boundaries so each worker
//! owns whole cells (the cache-residency win: a worker touches the
//! same cells' field data step after step). Between rebuilds the
//! particle set keeps moving — injection appends, hole-filling
//! truncates — so [`ThreadBinding::assignments`] re-clamps the frozen
//! spans to the live length and deals the unbound tail out evenly;
//! the result is always a true partition of `0..len` (proptested in
//! `crates/core/tests/proptest_binding.rs`).
//!
//! The split-form overlap (`oppic-mpi::overlap`) needs no binding of
//! its own: migration hole-fills the leavers out and appends the
//! arrivals, so the interior is the slot range `0..interior` and the
//! boundary is `interior..len`. FemPIC's distributed step deposits the
//! first range while the exchange is in flight and the second after it
//! drains (`FemPic::deposit_charge_range`, serial slot order).

/// When to rebuild a [`ThreadBinding`] — deliberately the same shape
/// as [`crate::SortPolicy`], because binding drift and index
/// staleness are driven by the same mutations (relocation, injection,
/// hole-filling, migration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalancePolicy {
    /// Keep the first binding forever (tail slots are still dealt out
    /// evenly, so correctness never depends on rebalancing).
    Never,
    /// Rebuild on steps that are multiples of `n` (0 behaves like
    /// [`RebalancePolicy::Never`]).
    EveryN(usize),
    /// Rebuild once the drifted fraction — slots whose cell changed
    /// plus population growth/shrink since the binding was built —
    /// reaches this fraction of the live population.
    DriftFraction(f64),
}

impl RebalancePolicy {
    /// Should the binding be rebuilt now? `drifted` is an upper bound
    /// on slots that no longer match the binding ([`ThreadBinding::
    /// drifted`]), `len` the live population.
    pub fn should_rebalance(&self, step: usize, drifted: usize, len: usize) -> bool {
        match *self {
            RebalancePolicy::Never => false,
            RebalancePolicy::EveryN(k) => k > 0 && step.is_multiple_of(k),
            RebalancePolicy::DriftFraction(f) => len > 0 && drifted as f64 >= f * len as f64,
        }
    }
}

/// One rebalance-gate decision, as logged by the apps' per-step gates
/// and replayed by the bench regression test against the committed
/// `results/BENCH_overlap_scaling.json` drift trace: the inputs the
/// [`RebalancePolicy`] saw and the decision it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceEvent {
    pub step: usize,
    /// Live population at decision time.
    pub len: usize,
    /// Drift estimate fed to the policy ([`ThreadBinding::drifted`];
    /// `len` on the first build, when no binding exists yet).
    pub drifted: usize,
    /// Whether the binding was (re)built.
    pub rebuilt: bool,
}

/// A persistent partition of particle slots `0..built_len` into
/// `n_workers` contiguous base ranges, frozen at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadBinding {
    /// Per-worker base range `(lo, hi)`, contiguous and covering
    /// `0..built_len` in worker order.
    ranges: Vec<(usize, usize)>,
    /// Population when the binding was built.
    built_len: usize,
}

/// One worker's work list: disjoint `(lo, hi)` slot spans.
pub type WorkerSpans = Vec<(usize, usize)>;

impl ThreadBinding {
    /// Even split of `0..len` into `n_workers` contiguous ranges (the
    /// binding before any cell index exists).
    pub fn uniform(n_workers: usize, len: usize) -> Self {
        assert!(n_workers > 0, "binding needs at least one worker");
        let mut ranges = Vec::with_capacity(n_workers);
        let mut lo = 0;
        for w in 0..n_workers {
            let hi = len * (w + 1) / n_workers;
            ranges.push((lo, hi));
            lo = hi;
        }
        crate::telemetry::count("binding.rebalances", 1);
        ThreadBinding {
            ranges,
            built_len: len,
        }
    }

    /// Build from a fresh CSR cell index: workers get contiguous
    /// **cell blocks** balanced by particle count (greedy prefix
    /// against the ideal per-worker share), so binding boundaries
    /// coincide with cell boundaries and each worker keeps whole
    /// cells resident.
    pub fn from_cell_index(cell_start: &[usize], n_workers: usize) -> Self {
        assert!(n_workers > 0, "binding needs at least one worker");
        let total = *cell_start.last().expect("cell index must be non-empty");
        let n_cells = cell_start.len() - 1;
        let mut ranges = Vec::with_capacity(n_workers);
        let mut cell = 0usize;
        let mut lo = 0usize;
        for w in 0..n_workers {
            // Ideal end of this worker's share; advance whole cells
            // until we reach or pass it (remaining workers absorb the
            // slack, the last worker takes everything left).
            let target = total * (w + 1) / n_workers;
            let mut hi = lo;
            while cell < n_cells && (hi < target || w + 1 == n_workers) {
                hi = cell_start[cell + 1];
                cell += 1;
            }
            ranges.push((lo, hi));
            lo = hi;
        }
        // All particles assigned even if the greedy walk ran out of
        // cells early (trailing workers get empty ranges).
        debug_assert_eq!(ranges.last().map(|r| r.1).unwrap_or(0), total);
        crate::telemetry::count("binding.rebalances", 1);
        ThreadBinding {
            ranges,
            built_len: total,
        }
    }

    pub fn n_workers(&self) -> usize {
        self.ranges.len()
    }

    /// Population the binding was built for.
    pub fn built_len(&self) -> usize {
        self.built_len
    }

    /// Upper bound on slots that no longer match the binding: cell
    /// mutations since the build (`dirty`, from
    /// [`crate::ParticleDats::dirty_count`]) plus net population
    /// change — what [`RebalancePolicy::DriftFraction`] keys on.
    pub fn drifted(&self, len: usize, dirty: usize) -> usize {
        dirty.saturating_add(len.abs_diff(self.built_len))
    }

    /// The live work lists: the frozen base ranges clamped to the
    /// current population `len`, plus the unbound tail
    /// `built_len..len` (slots appended since the build) dealt out
    /// evenly. Always a true partition of `0..len` — every slot in
    /// exactly one worker's spans, empty spans elided.
    pub fn assignments(&self, len: usize) -> Vec<WorkerSpans> {
        let nw = self.ranges.len();
        let mut per_worker: Vec<WorkerSpans> = vec![Vec::new(); nw];
        for (w, &(lo, hi)) in self.ranges.iter().enumerate() {
            let (lo, hi) = (lo.min(len), hi.min(len));
            if lo < hi {
                per_worker[w].push((lo, hi));
            }
        }
        // Deal the appended tail out as one even contiguous chunk per
        // worker, preserving slot order across workers.
        let tail_lo = self.built_len.min(len);
        if tail_lo < len {
            let tail = len - tail_lo;
            let mut lo = tail_lo;
            for (w, spans) in per_worker.iter_mut().enumerate() {
                let hi = tail_lo + tail * (w + 1) / nw;
                if lo < hi {
                    spans.push((lo, hi));
                }
                lo = hi;
            }
        }
        per_worker
    }
}

/// Check that `spans` (per-worker) is a true partition of `lo..hi`:
/// used by debug assertions here and by the conformance promise
/// checks. Returns `None` when valid, else a description.
pub fn partition_defect(spans: &[WorkerSpans], lo: usize, hi: usize) -> Option<String> {
    let mut all: Vec<(usize, usize)> = spans.iter().flatten().copied().collect();
    all.sort_unstable();
    let mut at = lo;
    for &(s, e) in &all {
        if s >= e {
            return Some(format!("empty or inverted span ({s}, {e})"));
        }
        if s != at {
            return Some(format!(
                "gap or overlap at slot {at} (next span starts {s})"
            ));
        }
        at = e;
    }
    if at != hi {
        return Some(format!("coverage ends at {at}, expected {hi}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_binding_partitions() {
        for nw in 1..6 {
            for len in [0, 1, 7, 64] {
                let b = ThreadBinding::uniform(nw, len);
                assert_eq!(partition_defect(&b.assignments(len), 0, len), None);
            }
        }
    }

    #[test]
    fn cell_index_binding_aligns_with_cells_and_balances() {
        // 6 cells with counts 5/0/3/8/2/6 = 24 particles, 3 workers.
        let cell_start = [0usize, 5, 5, 8, 16, 18, 24];
        let b = ThreadBinding::from_cell_index(&cell_start, 3);
        assert_eq!(partition_defect(&b.assignments(24), 0, 24), None);
        // Every range boundary is a cell boundary.
        for spans in b.assignments(24) {
            for (lo, hi) in spans {
                assert!(cell_start.contains(&lo), "lo {lo} not a cell boundary");
                assert!(cell_start.contains(&hi), "hi {hi} not a cell boundary");
            }
        }
        // Greedy balance: no worker is empty here, none owns everything.
        let loads: Vec<usize> = b
            .assignments(24)
            .iter()
            .map(|s| s.iter().map(|(l, h)| h - l).sum())
            .collect();
        assert_eq!(loads.iter().sum::<usize>(), 24);
        assert!(loads.iter().all(|&l| l > 0 && l < 24), "{loads:?}");
    }

    #[test]
    fn more_workers_than_cells_still_partitions() {
        let cell_start = [0usize, 4, 9];
        let b = ThreadBinding::from_cell_index(&cell_start, 8);
        assert_eq!(partition_defect(&b.assignments(9), 0, 9), None);
    }

    #[test]
    fn assignments_survive_growth_and_shrink() {
        let b = ThreadBinding::uniform(4, 100);
        // Shrink: hole-filling truncated the set to 37.
        assert_eq!(partition_defect(&b.assignments(37), 0, 37), None);
        // Growth: injection appended to 140 — the 40 tail slots are
        // dealt out without rebuilding.
        let plan = b.assignments(140);
        assert_eq!(partition_defect(&plan, 0, 140), None);
        let tail_holders = plan
            .iter()
            .filter(|s| s.iter().any(|&(lo, _)| lo >= 100))
            .count();
        assert_eq!(tail_holders, 4, "tail dealt to every worker");
        // Empty store: nothing assigned.
        assert!(b.assignments(0).iter().all(|s| s.is_empty()));
    }

    #[test]
    fn drift_counts_population_change() {
        let b = ThreadBinding::uniform(2, 100);
        assert_eq!(b.drifted(100, 0), 0);
        assert_eq!(b.drifted(100, 7), 7);
        assert_eq!(b.drifted(130, 0), 30);
        assert_eq!(b.drifted(80, 5), 25);
    }

    #[test]
    fn rebalance_policies_decide_as_documented() {
        assert!(!RebalancePolicy::Never.should_rebalance(10, 100, 100));
        assert!(RebalancePolicy::EveryN(5).should_rebalance(10, 0, 100));
        assert!(!RebalancePolicy::EveryN(5).should_rebalance(11, 0, 100));
        assert!(!RebalancePolicy::EveryN(0).should_rebalance(0, 1, 100));
        assert!(RebalancePolicy::DriftFraction(0.25).should_rebalance(3, 25, 100));
        assert!(!RebalancePolicy::DriftFraction(0.25).should_rebalance(3, 24, 100));
        assert!(!RebalancePolicy::DriftFraction(0.25).should_rebalance(3, 0, 0));
    }

    #[test]
    fn partition_defect_reports_problems() {
        assert!(partition_defect(&[vec![(0, 3)], vec![(4, 6)]], 0, 6)
            .unwrap()
            .contains("gap"));
        assert!(partition_defect(&[vec![(0, 3)], vec![(2, 6)]], 0, 6).is_some());
        assert!(partition_defect(&[vec![(0, 3)]], 0, 6)
            .unwrap()
            .contains("coverage"));
        assert_eq!(partition_defect(&[vec![(0, 6)], vec![]], 0, 6), None);
    }
}
