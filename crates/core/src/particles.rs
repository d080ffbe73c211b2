//! The particle store — `opp_decl_particle_set` plus the dynamic
//! particle→cell map and the bookkeeping the paper's backend owns:
//! injection (`OPP_ITERATE_INJECTED`), removal with **hole filling**
//! (Section 3.2.2: "a hole filling routine runs asynchronously during
//! communication, shifting data from the end of the `opp_dat`s to fill
//! the holes"), sorting by cell, and periodic shuffling.
//!
//! Particle data is stored as a structure of arrays: one flat `f64`
//! column per declared dat (`pos`, `vel`, `charge`, …) plus the `i32`
//! cell index column (the `p2cell` map of Figure 4, line 15). All
//! columns move together under relocation, which is why the store owns
//! them rather than the application.

/// Handle to a particle column, returned by
/// [`ParticleDats::decl_dat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColId(usize);

/// When to rebuild the cell index (the paper's periodic particle sort,
/// made configurable). Sorting is a locality optimisation, and this
/// policy trades its cost against the gather/deposit speedup; the
/// colouring deposit sorts on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SortPolicy {
    /// Never rebuild (the index simply stays stale).
    Never,
    /// Rebuild whenever the index is stale.
    Always,
    /// Rebuild on steps that are multiples of `n` (0 behaves like
    /// [`SortPolicy::Never`]).
    EveryN(usize),
    /// Rebuild once at least this fraction of particles is dirty.
    DirtyFraction(f64),
}

impl SortPolicy {
    /// Should a stale index be rebuilt now? `dirty`/`n` come from
    /// [`ParticleDats::dirty_count`] and [`ParticleDats::len`].
    pub fn should_sort(&self, step: usize, dirty: usize, n: usize) -> bool {
        match *self {
            SortPolicy::Never => false,
            SortPolicy::Always => true,
            SortPolicy::EveryN(k) => k > 0 && step.is_multiple_of(k),
            SortPolicy::DirtyFraction(f) => n > 0 && dirty as f64 >= f * n as f64,
        }
    }
}

/// A set of particles with named f64 columns and a cell-index column.
///
/// ```
/// use oppic_core::ParticleDats;
/// let mut ps = ParticleDats::new();
/// let pos = ps.decl_dat("pos", 3);
/// ps.inject(10, 0);                 // 10 particles in cell 0
/// ps.el_mut(pos, 3)[0] = 2.5;
/// ps.remove_fill(&[0, 1]);          // hole-filled removal
/// assert_eq!(ps.len(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParticleDats {
    n: usize,
    names: Vec<String>,
    dims: Vec<usize>,
    cols: Vec<Vec<f64>>,
    /// The dynamic particle→cell map (`p2cell_i`). Always in
    /// `0..n_cells` for live particles.
    cell: Vec<i32>,
    /// Start of the most recent injection batch (for
    /// `OPP_ITERATE_INJECTED` loops).
    injected_from: usize,
    /// CSR cell index: when fresh, `cell_start[c]..cell_start[c + 1]`
    /// is the contiguous particle range of cell `c`. Built by
    /// [`ParticleDats::sort_by_cell`]; empty until the first sort.
    cell_start: Vec<usize>,
    /// Known count of cell/slot mutations since the index was built
    /// (injection, removal, unpacking, permutation).
    dirty: usize,
    /// A raw mutable cell-map borrow was handed out and has not been
    /// accounted yet — the index must be treated as fully stale until
    /// [`ParticleDats::refine_dirty`] reports the measured change.
    cells_exposed: bool,
    /// Scratch reused across sorts (counting cursors, the permutation,
    /// and one column/cell buffer for the out-of-place permute).
    scratch_counts: Vec<usize>,
    scratch_perm: Vec<usize>,
    scratch_col: Vec<f64>,
    scratch_cell: Vec<i32>,
}

impl ParticleDats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a new particle dat of dimension `dim`. Existing
    /// particles get zero-filled values.
    pub fn decl_dat(&mut self, name: impl Into<String>, dim: usize) -> ColId {
        assert!(dim > 0, "particle dat dimension must be positive");
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "particle dat '{name}' declared twice"
        );
        self.names.push(name);
        self.dims.push(dim);
        self.cols.push(vec![0.0; self.n * dim]);
        ColId(self.cols.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Handles to every declared column, in declaration order.
    pub fn columns(&self) -> Vec<ColId> {
        (0..self.cols.len()).map(ColId).collect()
    }

    pub fn dim(&self, id: ColId) -> usize {
        self.dims[id.0]
    }

    pub fn name(&self, id: ColId) -> &str {
        &self.names[id.0]
    }

    /// Column by name (test/diagnostic convenience).
    pub fn col_id(&self, name: &str) -> Option<ColId> {
        self.names.iter().position(|n| n == name).map(ColId)
    }

    /// Immutable flat view of a column.
    #[inline]
    pub fn col(&self, id: ColId) -> &[f64] {
        &self.cols[id.0]
    }

    /// Mutable flat view of a column.
    #[inline]
    pub fn col_mut(&mut self, id: ColId) -> &mut [f64] {
        &mut self.cols[id.0]
    }

    /// Two distinct columns mutably at once (push loops write pos+vel).
    pub fn cols_mut2(&mut self, a: ColId, b: ColId) -> (&mut [f64], &mut [f64]) {
        let [ca, cb] = self
            .cols
            .get_disjoint_mut([a.0, b.0])
            .expect("cols_mut2 requires distinct in-range columns");
        (ca, cb)
    }

    /// Element `i` of column `id`.
    #[inline]
    pub fn el(&self, id: ColId, i: usize) -> &[f64] {
        let d = self.dims[id.0];
        &self.cols[id.0][i * d..(i + 1) * d]
    }

    #[inline]
    pub fn el_mut(&mut self, id: ColId, i: usize) -> &mut [f64] {
        let d = self.dims[id.0];
        &mut self.cols[id.0][i * d..(i + 1) * d]
    }

    /// The particle→cell map.
    #[inline]
    pub fn cells(&self) -> &[i32] {
        &self.cell
    }

    #[inline]
    pub fn cells_mut(&mut self) -> &mut [i32] {
        self.cells_exposed = true;
        &mut self.cell
    }

    /// Mutable cell map together with an immutable column — the move
    /// kernel's typical working set (reads positions, updates cells).
    pub fn cells_mut_with_col(&mut self, id: ColId) -> (&mut [i32], &[f64]) {
        self.cells_exposed = true;
        (&mut self.cell, &self.cols[id.0])
    }

    /// Two distinct mutable columns plus the (read-only) cell map — the
    /// push kernel's working set (writes pos+vel, gathers the field
    /// through the particle→cell map).
    pub fn cols_mut2_with_cells(&mut self, a: ColId, b: ColId) -> (&mut [f64], &mut [f64], &[i32]) {
        let [ca, cb] = self
            .cols
            .get_disjoint_mut([a.0, b.0])
            .expect("cols_mut2_with_cells requires distinct in-range columns");
        (ca, cb, &self.cell)
    }

    /// Two distinct mutable columns plus the *mutable* cell map — the
    /// fused move+deposit kernel's working set (updates pos, vel and
    /// the particle→cell map in one pass, as CabanaPIC's
    /// `Move_Deposit` does).
    pub fn cols_mut2_with_cells_mut(
        &mut self,
        a: ColId,
        b: ColId,
    ) -> (&mut [f64], &mut [f64], &mut [i32]) {
        self.cells_exposed = true;
        let [ca, cb] = self
            .cols
            .get_disjoint_mut([a.0, b.0])
            .expect("cols_mut2_with_cells_mut requires distinct in-range columns");
        (ca, cb, &mut self.cell)
    }

    /// [`Self::cols_mut2_with_cells_mut`] over the latest injection
    /// batch only ([`Self::injected`]): the slices start at its first
    /// slot. Those slots are already counted dirty, so the borrow
    /// leaves [`Self::dirty_count`] exact.
    pub fn injected_cols_mut2_with_cells_mut(
        &mut self,
        a: ColId,
        b: ColId,
    ) -> (&mut [f64], &mut [f64], &mut [i32]) {
        let from = self.injected_from;
        let (da, db) = (self.dims[a.0], self.dims[b.0]);
        let [ca, cb] = self
            .cols
            .get_disjoint_mut([a.0, b.0])
            .expect("injected_cols_mut2_with_cells_mut requires distinct in-range columns");
        (
            &mut ca[from * da..],
            &mut cb[from * db..],
            &mut self.cell[from..],
        )
    }

    // ---- cell index ----------------------------------------------------

    /// The CSR cell index, or `None` while it is stale (or was never
    /// built). When `Some`, `idx[c]..idx[c + 1]` is exactly the
    /// particle range of cell `c` and particles are sorted by cell.
    #[inline]
    pub fn cell_index(&self) -> Option<&[usize]> {
        if self.index_is_fresh() {
            Some(&self.cell_start)
        } else {
            None
        }
    }

    /// The last-built CSR offsets regardless of freshness (audits
    /// cross-check these against the live cell column).
    pub fn cell_index_raw(&self) -> Option<&[usize]> {
        (!self.cell_start.is_empty()).then_some(&self.cell_start[..])
    }

    /// True when the index was built and no mutation has touched the
    /// store since.
    #[inline]
    pub fn index_is_fresh(&self) -> bool {
        !self.cell_start.is_empty() && self.dirty_count() == 0
    }

    /// Upper bound on the number of particles whose cell or slot has
    /// changed since the index was built. A raw mutable cell-map
    /// borrow counts as "all of them" until [`refine_dirty`] reports
    /// the measured figure.
    ///
    /// [`refine_dirty`]: ParticleDats::refine_dirty
    pub fn dirty_count(&self) -> usize {
        if self.cells_exposed {
            self.n
        } else {
            self.dirty.min(self.n)
        }
    }

    /// `dirty_count` as a fraction of the population (0 when empty).
    pub fn dirty_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.dirty_count() as f64 / self.n as f64
        }
    }

    /// Replace the conservative all-dirty estimate from a raw mutable
    /// cell-map borrow with a measured change count (e.g. the move
    /// engine's relocated + removed totals). `changed` must be an
    /// upper bound on how many cell entries the borrow actually
    /// rewrote; the counter stays monotone otherwise.
    pub fn refine_dirty(&mut self, changed: usize) {
        self.cells_exposed = false;
        self.dirty = self.dirty.saturating_add(changed);
    }

    fn mark_dirty(&mut self, k: usize) {
        self.dirty = self.dirty.saturating_add(k);
    }

    /// Inject `count` new particles, all starting in `cell` (callers
    /// then initialise their dats over the returned range — the
    /// `OPP_ITERATE_INJECTED` pattern).
    pub fn inject(&mut self, count: usize, cell: i32) -> std::ops::Range<usize> {
        let from = self.n;
        self.n += count;
        for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
            col.resize(self.n * dim, 0.0);
        }
        self.cell.resize(self.n, cell);
        self.injected_from = from;
        self.mark_dirty(count);
        crate::telemetry::count("inject.particles", count as u64);
        from..self.n
    }

    /// Inject particles with per-particle cells.
    pub fn inject_into(&mut self, cells: &[i32]) -> std::ops::Range<usize> {
        let from = self.n;
        self.n += cells.len();
        for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
            col.resize(self.n * dim, 0.0);
        }
        self.cell.extend_from_slice(cells);
        self.injected_from = from;
        self.mark_dirty(cells.len());
        crate::telemetry::count("inject.particles", cells.len() as u64);
        from..self.n
    }

    /// The most recent injection batch (`OPP_ITERATE_INJECTED`).
    pub fn injected(&self) -> std::ops::Range<usize> {
        self.injected_from..self.n
    }

    /// Remove the particles at `holes` (sorted ascending, unique) by
    /// filling each hole with a surviving particle taken from the end —
    /// the paper's hole-filling routine. O(len(holes) · dofs).
    pub fn remove_fill(&mut self, holes: &[usize]) {
        if holes.is_empty() {
            return;
        }
        debug_assert!(
            holes.windows(2).all(|w| w[0] < w[1]),
            "holes must be sorted unique"
        );
        debug_assert!(
            *holes.last().expect("nonempty") < self.n,
            "hole out of range"
        );
        let keep = self.n - holes.len();

        // Tail holes (>= keep) vanish with the truncation; only holes in
        // the surviving prefix must be filled, and only with tail
        // elements that are not themselves holes.
        let mut tail_holes = holes.iter().rev().copied().peekable();
        let mut src = self.n;
        let mut swaps = 0u64;
        for &h in holes {
            if h >= keep {
                break;
            }
            swaps += 1;
            // Find the highest-index surviving tail particle.
            src -= 1;
            while tail_holes.peek() == Some(&src) {
                tail_holes.next();
                src -= 1;
            }
            debug_assert!(src >= keep);
            for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
                // Move element src -> h within one flat buffer.
                let (dst_range, src_range) = (h * dim..(h + 1) * dim, src * dim..(src + 1) * dim);
                let (lo, hi) = col.split_at_mut(src_range.start);
                lo[dst_range].copy_from_slice(&hi[..dim]);
            }
            self.cell[h] = self.cell[src];
        }

        self.n = keep;
        for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
            col.truncate(keep * dim);
        }
        self.cell.truncate(keep);
        self.injected_from = self.injected_from.min(keep);
        self.mark_dirty(holes.len());
        crate::telemetry::count("holefill.removed", holes.len() as u64);
        crate::telemetry::count("holefill.swaps", swaps);
    }

    /// Numeric guard: scan `cols` for NaN/Inf entries and remove every
    /// particle owning one (hole-filling, like [`remove_fill`]).
    /// Returns the pre-removal indices of the quarantined particles,
    /// sorted ascending. Fires the `resilience.quarantined` telemetry
    /// counter so recovery events are attributable after the fact.
    ///
    /// A corrupt position or velocity would otherwise propagate NaN
    /// through deposit into the field solve and poison the entire run;
    /// dropping the offending particles bounds the blast radius to a
    /// counted, reported loss.
    ///
    /// [`remove_fill`]: ParticleDats::remove_fill
    pub fn quarantine_nonfinite(&mut self, cols: &[ColId]) -> Vec<usize> {
        let mut holes: Vec<usize> = Vec::new();
        for &id in cols {
            let dim = self.dims[id.0];
            let col = &self.cols[id.0];
            for i in 0..self.n {
                if col[i * dim..(i + 1) * dim].iter().any(|v| !v.is_finite()) {
                    holes.push(i);
                }
            }
        }
        holes.sort_unstable();
        holes.dedup();
        if !holes.is_empty() {
            self.remove_fill(&holes);
            crate::telemetry::count("resilience.quarantined", holes.len() as u64);
        }
        holes
    }

    /// Apply a permutation: element `i` of the result is element
    /// `perm[i]` of the current state. `perm` must be a bijection.
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        self.permute_with_scratch(perm);
        let moved = self.n;
        self.mark_dirty(moved);
    }

    /// The out-of-place permute, staging through the persistent
    /// scratch buffers instead of allocating per call. Does *not*
    /// touch the dirty counter — `sort_by_cell` permutes and then
    /// declares the index fresh, `apply_permutation` marks all dirty.
    fn permute_with_scratch(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
            self.scratch_col.clear();
            self.scratch_col.resize(col.len(), 0.0);
            for (i, &p) in perm.iter().enumerate() {
                self.scratch_col[i * dim..(i + 1) * dim]
                    .copy_from_slice(&col[p * dim..(p + 1) * dim]);
            }
            std::mem::swap(col, &mut self.scratch_col);
        }
        self.scratch_cell.clear();
        self.scratch_cell.resize(self.n, 0);
        for (i, &p) in perm.iter().enumerate() {
            self.scratch_cell[i] = self.cell[p];
        }
        std::mem::swap(&mut self.cell, &mut self.scratch_cell);
    }

    /// Sort particles by cell index (counting sort — the auxiliary
    /// particle-sort API the paper mentions improves locality). The
    /// sort is stable, so equal-cell particles keep their relative
    /// order. As a side effect the CSR cell index is rebuilt and
    /// declared fresh; the counting pass *is* the index build, so
    /// freshness costs nothing extra.
    pub fn sort_by_cell(&mut self, n_cells: usize) {
        if let Some(t) = crate::telemetry::current() {
            t.counter_add("sort.rebuilds", 1);
            // Percentage of the set whose cell entry changed since the
            // last rebuild — what `SortPolicy::DirtyFraction` keys on.
            t.hist_record(
                "sort.dirty_pct",
                (self.dirty_fraction() * 100.0).round() as u64,
            );
        }
        self.cell_start.clear();
        self.cell_start.resize(n_cells + 1, 0);
        for &c in &self.cell {
            debug_assert!(c >= 0 && (c as usize) < n_cells, "cell index out of range");
            self.cell_start[c as usize + 1] += 1;
        }
        for k in 0..n_cells {
            self.cell_start[k + 1] += self.cell_start[k];
        }
        // Counting cursors start as a copy of the offsets; after the
        // placement pass they have advanced to the segment ends.
        self.scratch_counts.clear();
        self.scratch_counts.extend_from_slice(&self.cell_start);
        let mut perm = std::mem::take(&mut self.scratch_perm);
        perm.clear();
        perm.resize(self.n, 0);
        for i in 0..self.n {
            let c = self.cell[i] as usize;
            perm[self.scratch_counts[c]] = i;
            self.scratch_counts[c] += 1;
        }
        self.permute_with_scratch(&perm);
        self.scratch_perm = perm;
        self.dirty = 0;
        self.cells_exposed = false;
        debug_assert!(self.cell.is_sorted(), "counting sort left cells unsorted");
        if let Some(h) = crate::telemetry::hist("sort.segment_len") {
            let mut segments = crate::telemetry::HistogramSnapshot::default();
            for w in self.cell_start.windows(2) {
                segments.record((w[1] - w[0]) as u64);
            }
            h.merge_snapshot(&segments);
        }
    }

    /// Deterministic pseudo-random shuffle (the paper's "periodic
    /// shuffling with hole-filling has proven most effective on GPUs").
    pub fn shuffle(&mut self, seed: u64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move |bound: usize| {
            // SplitMix64 step + rejection-free bounded sample.
            state ^= state >> 30;
            state = state.wrapping_mul(0xBF58476D1CE4E5B9);
            state ^= state >> 27;
            state = state.wrapping_mul(0x94D049BB133111EB);
            state ^= state >> 31;
            (state % bound as u64) as usize
        };
        let mut perm: Vec<usize> = (0..self.n).collect();
        for i in (1..self.n).rev() {
            perm.swap(i, next(i + 1));
        }
        self.apply_permutation(&perm);
    }

    /// Total bytes held by all columns (utilisation accounting).
    pub fn bytes(&self) -> usize {
        self.cols.iter().map(|c| c.len() * 8).sum::<usize>() + self.cell.len() * 4
    }

    /// The particles whose cell another rank owns: `(slot, owner,
    /// cell)` for every slot with `cell_rank[cell] != me`, in slot
    /// order — the leaver list a migration ships.
    pub fn leavers(&self, cell_rank: &[u32], me: usize) -> Vec<(usize, u32, i32)> {
        self.cell
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| {
                let owner = cell_rank[c as usize];
                (owner as usize != me).then_some((i, owner, c))
            })
            .collect()
    }

    /// Extract one particle's full payload (all columns, in declaration
    /// order) — used by the MPI pack/ship path.
    pub fn pack_one(&self, i: usize, out: &mut Vec<f64>) {
        for (col, &dim) in self.cols.iter().zip(&self.dims) {
            out.extend_from_slice(&col[i * dim..(i + 1) * dim]);
        }
    }

    /// Append one particle from a packed payload (inverse of
    /// [`ParticleDats::pack_one`]); returns its index.
    pub fn unpack_one(&mut self, payload: &[f64], cell: i32) -> usize {
        assert_eq!(payload.len(), self.dofs(), "payload size mismatch");
        let mut off = 0;
        for (col, &dim) in self.cols.iter_mut().zip(&self.dims) {
            col.extend_from_slice(&payload[off..off + dim]);
            off += dim;
        }
        self.cell.push(cell);
        self.n += 1;
        self.mark_dirty(1);
        self.n - 1
    }

    /// Degrees of freedom per particle (sum of column dims) — 7 for
    /// both of the paper's apps.
    pub fn dofs(&self) -> usize {
        self.dims.iter().sum()
    }

    /// Copy the dat *schema* (names/dims, no data) — ranks in the
    /// distributed runtime clone this to agree on the wire layout.
    pub fn clone_schema(&self) -> ParticleDats {
        let mut ps = ParticleDats::new();
        ps.names = self.names.clone();
        ps.dims = self.dims.clone();
        ps.cols = self.dims.iter().map(|_| Vec::new()).collect();
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn store_with(n: usize) -> (ParticleDats, ColId, ColId) {
        let mut ps = ParticleDats::new();
        let pos = ps.decl_dat("pos", 3);
        let q = ps.decl_dat("charge", 1);
        let r = ps.inject(n, 0);
        assert_eq!(r, 0..n);
        for i in 0..n {
            let e = ps.el_mut(pos, i);
            e[0] = i as f64;
            e[1] = i as f64 + 0.5;
            e[2] = -(i as f64);
            ps.el_mut(q, i)[0] = 100.0 + i as f64;
            ps.cells_mut()[i] = (i % 5) as i32;
        }
        (ps, pos, q)
    }

    #[test]
    fn leavers_lists_foreign_owned_slots_in_order() {
        let (mut ps, _, _) = store_with(4);
        ps.cells_mut().copy_from_slice(&[0, 1, 2, 1]);
        let cell_rank = [0u32, 2, 0];
        assert_eq!(ps.leavers(&cell_rank, 0), vec![(1, 2, 1), (3, 2, 1)]);
        assert_eq!(ps.leavers(&cell_rank, 2), vec![(0, 0, 0), (2, 0, 2)]);
    }

    #[test]
    fn declaration_and_injection() {
        let (ps, pos, q) = store_with(10);
        assert_eq!(ps.len(), 10);
        assert_eq!(ps.dofs(), 4);
        assert_eq!(ps.dim(pos), 3);
        assert_eq!(ps.name(q), "charge");
        assert_eq!(ps.col_id("pos"), Some(pos));
        assert_eq!(ps.col_id("nope"), None);
        assert_eq!(ps.el(pos, 3), &[3.0, 3.5, -3.0]);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_dat_rejected() {
        let mut ps = ParticleDats::new();
        ps.decl_dat("pos", 3);
        ps.decl_dat("pos", 1);
    }

    #[test]
    fn late_dat_declaration_zero_fills() {
        let (mut ps, _, _) = store_with(4);
        let w = ps.decl_dat("weight", 2);
        assert_eq!(ps.col(w).len(), 8);
        assert!(ps.col(w).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn injected_range_tracks_latest_batch() {
        let (mut ps, _, _) = store_with(5);
        let r = ps.inject_into(&[7, 8, 9]);
        assert_eq!(r, 5..8);
        assert_eq!(ps.injected(), 5..8);
        assert_eq!(ps.cells()[5..8], [7, 8, 9]);
    }

    #[test]
    fn hole_filling_preserves_survivors() {
        let (mut ps, pos, q) = store_with(10);
        // Remove particles 1, 4, 8.
        let holes = vec![1, 4, 8];
        let expect_survivors: HashSet<i64> = (0..10)
            .filter(|i| !holes.contains(i))
            .map(|i| i as i64)
            .collect();
        ps.remove_fill(&holes);
        assert_eq!(ps.len(), 7);
        let got: HashSet<i64> = (0..7).map(|i| ps.el(pos, i)[0] as i64).collect();
        assert_eq!(got, expect_survivors);
        // Column coherence: charge must still match pos identity.
        for i in 0..7 {
            let id = ps.el(pos, i)[0];
            assert_eq!(ps.el(q, i)[0], 100.0 + id);
            assert_eq!(ps.el(pos, i)[1], id + 0.5);
            assert_eq!(ps.cells()[i], (id as i32) % 5);
        }
    }

    #[test]
    fn hole_filling_edge_cases() {
        // All particles removed.
        let (mut ps, _, _) = store_with(4);
        ps.remove_fill(&[0, 1, 2, 3]);
        assert!(ps.is_empty());

        // Remove only the last.
        let (mut ps, pos, _) = store_with(4);
        ps.remove_fill(&[3]);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.el(pos, 2)[0], 2.0);

        // Remove only the first (tail moves in).
        let (mut ps, pos, _) = store_with(4);
        ps.remove_fill(&[0]);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.el(pos, 0)[0], 3.0);

        // Contiguous tail block including interior hole.
        let (mut ps, pos, _) = store_with(6);
        ps.remove_fill(&[2, 4, 5]);
        assert_eq!(ps.len(), 3);
        let got: HashSet<i64> = (0..3).map(|i| ps.el(pos, i)[0] as i64).collect();
        assert_eq!(got, HashSet::from([0, 1, 3]));

        // Empty holes: no-op.
        let (mut ps, _, _) = store_with(3);
        ps.remove_fill(&[]);
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn sort_by_cell_groups_and_preserves() {
        let (mut ps, pos, q) = store_with(23);
        ps.sort_by_cell(5);
        // Cells must be non-decreasing.
        assert!(ps.cells().windows(2).all(|w| w[0] <= w[1]));
        // Identity payloads intact.
        for i in 0..23 {
            let id = ps.el(pos, i)[0];
            assert_eq!(ps.el(q, i)[0], 100.0 + id);
            assert_eq!(ps.cells()[i], (id as i32) % 5);
        }
        // Counting sort is stable: within a cell, original order holds.
        for w in 0..22 {
            if ps.cells()[w] == ps.cells()[w + 1] {
                assert!(ps.el(pos, w)[0] < ps.el(pos, w + 1)[0]);
            }
        }
    }

    /// The segment-length histogram holds one value per cell, empty
    /// cells included: the same state as recording each segment on the
    /// shared histogram.
    #[test]
    fn sort_records_one_segment_length_per_cell() {
        let (mut ps, _, _) = store_with(23);
        let tel = std::sync::Arc::new(crate::telemetry::Telemetry::new());
        {
            let _cur = tel.make_current();
            ps.sort_by_cell(7);
        }
        let want = crate::telemetry::Histogram::new();
        // `store_with` puts particle i in cell i % 5: cells 5 and 6
        // stay empty.
        for len in [5, 5, 5, 4, 4, 0, 0] {
            want.record(len);
        }
        let got = tel.histogram("sort.segment_len").snapshot();
        assert_eq!(got, want.snapshot());
        assert_eq!((got.count, got.sum, got.min, got.max), (7, 23, 0, 5));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let (mut a, pos, _) = store_with(50);
        let (mut b, _, _) = store_with(50);
        a.shuffle(42);
        b.shuffle(42);
        assert_eq!(a.col(pos), b.col(pos), "same seed, same order");
        let got: HashSet<i64> = (0..50).map(|i| a.el(pos, i)[0] as i64).collect();
        assert_eq!(got.len(), 50);
        let (mut c, _, _) = store_with(50);
        c.shuffle(43);
        assert_ne!(a.col(pos), c.col(pos), "different seed, different order");
    }

    #[test]
    fn pack_unpack_round_trip() {
        let (ps, _, _) = store_with(5);
        let mut payload = Vec::new();
        ps.pack_one(3, &mut payload);
        assert_eq!(payload.len(), ps.dofs());

        let mut other = ps.clone_schema();
        assert_eq!(other.len(), 0);
        assert_eq!(other.dofs(), ps.dofs());
        let idx = other.unpack_one(&payload, 7);
        assert_eq!(idx, 0);
        assert_eq!(
            other.el(other.col_id("pos").unwrap(), 0),
            ps.el(ps.col_id("pos").unwrap(), 3)
        );
        assert_eq!(other.cells()[0], 7);
    }

    #[test]
    fn disjoint_column_access() {
        let (mut ps, pos, q) = store_with(3);
        let (p, c) = ps.cols_mut2(pos, q);
        p[0] = 9.0;
        c[0] = -1.0;
        assert_eq!(ps.el(pos, 0)[0], 9.0);
        assert_eq!(ps.el(q, 0)[0], -1.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn overlapping_column_access_rejected() {
        let (mut ps, pos, _) = store_with(3);
        let _ = ps.cols_mut2(pos, pos);
    }

    #[test]
    fn bytes_accounting() {
        let (ps, _, _) = store_with(10);
        // pos 3*8 + charge 1*8 per particle + 4 bytes cell.
        assert_eq!(ps.bytes(), 10 * (32 + 4));
    }

    #[test]
    fn cell_index_partitions_after_sort() {
        let (mut ps, _, _) = store_with(23);
        assert!(ps.cell_index().is_none(), "no index before first sort");
        ps.sort_by_cell(5);
        let idx = ps.cell_index().expect("fresh after sort");
        assert_eq!(idx.len(), 6);
        assert_eq!(idx[0], 0);
        assert_eq!(idx[5], 23);
        for c in 0..5 {
            for i in idx[c]..idx[c + 1] {
                assert_eq!(ps.cells()[i], c as i32);
            }
            let in_c = ps.cells().iter().filter(|&&x| x == c as i32).count();
            assert_eq!(in_c, idx[c + 1] - idx[c]);
        }
    }

    #[test]
    fn mutations_stale_the_index() {
        let (mut ps, _, _) = store_with(20);
        ps.sort_by_cell(5);
        assert!(ps.index_is_fresh());

        ps.inject(3, 2);
        assert_eq!(ps.dirty_count(), 3);
        assert!(ps.cell_index().is_none());

        ps.sort_by_cell(5);
        ps.remove_fill(&[0, 5]);
        assert_eq!(ps.dirty_count(), 2);

        ps.sort_by_cell(5);
        ps.unpack_one(&vec![0.0; ps.dofs()], 1);
        assert_eq!(ps.dirty_count(), 1);

        ps.sort_by_cell(5);
        ps.shuffle(7);
        assert!(ps.dirty_count() > 0);
    }

    #[test]
    fn exposed_cell_map_is_all_dirty_until_refined() {
        let (mut ps, pos, _) = store_with(12);
        ps.sort_by_cell(5);
        let (cells, _) = ps.cells_mut_with_col(pos);
        cells[0] = 4;
        assert_eq!(ps.dirty_count(), 12, "raw borrow: worst case");
        ps.refine_dirty(1);
        assert_eq!(ps.dirty_count(), 1, "measured change replaces it");
        assert!((ps.dirty_fraction() - 1.0 / 12.0).abs() < 1e-12);
        ps.sort_by_cell(5);
        assert!(ps.index_is_fresh());
    }

    #[test]
    fn injected_borrow_keeps_the_dirty_count_exact() {
        let (mut ps, pos, q) = store_with(12);
        ps.sort_by_cell(5);
        ps.inject(3, 0);
        let (p, c, cells) = ps.injected_cols_mut2_with_cells_mut(pos, q);
        assert_eq!((p.len(), c.len(), cells.len()), (9, 3, 3), "the batch only");
        p[0] = 7.0;
        c[2] = 8.0;
        cells[2] = 4;
        assert_eq!(ps.dirty_count(), 3, "only the injected slots");
        assert_eq!(ps.el(pos, 12)[0], 7.0);
        assert_eq!(ps.el(q, 14)[0], 8.0);
        assert_eq!(ps.cells()[14], 4);
    }

    #[test]
    fn sort_policies_decide_as_documented() {
        assert!(!SortPolicy::Never.should_sort(10, 100, 100));
        assert!(SortPolicy::Always.should_sort(1, 0, 100));
        assert!(SortPolicy::EveryN(5).should_sort(10, 1, 100));
        assert!(!SortPolicy::EveryN(5).should_sort(11, 1, 100));
        assert!(!SortPolicy::EveryN(0).should_sort(0, 1, 100));
        assert!(SortPolicy::DirtyFraction(0.25).should_sort(3, 25, 100));
        assert!(!SortPolicy::DirtyFraction(0.25).should_sort(3, 24, 100));
        assert!(!SortPolicy::DirtyFraction(0.25).should_sort(3, 0, 0));
    }

    #[test]
    fn repeated_sorts_reuse_scratch_and_stay_stable() {
        let (mut ps, pos, q) = store_with(40);
        for round in 0..4 {
            // Perturb some cells through the accounted-for mutators.
            ps.cells_mut()[round * 3] = 4 - (round as i32);
            ps.refine_dirty(1);
            // Stability oracle: per cell, ids in current array order.
            let mut expect: Vec<Vec<i64>> = vec![Vec::new(); 5];
            for i in 0..ps.len() {
                expect[ps.cells()[i] as usize].push(ps.el(pos, i)[0] as i64);
            }
            ps.sort_by_cell(5);
            assert!(ps.index_is_fresh());
            assert!(ps.cells().is_sorted());
            let idx = ps.cell_index().unwrap().to_vec();
            for c in 0..5 {
                let got: Vec<i64> = (idx[c]..idx[c + 1])
                    .map(|i| ps.el(pos, i)[0] as i64)
                    .collect();
                assert_eq!(got, expect[c], "stable order broken in cell {c}");
            }
            // Identity payloads must survive every round.
            for i in 0..ps.len() {
                let id = ps.el(pos, i)[0];
                assert_eq!(ps.el(q, i)[0], 100.0 + id);
            }
        }
    }
}
