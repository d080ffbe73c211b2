//! Indirect-increment executors — the race-handling strategies of
//! Section 3.3 of the paper.
//!
//! A loop over particles that increments mesh data through the
//! particle→cell (and possibly cell→node) maps is the key bottleneck of
//! PIC: many particles hit the same mesh element concurrently. The
//! paper implements, per platform:
//!
//! * **scatter arrays** (CPU/OpenMP, Figure 2(b)) — one private array
//!   per thread, reduced element-wise at loop end;
//! * **atomics** (GPU) — hardware f64 atomic adds (CAS-loop here);
//! * **segmented reduction** (GPU, Figure 3) — store `(key, value)`
//!   pairs, sort by key, reduce by key, scatter.
//!
//! This repo adds a fourth strategy the paper's periodic particle sort
//! makes possible: **sorted segments**
//! ([`DepositMethod::SortedSegments`]). When the particle store is
//! cell-sorted and its CSR cell index is *fresh* (see
//! `ParticleDats::cell_index`), the deposit is re-expressed
//! owner-computes: the loop parallelises over *target elements*, and
//! each target folds the contributions of its cells' particle segments
//! in exactly the serial order (cells ascending, particles ascending
//! within a segment, map slots ascending within a particle). Plain
//! `+=`, zero atomics, zero per-thread scatter memory — and because
//! each target replays the serial left-fold verbatim, the result is
//! **bit-identical to [`DepositMethod::Serial`]**, a property none of
//! the other parallel strategies have. The freshness precondition is
//! enforced by the planner (`plan/stale-index`) and executors run it
//! through [`deposit_loop_sorted`], which takes the CSR index and a
//! [`TargetInverse`] (target → owning (cell, slot) pairs) instead of
//! the generic scattering kernel.
//!
//! All scattering strategies are exposed through one executor,
//! [`deposit_loop`]; the kernel receives a [`Depositor`] and calls
//! [`Depositor::add`] for each contribution. Every strategy computes
//! the same sums (up to floating-point associativity; segmented
//! reduction is made *deterministic* by totally ordering equal keys by
//! value bits before reducing). [`AutoTuner`] picks among
//! ScatterArrays / Atomics / SortedSegments per loop from runtime
//! stats (particles per cell, dirty fraction, thread count).

use crate::parloop::{dispatch, ExecPolicy};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Race-handling strategy for indirect increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepositMethod {
    /// Reference single-threaded accumulation.
    Serial,
    /// Per-thread private arrays + element-wise reduction (the paper's
    /// CPU/OpenMP choice).
    ScatterArrays,
    /// CAS-loop f64 atomic adds with sequentially consistent success
    /// ordering (the paper's "safe atomics", AT).
    Atomics,
    /// CAS-loop f64 atomic adds with relaxed ordering — the paper's
    /// "unsafe atomics" (UA) are a weaker-guarantee RMW path on AMD
    /// hardware; relaxed ordering is the closest well-defined analogue.
    UnsafeAtomics,
    /// store(key,value) → sort_by_key → reduce_by_key (the paper's SR,
    /// Figure 3).
    SegmentedReduction,
    /// Owner-computes over cell segments of a **cell-sorted** store:
    /// parallel over targets, each folding its segments in serial
    /// order. Bit-identical to `Serial`; requires a fresh CSR cell
    /// index and runs through [`deposit_loop_sorted`], not the generic
    /// [`deposit_loop`].
    SortedSegments,
    /// Matrixized owner-computes: per-cell particle runs are packed
    /// into fixed-width SoA tiles ([`MatTile`], tail lanes masked) and
    /// the deposit becomes an accumulated rank-k outer-product
    /// (`shape^T × weights`) per target, after Matrix-PIC
    /// (arXiv 2601.08277) and POLAR-PIC (arXiv 2604.19337). Shares the
    /// fresh-index precondition and owner-computes race story of
    /// [`DepositMethod::SortedSegments`]; runs through
    /// [`deposit_loop_matrix`] in one of two [`MatAccumulate`] modes
    /// (bit-identical to `Serial` in `Exact`, lane-parallel in `Fast`).
    Matrix,
}

impl DepositMethod {
    pub const ALL: [DepositMethod; 7] = [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
        DepositMethod::UnsafeAtomics,
        DepositMethod::SegmentedReduction,
        DepositMethod::SortedSegments,
        DepositMethod::Matrix,
    ];

    /// The strategies the generic [`deposit_loop`] executor can run —
    /// everything except [`DepositMethod::SortedSegments`] and
    /// [`DepositMethod::Matrix`], which need the CSR index and
    /// target-inverse structure of [`deposit_loop_sorted`] /
    /// [`deposit_loop_matrix`].
    pub const GENERIC: [DepositMethod; 5] = [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
        DepositMethod::UnsafeAtomics,
        DepositMethod::SegmentedReduction,
    ];

    /// Does this method execute race-free *while honouring* a policy
    /// with the given parallelism? Every method is safe in the
    /// data-race sense — `Serial` under a parallel policy returns
    /// `false` because it silently falls back to sequential execution,
    /// which the analyzer surfaces as a plan-incoherence warning.
    pub fn is_race_safe(self, parallel: bool) -> bool {
        !parallel || !matches!(self, DepositMethod::Serial)
    }

    /// Short label used by the benchmark tables (matches the paper's
    /// AT/UA/SR abbreviations).
    pub fn label(self) -> &'static str {
        match self {
            DepositMethod::Serial => "SEQ",
            DepositMethod::ScatterArrays => "SA",
            DepositMethod::Atomics => "AT",
            DepositMethod::UnsafeAtomics => "UA",
            DepositMethod::SegmentedReduction => "SR",
            DepositMethod::SortedSegments => "SS",
            DepositMethod::Matrix => "MX",
        }
    }
}

/// Handle through which a kernel emits `target[index] += value`
/// contributions. The variant is chosen by the executor; kernels are
/// strategy-agnostic (the separation of concerns the DSL promises).
pub enum Depositor<'a> {
    Exclusive(&'a mut [f64]),
    Local(&'a mut [f64]),
    Atomic {
        slots: &'a [AtomicU64],
        ordering: Ordering,
    },
    Pairs(&'a mut Vec<(u32, f64)>),
}

impl<'a> Depositor<'a> {
    /// Accumulate `value` into flat index `idx` of the target dat.
    #[inline]
    pub fn add(&mut self, idx: usize, value: f64) {
        match self {
            Depositor::Exclusive(t) | Depositor::Local(t) => t[idx] += value,
            Depositor::Atomic { slots, ordering } => atomic_add_f64(&slots[idx], value, *ordering),
            Depositor::Pairs(buf) => buf.push((idx as u32, value)),
        }
    }
}

/// f64 atomic add via compare-exchange on the bit pattern. `ordering`
/// applies to the successful exchange; failures reload relaxed.
#[inline]
fn atomic_add_f64(slot: &AtomicU64, value: f64, ordering: Ordering) {
    let mut current = slot.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(current) + value;
        match slot.compare_exchange_weak(current, new.to_bits(), ordering, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Reinterpret an exclusively borrowed `&mut [f64]` as atomic slots.
/// Sound: we hold the unique borrow for the whole loop, `f64` and
/// `AtomicU64` have identical size and alignment, and every bit
/// pattern is valid for both.
fn as_atomic_slots(data: &mut [f64]) -> &[AtomicU64] {
    const _: () = assert!(std::mem::size_of::<f64>() == std::mem::size_of::<AtomicU64>());
    const _: () = assert!(std::mem::align_of::<f64>() == std::mem::align_of::<AtomicU64>());
    // SAFETY: `data` is an exclusive borrow held for the returned
    // slice's whole lifetime, `f64` and `AtomicU64` have identical
    // size/alignment (asserted above) and every bit pattern is valid
    // for both; the pointer comes from `as_mut_ptr` so the shared
    // atomic view retains write provenance over the exclusive borrow.
    unsafe { std::slice::from_raw_parts(data.as_mut_ptr() as *const AtomicU64, data.len()) }
}

/// Statistics from one deposit loop (fed to the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DepositStats {
    /// Number of `(key, value)` pairs staged (segmented reduction only).
    pub pairs_staged: usize,
    /// Distinct target indices touched (segmented reduction only).
    pub segments: usize,
}

/// Run an indirect-increment loop over `n` iterations, accumulating
/// into `target` (a flat `len*dim` f64 buffer) with the chosen
/// strategy. The kernel is invoked once per iteration index.
///
/// ```
/// use oppic_core::{deposit_loop, DepositMethod, ExecPolicy};
/// // 1000 "particles", each adding 1.0 to one of 4 "nodes":
/// let mut node_charge = vec![0.0; 4];
/// deposit_loop(
///     &ExecPolicy::Par,
///     DepositMethod::ScatterArrays,
///     1000,
///     &mut node_charge,
///     |i, dep| dep.add(i % 4, 1.0),
/// );
/// assert_eq!(node_charge, vec![250.0; 4]);
/// ```
pub fn deposit_loop<F>(
    policy: &ExecPolicy,
    method: DepositMethod,
    n: usize,
    target: &mut [f64],
    kernel: F,
) -> DepositStats
where
    F: Fn(usize, &mut Depositor) + Sync,
{
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("deposit.loops", 1);
        t.counter_add(&format!("deposit.method.{}", method.label()), 1);
    }
    match method {
        DepositMethod::Serial => {
            let mut dep = Depositor::Exclusive(target);
            for i in 0..n {
                kernel(i, &mut dep);
            }
            DepositStats::default()
        }
        DepositMethod::ScatterArrays => {
            scatter_arrays(policy, n, target, &kernel);
            DepositStats::default()
        }
        DepositMethod::Atomics | DepositMethod::UnsafeAtomics => {
            let ordering = if method == DepositMethod::Atomics {
                Ordering::SeqCst
            } else {
                Ordering::Relaxed
            };
            let slots = as_atomic_slots(target);
            policy.run(|| {
                if policy.is_parallel() {
                    (0..n).into_par_iter().for_each(|i| {
                        let mut dep = Depositor::Atomic { slots, ordering };
                        kernel(i, &mut dep);
                    });
                } else {
                    let mut dep = Depositor::Atomic { slots, ordering };
                    for i in 0..n {
                        kernel(i, &mut dep);
                    }
                }
            });
            DepositStats::default()
        }
        DepositMethod::SegmentedReduction => {
            policy.run(|| segmented_reduction(policy, n, target, &kernel))
        }
        DepositMethod::SortedSegments => panic!(
            "SortedSegments cannot run through the generic deposit_loop: it needs the \
             fresh CSR cell index and a TargetInverse — use deposit_loop_sorted"
        ),
        DepositMethod::Matrix => panic!(
            "Matrix cannot run through the generic deposit_loop: it needs the \
             fresh CSR cell index and a TargetInverse — use deposit_loop_matrix"
        ),
    }
}

// ---------------------------------------------------------------------
// Sorted segments — the cell-locality engine's owner-computes deposit.
// ---------------------------------------------------------------------

/// CSR inverse of a cell→targets relation: for each target, the
/// `(cell, slot)` pairs that reach it, grouped by cell in ascending
/// `(cell, slot)` order. Built once per mesh by
/// [`invert_cell_targets`]; `slot` is the index into the cell's target
/// list, so the deposit kernel can recompute the per-slot weight.
#[derive(Debug, Clone, Default)]
pub struct TargetInverse {
    offsets: Vec<usize>,
    entries: Vec<(u32, u32)>,
    /// The forward cell→targets CSR the inverse was built from, kept
    /// for the matrixized deposit's sequential cell-major schedule
    /// (per-cell outer products need the cell's target list).
    fwd_offsets: Vec<usize>,
    fwd_targets: Vec<u32>,
}

impl TargetInverse {
    /// Number of targets covered.
    pub fn n_targets(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of cells in the forward relation.
    pub fn n_cells(&self) -> usize {
        self.fwd_offsets.len().saturating_sub(1)
    }

    /// The `(cell, slot)` pairs reaching target `t`, cell-ascending.
    #[inline]
    pub fn entries_of(&self, t: usize) -> &[(u32, u32)] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Cell `c`'s target list, slots ascending (the forward relation).
    #[inline]
    pub fn targets_of(&self, c: usize) -> &[u32] {
        &self.fwd_targets[self.fwd_offsets[c]..self.fwd_offsets[c + 1]]
    }
}

/// Invert a cell→targets relation (e.g. the cells→nodes map) into the
/// target→(cell, slot) CSR form [`deposit_loop_sorted`] consumes.
pub fn invert_cell_targets<C: AsRef<[usize]>>(
    cell_targets: &[C],
    n_targets: usize,
) -> TargetInverse {
    let mut offsets = vec![0usize; n_targets + 1];
    for ts in cell_targets {
        for &t in ts.as_ref() {
            offsets[t + 1] += 1;
        }
    }
    for t in 0..n_targets {
        offsets[t + 1] += offsets[t];
    }
    let mut cursor = offsets.clone();
    let mut entries = vec![(0u32, 0u32); offsets[n_targets]];
    // Cells ascending, slots ascending: each target's entry list comes
    // out already grouped and sorted, which is what replays the serial
    // fold order.
    let mut fwd_offsets = Vec::with_capacity(cell_targets.len() + 1);
    fwd_offsets.push(0usize);
    let mut fwd_targets = Vec::with_capacity(offsets[n_targets]);
    for (c, ts) in cell_targets.iter().enumerate() {
        for (s, &t) in ts.as_ref().iter().enumerate() {
            entries[cursor[t]] = (c as u32, s as u32);
            cursor[t] += 1;
        }
        fwd_targets.extend(ts.as_ref().iter().map(|&t| t as u32));
        fwd_offsets.push(fwd_targets.len());
    }
    TargetInverse {
        offsets,
        entries,
        fwd_offsets,
        fwd_targets,
    }
}

/// The `SortedSegments` executor. `cell_start` must be the **fresh**
/// CSR cell index of a cell-sorted particle store
/// (`ParticleDats::cell_index`); `inv` the inverse of the same
/// cell→targets relation the serial kernel scatters through. The
/// kernel returns the contribution of particle `p` through slot `s` of
/// its cell's target list.
///
/// Each target element is owned by exactly one task, which folds its
/// contributions in the order the serial loop would have applied them
/// (cells ascending; particles ascending within a segment; slots
/// ascending within a particle) starting from the target's existing
/// value — so the result is bit-identical to [`DepositMethod::Serial`]
/// for any initial target contents. Panics if the index does not
/// cover the inverse's cells (a stale-index symptom).
pub fn deposit_loop_sorted<F>(
    policy: &ExecPolicy,
    cell_start: &[usize],
    inv: &TargetInverse,
    target: &mut [f64],
    kernel: F,
) -> DepositStats
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    assert_eq!(
        target.len(),
        inv.n_targets(),
        "target length must match the inverse map"
    );
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("deposit.loops", 1);
        t.counter_add("deposit.method.SS", 1);
    }
    let fold_target = |t: usize, out: &mut f64| {
        let mut acc = *out;
        let entries = inv.entries_of(t);
        let mut k = 0;
        while k < entries.len() {
            let cell = entries[k].0 as usize;
            let mut end = k;
            while end < entries.len() && entries[end].0 as usize == cell {
                end += 1;
            }
            let slots = &entries[k..end];
            let (lo, hi) = (cell_start[cell], cell_start[cell + 1]);
            if let [(_, s)] = slots {
                // Overwhelmingly common case (a cell reaches each of
                // its targets through one slot): a tight segment scan.
                let s = *s as usize;
                for p in lo..hi {
                    acc += kernel(p, s);
                }
            } else {
                for p in lo..hi {
                    for &(_, s) in slots {
                        acc += kernel(p, s as usize);
                    }
                }
            }
            k = end;
        }
        *out = acc;
    };
    policy.run(|| {
        if policy.is_parallel() {
            target
                .par_iter_mut()
                .enumerate()
                .for_each(|(t, out)| fold_target(t, out));
        } else {
            for (t, out) in target.iter_mut().enumerate() {
                fold_target(t, out);
            }
        }
    });
    DepositStats::default()
}

// ---------------------------------------------------------------------
// Matrixized deposit/gather — batched per-cell outer-product kernels.
// ---------------------------------------------------------------------

/// Width of one SoA tile in the matrixized deposit/gather engine: how
/// many particles of a cell run are packed into one shape-matrix row
/// block. Eight f64 lanes fill one cache line and give the `Fast`
/// accumulation mode eight independent FP add chains, which is what
/// breaks the latency-bound serial fold of
/// [`DepositMethod::SortedSegments`].
pub const MAT_TILE_WIDTH: usize = 8;

/// One fixed-width tile of per-particle shape/weight values for a
/// contiguous run of a cell segment. Tail tiles (runs shorter than
/// [`MAT_TILE_WIDTH`]) keep their dead lanes masked to `0.0`, so the
/// `Fast` accumulation mode can always process all lanes branch-free.
#[derive(Debug, Clone, Copy)]
pub struct MatTile {
    lanes: [f64; MAT_TILE_WIDTH],
    len: usize,
}

impl MatTile {
    /// Pack the particle run `lo..hi` (at most [`MAT_TILE_WIDTH`]
    /// long) into a tile, masking tail lanes to zero.
    #[inline(always)]
    pub fn pack<F: FnMut(usize) -> f64>(lo: usize, hi: usize, mut value: F) -> Self {
        debug_assert!(hi - lo <= MAT_TILE_WIDTH);
        let mut lanes = [0.0f64; MAT_TILE_WIDTH];
        for (l, p) in (lo..hi).enumerate() {
            lanes[l] = value(p);
        }
        MatTile {
            lanes,
            len: hi - lo,
        }
    }

    /// Live lanes (the rest are zero-masked tail).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed lane values (tail lanes are `0.0`).
    pub fn lanes(&self) -> &[f64; MAT_TILE_WIDTH] {
        &self.lanes
    }

    /// `Exact` accumulation: fold the live lanes into `acc` one at a
    /// time, lanes ascending — exactly the order the serial scatter
    /// loop would have applied them, so the result is bit-identical.
    #[inline(always)]
    pub fn fold_exact(&self, mut acc: f64) -> f64 {
        for &v in &self.lanes[..self.len] {
            acc += v;
        }
        acc
    }

    /// `Fast` accumulation: add every lane (tail lanes add zero) into
    /// the caller's eight independent accumulators. Each accumulator
    /// forms its own FP dependency chain, so consecutive tiles overlap
    /// in the FP pipeline instead of serialising on one add latency.
    #[inline(always)]
    pub fn accumulate(&self, acc: &mut [f64; MAT_TILE_WIDTH]) {
        for (a, &v) in acc.iter_mut().zip(&self.lanes) {
            *a += v;
        }
    }

    /// Reduce eight lane accumulators to a scalar with a fixed
    /// pairwise tree (deterministic regardless of tile count).
    #[inline(always)]
    pub fn reduce(acc: &[f64; MAT_TILE_WIDTH]) -> f64 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }
}

/// Accumulation mode of [`deposit_loop_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatAccumulate {
    /// Fold tile lanes sequentially in serial scatter order —
    /// bit-identical to [`DepositMethod::Serial`] for any initial
    /// target contents (the conformance matrix's bit-identity cells).
    Exact,
    /// Keep [`MAT_TILE_WIDTH`] independent lane accumulators across a
    /// target's whole entry list and reduce once per target. Same
    /// values to rounding (a different, still deterministic summation
    /// tree); this is the high-throughput mode the ablation records.
    /// Only the parallel target-major schedule distinguishes the two
    /// modes — on a single worker [`deposit_loop_matrix`] streams
    /// cell-major and both modes are bit-identical to Serial.
    Fast,
}

/// The `Matrix` executor: deposit as accumulated rank-k outer-product
/// micro-kernels over fixed-width SoA tiles. `cell_start` must be the
/// **fresh** CSR cell index of a cell-sorted store; `inv` the inverse
/// of the cell→targets relation; the kernel returns the shape-weighted
/// contribution of particle `p` through slot `s` of its cell's target
/// list (one entry of the `shape^T × weights` product).
///
/// Two schedules, picked by worker count:
///
/// * **Single worker** (`Seq` or a one-thread pool): a cell-major
///   sweep of true per-cell rank-k outer products. Each particle row
///   (all of its cell's slots) is streamed from memory exactly once
///   and scattered slot-by-slot into the cell's targets — `1/n_slots`
///   of the target-major read traffic, which is what beats
///   [`DepositMethod::SortedSegments`] at high ppc. Reordering only
///   crosses *different* targets, so every individual target still
///   receives its contributions in serial order and the result is
///   bit-identical to [`DepositMethod::Serial`] in **both** modes.
/// * **Parallel**: owner-computes target-major folds over the inverse
///   map — each target element is owned by exactly one task, so the
///   loop is race-free, at the price of re-reading the particle data
///   once per slot. Here the two [`MatAccumulate`] modes differ in
///   fold order; both are deterministic.
pub fn deposit_loop_matrix<F>(
    policy: &ExecPolicy,
    cell_start: &[usize],
    inv: &TargetInverse,
    target: &mut [f64],
    mode: MatAccumulate,
    kernel: F,
) -> DepositStats
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    assert_eq!(
        target.len(),
        inv.n_targets(),
        "target length must match the inverse map"
    );
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("deposit.loops", 1);
        t.counter_add("deposit.method.MX", 1);
    }
    if policy.threads() <= 1 {
        // Cell-major single-worker schedule (see the doc comment):
        // stream each particle row once, scatter serial-order.
        let n_cells = inv.n_cells();
        assert!(
            cell_start.len() > n_cells,
            "cell index must cover the forward map"
        );
        policy.run(|| {
            for c in 0..n_cells {
                let ts = inv.targets_of(c);
                let (lo, hi) = (cell_start[c], cell_start[c + 1]);
                if lo == hi {
                    continue;
                }
                // A degenerate cell reaching one target through several
                // slots would interleave that target's contributions
                // differently under slot-major tiling (and a cell wider
                // than a tile has no accumulator row); replay the exact
                // serial scatter for those cells.
                if ts.len() > MAT_TILE_WIDTH
                    || ts.iter().enumerate().any(|(i, t)| ts[..i].contains(t))
                {
                    for p in lo..hi {
                        for (s, &t) in ts.iter().enumerate() {
                            target[t as usize] += kernel(p, s);
                        }
                    }
                    continue;
                }
                // Hoist the cell's (distinct) targets into one slot
                // accumulator row for the whole segment, so each slot's
                // fold chain lives in a register: up to `ts.len()`
                // independent FP add chains in flight instead of
                // store-forwarded read-modify-writes of `target`.
                let mut acc = [0.0f64; MAT_TILE_WIDTH];
                for (a, &t) in acc.iter_mut().zip(ts) {
                    *a = target[t as usize];
                }
                // One rank-k outer-product update per segment,
                // computed row-major: each particle's (contiguous)
                // shape row is streamed from memory exactly once and
                // folded into the slot accumulators. Every individual
                // accumulator still sees its contributions particles
                // ascending — the per-target order Serial would have
                // used.
                for q in lo..hi {
                    for (s, a) in acc.iter_mut().enumerate().take(ts.len()) {
                        *a += kernel(q, s);
                    }
                }
                for (&a, &t) in acc.iter().zip(ts) {
                    target[t as usize] = a;
                }
            }
        });
        return DepositStats::default();
    }
    let fold_target = |t: usize, out: &mut f64| {
        let entries = inv.entries_of(t);
        // Eight independent lane chains (Fast) or a single serial-order
        // chain seeded with the target's existing value (Exact).
        let mut lane_acc = [0.0f64; MAT_TILE_WIDTH];
        let mut acc = *out;
        let mut k = 0;
        while k < entries.len() {
            let cell = entries[k].0 as usize;
            let mut end = k;
            while end < entries.len() && entries[end].0 as usize == cell {
                end += 1;
            }
            let slots = &entries[k..end];
            let (lo, hi) = (cell_start[cell], cell_start[cell + 1]);
            if let [(_, s)] = slots {
                // Single-slot fast path: tile the cell run directly.
                let s = *s as usize;
                let mut p = lo;
                while p < hi {
                    let tile_hi = (p + MAT_TILE_WIDTH).min(hi);
                    let tile = MatTile::pack(p, tile_hi, |q| kernel(q, s));
                    match mode {
                        MatAccumulate::Exact => acc = tile.fold_exact(acc),
                        MatAccumulate::Fast => tile.accumulate(&mut lane_acc),
                    }
                    p = tile_hi;
                }
            } else {
                // A cell reaching one target through several slots
                // (degenerate meshes): lane values are the
                // slots-ascending per-particle fold, which preserves
                // the serial slot order inside each lane.
                match mode {
                    MatAccumulate::Exact => {
                        // Exact mode cannot pre-fold slots (it would
                        // reassociate against the serial order), so it
                        // replays the scalar double loop.
                        for p in lo..hi {
                            for &(_, s) in slots {
                                acc += kernel(p, s as usize);
                            }
                        }
                    }
                    MatAccumulate::Fast => {
                        let mut p = lo;
                        while p < hi {
                            let tile_hi = (p + MAT_TILE_WIDTH).min(hi);
                            let tile = MatTile::pack(p, tile_hi, |q| {
                                let mut row = 0.0;
                                for &(_, s) in slots {
                                    row += kernel(q, s as usize);
                                }
                                row
                            });
                            tile.accumulate(&mut lane_acc);
                            p = tile_hi;
                        }
                    }
                }
            }
            k = end;
        }
        *out = match mode {
            MatAccumulate::Exact => acc,
            MatAccumulate::Fast => acc + MatTile::reduce(&lane_acc),
        };
    };
    policy.run(|| {
        if policy.is_parallel() {
            target
                .par_iter_mut()
                .enumerate()
                .for_each(|(t, out)| fold_target(t, out));
        } else {
            for (t, out) in target.iter_mut().enumerate() {
                fold_target(t, out);
            }
        }
    });
    DepositStats::default()
}

/// The transpose product of [`deposit_loop_matrix`]: gather per-target
/// source values onto particles as `shape × field`. For each cell
/// segment the `n_slots` target values are loaded once, then every
/// tile of the segment computes its lanes' dot products against them
/// (slots ascending) — the same arithmetic order as a per-particle
/// gather loop, so the result is bit-identical to one.
///
/// `targets(cell, slot)` resolves the cell's target list (e.g. the
/// cells→nodes map); `shape(p, slot)` is the particle's interpolation
/// weight for that slot; `out` receives one scalar per particle
/// (vector fields gather component-wise).
pub fn gather_loop_matrix<TG, SH>(
    policy: &ExecPolicy,
    cell_start: &[usize],
    n_slots: usize,
    targets: TG,
    source: &[f64],
    out: &mut [f64],
    shape: SH,
) where
    TG: Fn(usize, usize) -> usize + Sync,
    SH: Fn(usize, usize) -> f64 + Sync,
{
    assert!(
        n_slots <= MAT_TILE_WIDTH,
        "gather_loop_matrix supports at most {MAT_TILE_WIDTH} slots per cell"
    );
    let n_cells = cell_start.len().saturating_sub(1);
    // Slice the per-particle output into disjoint per-cell segments so
    // the parallel path needs no aliasing tricks.
    let mut segments: Vec<(usize, &mut [f64])> = Vec::with_capacity(n_cells);
    let mut rest = out;
    let mut consumed = 0usize;
    for c in 0..n_cells {
        let len = cell_start[c + 1] - consumed;
        let (seg, tail) = rest.split_at_mut(len);
        segments.push((c, seg));
        rest = tail;
        consumed += len;
    }
    let gather_cell = |c: usize, first: usize, seg: &mut [f64]| {
        let mut vals = [0.0f64; MAT_TILE_WIDTH];
        for (k, v) in vals.iter_mut().enumerate().take(n_slots) {
            *v = source[targets(c, k)];
        }
        let mut l = 0;
        while l < seg.len() {
            let tile_hi = (l + MAT_TILE_WIDTH).min(seg.len());
            for (lane, o) in seg[l..tile_hi].iter_mut().enumerate() {
                let p = first + l + lane;
                let mut dot = 0.0;
                for (k, &v) in vals.iter().enumerate().take(n_slots) {
                    dot += shape(p, k) * v;
                }
                *o = dot;
            }
            l = tile_hi;
        }
    };
    policy.run(|| {
        if policy.is_parallel() {
            segments.par_iter_mut().for_each(|(c, seg)| {
                gather_cell(*c, cell_start[*c], seg);
            });
        } else {
            for (c, seg) in &mut segments {
                gather_cell(*c, cell_start[*c], seg);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Adaptive strategy selection.
// ---------------------------------------------------------------------

/// Runtime stats the auto-tuner decides from.
#[derive(Debug, Clone, Copy)]
pub struct TunerInput {
    pub n_particles: usize,
    pub n_cells: usize,
    pub n_targets: usize,
    /// `ParticleDats::dirty_fraction` — how stale the cell index is.
    pub dirty_fraction: f64,
    /// `ParticleDats::index_is_fresh`.
    pub index_fresh: bool,
    /// `ExecPolicy::threads` for the loop's policy.
    pub threads: usize,
}

impl TunerInput {
    pub fn mean_ppc(&self) -> f64 {
        if self.n_cells == 0 {
            0.0
        } else {
            self.n_particles as f64 / self.n_cells as f64
        }
    }
}

/// One auto-tuner verdict: the method to run and whether a cell sort
/// should be performed first (to make `SortedSegments` legal).
#[derive(Debug, Clone)]
pub struct TunerDecision {
    pub method: DepositMethod,
    pub sort_first: bool,
    /// One-line rationale, traced through the profiler by callers.
    pub reason: String,
}

/// Picks a deposit strategy per loop from runtime statistics. The
/// heuristics (thresholds ablated in `ablation_deposit_strategies`):
/// dense populations over a fresh index take the matrixized
/// outer-product path once segments are long enough to fill tiles
/// (mean particles-per-cell ≥ [`AutoTuner::MX_MIN_PPC`] in parallel,
/// ≥ [`AutoTuner::MX_SEQ_MIN_PPC`] on a single worker, where the
/// cell-major streaming schedule beats the serial reference outright);
/// moderately dense populations (≥
/// [`AutoTuner::SS_MIN_PPC`]) amortise a sort and take the
/// bit-reproducible `SortedSegments` path, as long as the index is
/// fresh or cheap to refresh (dirty fraction ≤
/// [`AutoTuner::SORT_MAX_DIRTY`]); small targets favour scatter arrays
/// (private copies are cheap); everything else falls back to atomics.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    decisions: Vec<TunerDecision>,
}

impl AutoTuner {
    /// Minimum mean particles-per-cell before a sort+sorted-segments
    /// deposit beats scattering (the segment loop needs enough work
    /// per cell to amortise the inverse-map walk).
    pub const SS_MIN_PPC: f64 = 16.0;
    /// Minimum mean particles-per-cell before the **parallel**
    /// target-major tile fold of [`DepositMethod::Matrix`] beats the
    /// scalar segment fold: below this, cell runs are shorter than a
    /// few tiles and the tail-masked lanes waste the width (crossover
    /// measured by the `ablation_deposit_strategies` sweep recorded in
    /// `results/BENCH_ablation_deposit_matrix.json`).
    pub const MX_MIN_PPC: f64 = 48.0;
    /// Minimum mean particles-per-cell for the **single-worker**
    /// cell-major streaming schedule of [`deposit_loop_matrix`]. It
    /// reads each particle row once (vs once per slot for the serial
    /// scatter and sorted segments), so it wins as soon as segments
    /// reach one tile; below that the per-cell accumulator set-up
    /// dominates. Measured in the same ablation sweep: at 8 ppc the
    /// streaming schedule already beats sorted segments ~1.7x on one
    /// thread, and ~4x at 256 ppc.
    pub const MX_SEQ_MIN_PPC: f64 = 8.0;
    /// Above this dirty fraction a rebuild-for-deposit is assumed not
    /// to pay for itself within one loop.
    pub const SORT_MAX_DIRTY: f64 = 0.5;
    /// Targets-per-thread below which thread-private scatter arrays
    /// stay cache-resident.
    pub const SA_MAX_TARGETS_PER_THREAD: usize = 1 << 16;

    pub fn new() -> Self {
        Self::default()
    }

    /// Decide a strategy for one deposit loop.
    pub fn choose(&mut self, input: TunerInput) -> TunerDecision {
        let ppc = input.mean_ppc();
        let d = if input.threads <= 1 {
            if input.index_fresh && ppc >= Self::MX_SEQ_MIN_PPC {
                // The one regime where a single thread leaves the
                // serial path: the cell-major streaming schedule reads
                // each particle row once instead of once per slot, so
                // it beats the serial scatter without any sort cost.
                TunerDecision {
                    method: DepositMethod::Matrix,
                    sort_first: false,
                    reason: format!("single thread, index fresh, mean ppc {ppc:.1}: matrix tiles"),
                }
            } else {
                TunerDecision {
                    method: DepositMethod::Serial,
                    sort_first: false,
                    reason: "single thread: serial reference path".into(),
                }
            }
        } else if input.index_fresh && ppc >= Self::MX_MIN_PPC {
            TunerDecision {
                method: DepositMethod::Matrix,
                sort_first: false,
                reason: format!("index fresh, mean ppc {ppc:.1}: matrix tiles"),
            }
        } else if input.index_fresh && ppc >= Self::MX_SEQ_MIN_PPC {
            // With the index already fresh there is no sort to
            // amortise, only the inverse-map walk — segments pay off
            // from about one tile per cell (SS_MIN_PPC gates the
            // sort-first branch below instead).
            TunerDecision {
                method: DepositMethod::SortedSegments,
                sort_first: false,
                reason: format!("index fresh, mean ppc {ppc:.1}: sorted segments"),
            }
        } else if ppc >= Self::MX_MIN_PPC && input.dirty_fraction <= Self::SORT_MAX_DIRTY {
            TunerDecision {
                method: DepositMethod::Matrix,
                sort_first: true,
                reason: format!(
                    "mean ppc {ppc:.1}, dirty {:.0}%: sort then matrix tiles",
                    input.dirty_fraction * 100.0
                ),
            }
        } else if ppc >= Self::SS_MIN_PPC && input.dirty_fraction <= Self::SORT_MAX_DIRTY {
            TunerDecision {
                method: DepositMethod::SortedSegments,
                sort_first: true,
                reason: format!(
                    "mean ppc {ppc:.1}, dirty {:.0}%: sort then sorted segments",
                    input.dirty_fraction * 100.0
                ),
            }
        } else if input.n_targets <= Self::SA_MAX_TARGETS_PER_THREAD * input.threads {
            TunerDecision {
                method: DepositMethod::ScatterArrays,
                sort_first: false,
                reason: format!(
                    "{} targets fit thread-private copies: scatter arrays",
                    input.n_targets
                ),
            }
        } else {
            TunerDecision {
                method: DepositMethod::Atomics,
                sort_first: false,
                reason: format!(
                    "sparse ({ppc:.1} ppc) and {} targets too large to scatter: atomics",
                    input.n_targets
                ),
            }
        };
        self.decisions.push(d.clone());
        crate::telemetry::count("tuner.decisions", 1);
        d
    }

    /// All decisions taken so far, oldest first.
    pub fn decisions(&self) -> &[TunerDecision] {
        &self.decisions
    }

    /// The most recent decision.
    pub fn last(&self) -> Option<&TunerDecision> {
        self.decisions.last()
    }
}

/// Figure 2(b): per-thread private arrays over `t` contiguous index
/// ranges, then an element-wise reduction over the target.
fn scatter_arrays<F>(policy: &ExecPolicy, n: usize, target: &mut [f64], kernel: &F)
where
    F: Fn(usize, &mut Depositor) + Sync,
{
    let t = if n == 0 { 1 } else { policy.threads().max(1) };
    let chunk = n.div_ceil(t);
    let pieces: Vec<std::ops::Range<usize>> = (0..t)
        .map(|ti| ti * chunk..((ti + 1) * chunk).min(n))
        .collect();
    scatter_pieces(policy, pieces, target, |range, dep, _: &mut ()| {
        for i in range {
            kernel(i, dep);
        }
    });
}

/// Per-piece tallies of a [`scatter_pieces`] loop (counts, maxima,
/// histogram snapshots): each piece fills its own, and the tallies are
/// merged in piece order once every piece is done.
pub trait Tally: Default + Send {
    fn merge(&mut self, other: Self);
}

impl Tally for () {
    fn merge(&mut self, _other: ()) {}
}

/// A plain counter.
impl Tally for u64 {
    fn merge(&mut self, other: u64) {
        *self += other;
    }
}

/// The scatter-array strategy (Figure 2(b)) as a driver over
/// caller-cut pieces of work: `body(piece, depositor, tally)` runs
/// once per piece, and the merged tally is returned.
///
/// * One piece runs on the calling thread and writes
///   [`Depositor::Exclusive`]ly into `target`, so its increments land
///   in iteration order — the left fold of a plain serial loop.
/// * Several pieces each fill a private zeroed array on the policy's
///   workers. The arrays are reduced element-wise into `target` in
///   piece order, and the tallies merged in piece order, so the result
///   depends on how the caller cut the pieces, never on the thread
///   schedule.
///
/// [`deposit_loop`]'s `ScatterArrays` and the executor's fused-mover
/// form ([`crate::par_loop_scatter`]) share this one race story.
pub fn scatter_pieces<W, T, F>(
    policy: &ExecPolicy,
    pieces: Vec<W>,
    target: &mut [f64],
    body: F,
) -> T
where
    W: Send,
    T: Tally,
    F: Fn(W, &mut Depositor, &mut T) + Sync,
{
    let mut tally = T::default();
    if pieces.len() <= 1 {
        let mut dep = Depositor::Exclusive(target);
        for piece in pieces {
            body(piece, &mut dep, &mut tally);
        }
        return tally;
    }
    let len = target.len();
    let (locals, tallies): (Vec<Vec<f64>>, Vec<T>) = dispatch(policy, pieces, |piece| {
        let mut local = vec![0.0; len];
        let mut t = T::default();
        body(piece, &mut Depositor::Local(&mut local), &mut t);
        (local, t)
    })
    .into_iter()
    .unzip();
    // "Finally, the array entries can be reduced to get the total
    // contribution to that node."
    policy.run(|| {
        target.par_iter_mut().enumerate().for_each(|(j, tj)| {
            let mut acc = *tj;
            for l in &locals {
                acc += l[j];
            }
            *tj = acc;
        });
    });
    for t in tallies {
        tally.merge(t);
    }
    tally
}

/// Figure 3: store values and keys → sort by key → reduce by key.
/// Pairs with equal keys are additionally ordered by value bits so the
/// reduction order — and therefore the floating-point result — is
/// deterministic regardless of thread schedule.
fn segmented_reduction<F>(
    policy: &ExecPolicy,
    n: usize,
    target: &mut [f64],
    kernel: &F,
) -> DepositStats
where
    F: Fn(usize, &mut Depositor) + Sync,
{
    // Step 1: store_values_and_keys.
    let mut pairs: Vec<(u32, f64)> = if policy.is_parallel() {
        (0..n)
            .into_par_iter()
            .fold(Vec::new, |mut buf, i| {
                let mut dep = Depositor::Pairs(&mut buf);
                kernel(i, &mut dep);
                buf
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            })
    } else {
        let mut buf = Vec::new();
        let mut dep = Depositor::Pairs(&mut buf);
        for i in 0..n {
            kernel(i, &mut dep);
        }
        buf
    };

    let staged = pairs.len();

    // Step 2: sort_by_key (key, then value bits for determinism).
    pairs.par_sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| total_order_bits(a.1).cmp(&total_order_bits(b.1)))
    });

    // Step 3: reduce_by_key + scatter.
    let mut segments = 0usize;
    let mut k = 0;
    while k < pairs.len() {
        let key = pairs[k].0;
        let mut acc = 0.0;
        while k < pairs.len() && pairs[k].0 == key {
            acc += pairs[k].1;
            k += 1;
        }
        target[key as usize] += acc;
        segments += 1;
    }

    DepositStats {
        pairs_staged: staged,
        segments,
    }
}

/// Map an `f64` to a totally ordered integer (IEEE-754 total order
/// trick): flips the sign bit for positives and all bits for negatives.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

// ---------------------------------------------------------------------
// Coloring — the paper's third CPU option (Section 3.3): "Coloring is
// another option on CPUs, but require particle arrays to be kept
// sorted, introducing an overhead."
// ---------------------------------------------------------------------

/// Greedy distance-2 coloring of cells over a shared-target relation:
/// two cells get different colors whenever they touch a common target
/// (e.g. share a node through the cells→nodes map). Cells of one color
/// can then deposit concurrently without synchronisation.
///
/// Returns `(color per cell, number of colors)`.
pub fn greedy_color_cells<C: AsRef<[usize]>>(
    cell_targets: &[C],
    n_targets: usize,
) -> (Vec<u32>, usize) {
    // target -> cells touching it.
    let mut t2c: Vec<Vec<u32>> = vec![Vec::new(); n_targets];
    for (c, ts) in cell_targets.iter().enumerate() {
        for &t in ts.as_ref() {
            t2c[t].push(c as u32);
        }
    }
    let n_cells = cell_targets.len();
    let mut color = vec![u32::MAX; n_cells];
    let mut used: Vec<bool> = Vec::new();
    let mut max_color = 0u32;
    for c in 0..n_cells {
        used.clear();
        used.resize(max_color as usize + 2, false);
        for &t in cell_targets[c].as_ref() {
            for &other in &t2c[t] {
                let oc = color[other as usize];
                if oc != u32::MAX {
                    if oc as usize >= used.len() {
                        used.resize(oc as usize + 1, false);
                    }
                    used[oc as usize] = true;
                }
            }
        }
        let chosen = used.iter().position(|&u| !u).unwrap_or(used.len()) as u32;
        color[c] = chosen;
        max_color = max_color.max(chosen);
    }
    (color, max_color as usize + 1)
}

/// Check that a coloring is valid for a shared-target relation: no two
/// cells with the same color touch a common target.
pub fn coloring_is_valid<C: AsRef<[usize]>>(
    cell_targets: &[C],
    n_targets: usize,
    colors: &[u32],
) -> bool {
    let mut owner: Vec<std::collections::HashMap<u32, u32>> = vec![Default::default(); n_targets];
    for (c, ts) in cell_targets.iter().enumerate() {
        for &t in ts.as_ref() {
            if let Some(&other) = owner[t].get(&colors[c]) {
                if other as usize != c {
                    return false;
                }
            }
            owner[t].insert(colors[c], c as u32);
        }
    }
    true
}

/// Colored deposit over particles **sorted by cell**: colors execute
/// sequentially; within a color, cells run in parallel and their
/// particles deposit without any race handling (the coloring guarantees
/// disjoint targets). Returns an error when the particle array is not
/// cell-sorted — the invariant the paper calls the method's overhead.
///
/// Contract: the kernel for particle `i` must only emit indices that
/// belong to the target list of `particle_cells[i]`'s cell under the
/// relation the coloring was built from (e.g. the cell's nodes) —
/// that is what makes same-color cells race-free.
pub fn deposit_loop_colored<F>(
    policy: &ExecPolicy,
    target: &mut [f64],
    particle_cells: &[i32],
    cell_colors: &[u32],
    n_colors: usize,
    kernel: F,
) -> Result<(), String>
where
    F: Fn(usize, &mut Depositor) + Sync,
{
    if particle_cells.windows(2).any(|w| w[0] > w[1]) {
        return Err("coloring deposit requires particles sorted by cell".into());
    }
    // Per-cell contiguous particle ranges.
    let mut ranges: Vec<(usize, usize, usize)> = Vec::new(); // (cell, lo, hi)
    let mut i = 0;
    while i < particle_cells.len() {
        let c = particle_cells[i];
        let lo = i;
        while i < particle_cells.len() && particle_cells[i] == c {
            i += 1;
        }
        ranges.push((c as usize, lo, i));
    }

    // The coloring guarantees same-color cells touch disjoint targets,
    // so uncontended atomic adds never retry; the atomic view is just
    // the safe way to hand the buffer to concurrent tasks.
    let slots = as_atomic_slots(target);
    for color in 0..n_colors as u32 {
        let work: Vec<&(usize, usize, usize)> = ranges
            .iter()
            .filter(|(c, _, _)| cell_colors[*c] == color)
            .collect();
        policy.run(|| {
            if policy.is_parallel() {
                work.par_iter().for_each(|&&(_, lo, hi)| {
                    let mut dep = Depositor::Atomic {
                        slots,
                        ordering: Ordering::Relaxed,
                    };
                    for p in lo..hi {
                        kernel(p, &mut dep);
                    }
                });
            } else {
                let mut dep = Depositor::Atomic {
                    slots,
                    ordering: Ordering::Relaxed,
                };
                for &&(_, lo, hi) in &work {
                    for p in lo..hi {
                        kernel(p, &mut dep);
                    }
                }
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic charge-deposit workload: `n` particles, each adding
    /// to 4 "nodes" chosen by a hash, mimicking the cell→node scatter.
    fn run_method(method: DepositMethod, policy: &ExecPolicy, n: usize, len: usize) -> Vec<f64> {
        let mut target = vec![0.0; len];
        deposit_loop(policy, method, n, &mut target, |i, dep| {
            for k in 0..4usize {
                let idx = (i.wrapping_mul(2654435761).wrapping_add(k * 97)) % len;
                dep.add(idx, 1.0 + (i % 7) as f64 * 0.25);
            }
        });
        target
    }

    #[test]
    fn all_methods_agree_with_serial() {
        let n = 5000;
        let len = 64; // small target => heavy contention
        let reference = run_method(DepositMethod::Serial, &ExecPolicy::Seq, n, len);
        let total: f64 = reference.iter().sum();
        for method in DepositMethod::GENERIC {
            for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
                let got = run_method(method, &policy, n, len);
                let got_total: f64 = got.iter().sum();
                assert!(
                    (got_total - total).abs() < 1e-9 * total,
                    "{method:?}/{policy:?} total {got_total} vs {total}"
                );
                for (j, (a, b)) in got.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "{method:?}/{policy:?} slot {j}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn segmented_reduction_is_deterministic() {
        // Same workload, several runs under full parallelism: the f64
        // results must be bit-identical thanks to the total ordering of
        // values within a key segment.
        let runs: Vec<Vec<f64>> = (0..5)
            .map(|_| {
                run_method(
                    DepositMethod::SegmentedReduction,
                    &ExecPolicy::Par,
                    20_000,
                    16,
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r, &runs[0], "SR must be schedule-independent");
        }
    }

    #[test]
    fn segmented_reduction_stats() {
        let mut target = vec![0.0; 8];
        let st = deposit_loop(
            &ExecPolicy::Seq,
            DepositMethod::SegmentedReduction,
            10,
            &mut target,
            |i, d| {
                d.add(i % 2, 1.0);
            },
        );
        assert_eq!(st.pairs_staged, 10);
        assert_eq!(st.segments, 2);
        assert_eq!(target[0], 5.0);
        assert_eq!(target[1], 5.0);
    }

    #[test]
    fn deposit_accumulates_onto_existing_values() {
        for method in DepositMethod::GENERIC {
            let mut target = vec![10.0, 20.0];
            deposit_loop(&ExecPolicy::Par, method, 4, &mut target, |i, d| {
                d.add(i % 2, 1.0);
            });
            assert_eq!(target, vec![12.0, 22.0], "{method:?}");
        }
    }

    #[test]
    fn extreme_contention_single_slot() {
        // Everybody hits slot 0 — the exact pathology the paper
        // observed serialising AMD atomics.
        for method in [
            DepositMethod::Atomics,
            DepositMethod::UnsafeAtomics,
            DepositMethod::SegmentedReduction,
            DepositMethod::ScatterArrays,
        ] {
            let mut target = vec![0.0];
            deposit_loop(&ExecPolicy::Par, method, 100_000, &mut target, |_, d| {
                d.add(0, 1.0)
            });
            assert_eq!(target[0], 100_000.0, "{method:?}");
        }
    }

    #[test]
    fn empty_loop_is_noop() {
        for method in DepositMethod::GENERIC {
            let mut target = vec![1.0, 2.0];
            deposit_loop(&ExecPolicy::Par, method, 0, &mut target, |_, d| {
                d.add(0, 9.9)
            });
            assert_eq!(target, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn total_order_bits_orders_floats() {
        let xs = [-2.5, -0.0, 0.0, 1.0, 3.5];
        for w in xs.windows(2) {
            assert!(total_order_bits(w[0]) <= total_order_bits(w[1]), "{w:?}");
        }
    }

    /// A toy "mesh": 6 cells in a row, each touching its two endpoint
    /// "nodes" (7 nodes); adjacent cells conflict.
    fn row_mesh() -> Vec<[usize; 2]> {
        (0..6).map(|c| [c, c + 1]).collect()
    }

    #[test]
    fn greedy_coloring_is_valid_and_small() {
        let mesh = row_mesh();
        let (colors, n_colors) = greedy_color_cells(&mesh, 7);
        assert!(coloring_is_valid(&mesh, 7, &colors), "{colors:?}");
        // A path graph is 2-colorable under the shared-node relation.
        assert_eq!(n_colors, 2, "{colors:?}");
        // And the validity checker catches a bad coloring.
        let bad = vec![0u32; 6];
        assert!(!coloring_is_valid(&mesh, 7, &bad));
    }

    #[test]
    fn colored_deposit_matches_serial() {
        let mesh = row_mesh();
        let (colors, n_colors) = greedy_color_cells(&mesh, 7);
        // 3 particles per cell, sorted by construction.
        let cells: Vec<i32> = (0..6).flat_map(|c| [c, c, c]).collect();
        let kernel = |i: usize, dep: &mut Depositor| {
            let c = i / 3;
            dep.add(mesh[c][0], 1.0);
            dep.add(mesh[c][1], 0.5);
        };
        let mut reference = vec![0.0; 7];
        deposit_loop(
            &ExecPolicy::Seq,
            DepositMethod::Serial,
            cells.len(),
            &mut reference,
            kernel,
        );
        for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut got = vec![0.0; 7];
            deposit_loop_colored(&policy, &mut got, &cells, &colors, n_colors, kernel).unwrap();
            assert_eq!(got, reference, "{policy:?}");
        }
    }

    #[test]
    fn colored_deposit_rejects_unsorted_particles() {
        let mesh = row_mesh();
        let (colors, n_colors) = greedy_color_cells(&mesh, 7);
        let cells = vec![2i32, 0, 1]; // not sorted
        let mut buf = vec![0.0; 7];
        let err = deposit_loop_colored(
            &ExecPolicy::Seq,
            &mut buf,
            &cells,
            &colors,
            n_colors,
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.contains("sorted"));
    }

    #[test]
    fn colored_deposit_heavy_agrees_under_parallelism() {
        // Denser conflict structure: 50 cells, 4 shared nodes each.
        let mesh: Vec<[usize; 4]> = (0..50).map(|c| [c, c + 1, c + 2, c + 3]).collect();
        let (colors, n_colors) = greedy_color_cells(&mesh, 53);
        assert!(coloring_is_valid(&mesh, 53, &colors));
        let cells: Vec<i32> = (0..50).flat_map(|c| std::iter::repeat_n(c, 40)).collect();
        let kernel = |i: usize, dep: &mut Depositor| {
            let c = i / 40;
            for (k, &node) in mesh[c].iter().enumerate() {
                dep.add(node, 1.0 + k as f64);
            }
        };
        let mut reference = vec![0.0; 53];
        deposit_loop(
            &ExecPolicy::Seq,
            DepositMethod::Serial,
            cells.len(),
            &mut reference,
            kernel,
        );
        let mut got = vec![0.0; 53];
        deposit_loop_colored(
            &ExecPolicy::Par,
            &mut got,
            &cells,
            &colors,
            n_colors,
            kernel,
        )
        .unwrap();
        for (a, b) in got.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn labels_match_paper_abbreviations() {
        assert_eq!(DepositMethod::Atomics.label(), "AT");
        assert_eq!(DepositMethod::UnsafeAtomics.label(), "UA");
        assert_eq!(DepositMethod::SegmentedReduction.label(), "SR");
        assert_eq!(DepositMethod::ScatterArrays.label(), "SA");
        assert_eq!(DepositMethod::SortedSegments.label(), "SS");
        assert_eq!(DepositMethod::Matrix.label(), "MX");
    }

    // ---- sorted segments -----------------------------------------------

    /// Cell-sorted synthetic population: `ppc(c)` particles per cell,
    /// returning (cell per particle, CSR offsets).
    fn sorted_population(n_cells: usize, ppc: impl Fn(usize) -> usize) -> (Vec<i32>, Vec<usize>) {
        let mut cells = Vec::new();
        let mut start = vec![0usize; n_cells + 1];
        for c in 0..n_cells {
            for _ in 0..ppc(c) {
                cells.push(c as i32);
            }
            start[c + 1] = cells.len();
        }
        (cells, start)
    }

    /// Pseudo-random but deterministic contribution of particle `p`
    /// through slot `s`.
    fn contribution(p: usize, s: usize) -> f64 {
        let h = (p as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(s as u64);
        0.1 + (h % 1000) as f64 * 1e-3
    }

    #[test]
    fn sorted_segments_bit_identical_to_serial_across_seeds() {
        // Duplicate targets within one cell (cell 2 lists node 3
        // twice) exercise the slots-within-particle fold order.
        let mesh: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 4],
            vec![3, 3, 5],
            vec![0, 5, 6],
            vec![2, 4, 6],
        ];
        let n_targets = 7;
        let inv = invert_cell_targets(&mesh, n_targets);
        for seed in 0..6usize {
            let (cells, start) = sorted_population(mesh.len(), |c| (c * 7 + seed * 3) % 23);
            let n = cells.len();
            // Serial reference through the generic scattering executor,
            // starting from nonzero values to check the fold base case.
            let init: Vec<f64> = (0..n_targets).map(|t| t as f64 * 0.5 - 1.0).collect();
            let mut reference = init.clone();
            deposit_loop(
                &ExecPolicy::Seq,
                DepositMethod::Serial,
                n,
                &mut reference,
                |p, dep| {
                    let c = cells[p] as usize;
                    for (s, &t) in mesh[c].iter().enumerate() {
                        dep.add(t, contribution(p, s));
                    }
                },
            );
            for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
                let mut got = init.clone();
                deposit_loop_sorted(&policy, &start, &inv, &mut got, contribution);
                assert_eq!(got, reference, "seed {seed} under {policy:?}");
            }
        }
    }

    #[test]
    fn sorted_segments_is_schedule_independent() {
        let mesh: Vec<[usize; 4]> = (0..64).map(|c| [c, c + 1, c + 2, c + 3]).collect();
        let inv = invert_cell_targets(&mesh, 67);
        let (_, start) = sorted_population(64, |c| 5 + c % 9);
        let runs: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let mut t = vec![0.0; 67];
                deposit_loop_sorted(&ExecPolicy::Par, &start, &inv, &mut t, contribution);
                t
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
    }

    #[test]
    #[should_panic(expected = "deposit_loop_sorted")]
    fn generic_executor_rejects_sorted_segments() {
        let mut target = vec![0.0; 4];
        deposit_loop(
            &ExecPolicy::Par,
            DepositMethod::SortedSegments,
            10,
            &mut target,
            |_, d| d.add(0, 1.0),
        );
    }

    // ---- matrixized tiles ----------------------------------------------

    #[test]
    fn matrix_exact_bit_identical_to_serial_across_seeds() {
        // Same degenerate mesh as the sorted-segments test: cell 2
        // reaches node 3 through two slots, forcing the degenerate-cell
        // fallbacks of both schedules (the cell-major serial replay on
        // one worker, the exact mode's scalar multi-slot replay on the
        // target-major parallel path).
        let mesh: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 4],
            vec![3, 3, 5],
            vec![0, 5, 6],
            vec![2, 4, 6],
        ];
        let n_targets = 7;
        let inv = invert_cell_targets(&mesh, n_targets);
        for seed in 0..6usize {
            // Segment lengths straddle the tile width to exercise
            // full tiles, tail tiles, and empty cells.
            let (cells, start) = sorted_population(mesh.len(), |c| (c * 13 + seed * 5) % 29);
            let n = cells.len();
            let init: Vec<f64> = (0..n_targets).map(|t| t as f64 * 0.5 - 1.0).collect();
            let mut reference = init.clone();
            deposit_loop(
                &ExecPolicy::Seq,
                DepositMethod::Serial,
                n,
                &mut reference,
                |p, dep| {
                    let c = cells[p] as usize;
                    for (s, &t) in mesh[c].iter().enumerate() {
                        dep.add(t, contribution(p, s));
                    }
                },
            );
            for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
                let mut got = init.clone();
                deposit_loop_matrix(
                    &policy,
                    &start,
                    &inv,
                    &mut got,
                    MatAccumulate::Exact,
                    contribution,
                );
                assert_eq!(got, reference, "seed {seed} under {policy:?}");

                // Fast mode reassociates the sum (lane tree) but must
                // agree to rounding and stay deterministic.
                let mut fast = init.clone();
                deposit_loop_matrix(
                    &policy,
                    &start,
                    &inv,
                    &mut fast,
                    MatAccumulate::Fast,
                    contribution,
                );
                for (t, (a, b)) in fast.iter().zip(&reference).enumerate() {
                    let tol = 1e-12 * b.abs().max(1.0);
                    assert!(
                        (a - b).abs() <= tol,
                        "seed {seed} target {t} under {policy:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_fast_is_schedule_independent() {
        let mesh: Vec<[usize; 4]> = (0..64).map(|c| [c, c + 1, c + 2, c + 3]).collect();
        let inv = invert_cell_targets(&mesh, 67);
        let (cells, start) = sorted_population(64, |c| 3 + c % 21);

        // Single-worker policies take the cell-major streaming
        // schedule, where Fast is bit-identical to Serial itself.
        let mut serial = vec![0.0; 67];
        deposit_loop(
            &ExecPolicy::Seq,
            DepositMethod::Serial,
            cells.len(),
            &mut serial,
            |p, dep| {
                let c = cells[p] as usize;
                for (s, &t) in mesh[c].iter().enumerate() {
                    dep.add(t, contribution(p, s));
                }
            },
        );
        let mut seq = vec![0.0; 67];
        deposit_loop_matrix(
            &ExecPolicy::Seq,
            &start,
            &inv,
            &mut seq,
            MatAccumulate::Fast,
            contribution,
        );
        assert_eq!(seq, serial, "single-worker Fast must match Serial bits");

        // Parallel policies use the target-major lane tree, which is
        // fixed per target: bitwise deterministic across repeated runs
        // and across worker counts.
        let reference = {
            let mut t = vec![0.0; 67];
            deposit_loop_matrix(
                &ExecPolicy::pool(2),
                &start,
                &inv,
                &mut t,
                MatAccumulate::Fast,
                contribution,
            );
            t
        };
        for _ in 0..3 {
            let mut t = vec![0.0; 67];
            deposit_loop_matrix(
                &ExecPolicy::Par,
                &start,
                &inv,
                &mut t,
                MatAccumulate::Fast,
                contribution,
            );
            assert_eq!(t, reference);
        }
    }

    #[test]
    fn mat_tile_masks_the_tail_lanes() {
        let tile = MatTile::pack(10, 13, |p| p as f64);
        assert_eq!(tile.len(), 3);
        assert_eq!(tile.lanes()[..3], [10.0, 11.0, 12.0]);
        assert_eq!(tile.lanes()[3..], [0.0; 5]);
        // Exact fold only touches live lanes; Fast adds the zeros.
        assert_eq!(tile.fold_exact(1.0), 34.0);
        let mut acc = [1.0; MAT_TILE_WIDTH];
        tile.accumulate(&mut acc);
        assert_eq!(MatTile::reduce(&acc), 33.0 + MAT_TILE_WIDTH as f64);
    }

    #[test]
    #[should_panic(expected = "deposit_loop_matrix")]
    fn generic_executor_rejects_matrix() {
        let mut target = vec![0.0; 4];
        deposit_loop(
            &ExecPolicy::Par,
            DepositMethod::Matrix,
            10,
            &mut target,
            |_, d| d.add(0, 1.0),
        );
    }

    #[test]
    fn gather_matrix_bit_identical_to_per_particle_loop() {
        let mesh: Vec<[usize; 4]> = (0..40).map(|c| [c, c + 1, c + 2, c + 3]).collect();
        let source: Vec<f64> = (0..43).map(|t| (t as f64 * 0.37).sin()).collect();
        let (cells, start) = sorted_population(40, |c| (c * 11) % 19);
        let shape = |p: usize, k: usize| contribution(p, k) - 0.5;
        // Per-particle reference: slots ascending, one dot per particle.
        let reference: Vec<f64> = cells
            .iter()
            .enumerate()
            .map(|(p, &c)| {
                let mut dot = 0.0;
                for (k, &t) in mesh[c as usize].iter().enumerate() {
                    dot += shape(p, k) * source[t];
                }
                dot
            })
            .collect();
        for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut got = vec![0.0; cells.len()];
            gather_loop_matrix(
                &policy,
                &start,
                4,
                |c, k| mesh[c][k],
                &source,
                &mut got,
                shape,
            );
            assert_eq!(got, reference, "{policy:?}");
        }
    }

    #[test]
    fn target_inverse_covers_the_relation() {
        let mesh: Vec<Vec<usize>> = vec![vec![0, 2], vec![2, 1], vec![1, 0]];
        let inv = invert_cell_targets(&mesh, 3);
        assert_eq!(inv.n_targets(), 3);
        assert_eq!(inv.entries_of(0), &[(0, 0), (2, 1)]);
        assert_eq!(inv.entries_of(1), &[(1, 1), (2, 0)]);
        assert_eq!(inv.entries_of(2), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn auto_tuner_heuristics() {
        let mut tuner = AutoTuner::new();
        let base = TunerInput {
            n_particles: 64_000,
            n_cells: 500,
            n_targets: 700,
            dirty_fraction: 0.0,
            index_fresh: true,
            threads: 8,
        };
        // Fresh index, dense (128 ppc ≥ MX_MIN_PPC): matrix tiles
        // without a sort.
        let d = tuner.choose(base);
        assert_eq!(d.method, DepositMethod::Matrix);
        assert!(!d.sort_first);

        // Fresh index, moderately dense (32 ppc — between SS_MIN_PPC
        // and MX_MIN_PPC): sorted segments, segments too short to fill
        // tiles.
        let d = tuner.choose(TunerInput {
            n_particles: 16_000,
            ..base
        });
        assert_eq!(d.method, DepositMethod::SortedSegments);
        assert!(!d.sort_first);

        // Stale but nearly sorted, dense: sort first, then matrix.
        let d = tuner.choose(TunerInput {
            index_fresh: false,
            dirty_fraction: 0.05,
            ..base
        });
        assert_eq!(d.method, DepositMethod::Matrix);
        assert!(d.sort_first);

        // Stale but nearly sorted, moderately dense: sort first, then
        // sorted segments.
        let d = tuner.choose(TunerInput {
            n_particles: 16_000,
            index_fresh: false,
            dirty_fraction: 0.05,
            ..base
        });
        assert_eq!(d.method, DepositMethod::SortedSegments);
        assert!(d.sort_first);

        // Too stale to re-sort per loop, small target: scatter arrays.
        let d = tuner.choose(TunerInput {
            index_fresh: false,
            dirty_fraction: 0.9,
            ..base
        });
        assert_eq!(d.method, DepositMethod::ScatterArrays);

        // Sparse population, huge target: atomics.
        let d = tuner.choose(TunerInput {
            n_particles: 4_000,
            n_cells: 4_000,
            n_targets: 60_000_000,
            dirty_fraction: 0.9,
            index_fresh: false,
            threads: 8,
        });
        assert_eq!(d.method, DepositMethod::Atomics);

        // One thread over a fresh dense index: the matrix fold is the
        // only strategy that beats the serial reference there.
        let d = tuner.choose(TunerInput { threads: 1, ..base });
        assert_eq!(d.method, DepositMethod::Matrix);
        assert!(!d.sort_first);

        // One thread, fresh index, short segments (8 ppc): the
        // cell-major streaming schedule already pays at one tile per
        // segment (MX_SEQ_MIN_PPC), well below the parallel threshold.
        let d = tuner.choose(TunerInput {
            n_particles: 4_000,
            threads: 1,
            ..base
        });
        assert_eq!(d.method, DepositMethod::Matrix);
        assert!(!d.sort_first);

        // One thread, fresh index, sub-tile segments: serial.
        let d = tuner.choose(TunerInput {
            n_particles: 2_000,
            threads: 1,
            ..base
        });
        assert_eq!(d.method, DepositMethod::Serial);

        // One thread, stale index: serial — a sort never pays off
        // within the loop.
        let d = tuner.choose(TunerInput {
            threads: 1,
            index_fresh: false,
            dirty_fraction: 0.05,
            ..base
        });
        assert_eq!(d.method, DepositMethod::Serial);

        assert_eq!(tuner.decisions().len(), 10);
        assert_eq!(tuner.last().unwrap().method, DepositMethod::Serial);
        assert!(!tuner.last().unwrap().reason.is_empty());
    }
}
