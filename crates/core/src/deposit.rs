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
//! The CPU's other option, **colouring**, runs through
//! [`deposit_loop_colored`]: it needs the particles sorted by cell, the
//! overhead the paper names.
//!
//! All scattering strategies are exposed through one executor,
//! [`deposit_loop`]. The kernel computes and the executor increments:
//! the kernel returns particle `i`'s `K` contributions as
//! `([usize; K], [f64; K])` (target indices, values), with `K` a
//! compile-time constant, and each strategy applies them in its own
//! loop. Every strategy computes the same sums (up to floating-point
//! associativity; segmented reduction is made *deterministic* by
//! totally ordering equal keys by value bits before reducing).
//! [`AutoTuner`] picks a method per loop from runtime stats (thread
//! count and target count).

use crate::parloop::{dispatch, ranges, ExecPolicy};
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
}

impl DepositMethod {
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
        }
    }

    /// The telemetry counter a deposit loop of this method bumps:
    /// `deposit.method.<label>`.
    pub fn counter(self) -> &'static str {
        match self {
            DepositMethod::Serial => "deposit.method.SEQ",
            DepositMethod::ScatterArrays => "deposit.method.SA",
            DepositMethod::Atomics => "deposit.method.AT",
            DepositMethod::UnsafeAtomics => "deposit.method.UA",
            DepositMethod::SegmentedReduction => "deposit.method.SR",
        }
    }
}

/// One particle's contributions: `target[idx[k]] += v[k]` for each `k`.
pub type Contributions<const K: usize> = ([usize; K], [f64; K]);

/// Apply `contributions` to `target`, slots in order.
#[inline]
fn add_into<const K: usize>(target: &mut [f64], (idx, v): Contributions<K>) {
    for k in 0..K {
        target[idx[k]] += v[k];
    }
}

/// Apply `contributions` through atomic slots, slots in order.
#[inline]
fn add_atomic<const K: usize>(slots: &[AtomicU64], (idx, v): Contributions<K>, ordering: Ordering) {
    for k in 0..K {
        atomic_add_f64(&slots[idx[k]], v[k], ordering);
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

/// Run an indirect-increment loop over `n` iterations, accumulating
/// into `target` (a flat `len*dim` f64 buffer) with the chosen
/// strategy. The kernel is invoked once per iteration index and
/// returns that iteration's `K` contributions; `Serial` and
/// `ScatterArrays` add them in iteration order, then slot order.
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
///     |i| ([i % 4], [1.0]),
/// );
/// assert_eq!(node_charge, vec![250.0; 4]);
/// ```
pub fn deposit_loop<const K: usize, F>(
    policy: &ExecPolicy,
    method: DepositMethod,
    n: usize,
    target: &mut [f64],
    kernel: F,
) where
    F: Fn(usize) -> Contributions<K> + Sync,
{
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("deposit.loops", 1);
        t.counter_add(method.counter(), 1);
    }
    match method {
        DepositMethod::Serial => {
            for i in 0..n {
                add_into(target, kernel(i));
            }
        }
        DepositMethod::ScatterArrays => scatter_arrays(policy, n, target, &kernel),
        DepositMethod::Atomics | DepositMethod::UnsafeAtomics => {
            let ordering = if method == DepositMethod::Atomics {
                Ordering::SeqCst
            } else {
                Ordering::Relaxed
            };
            let slots = as_atomic_slots(target);
            dispatch(ranges(policy, n), |range| {
                for i in range {
                    add_atomic(slots, kernel(i), ordering);
                }
            });
        }
        DepositMethod::SegmentedReduction => segmented_reduction(policy, n, target, &kernel),
    }
}

// ---------------------------------------------------------------------
// Adaptive strategy selection.
// ---------------------------------------------------------------------

/// Runtime stats the auto-tuner decides from.
#[derive(Debug, Clone, Copy)]
pub struct TunerInput {
    pub n_targets: usize,
    /// `ExecPolicy::threads` for the loop's policy.
    pub threads: usize,
}

/// One auto-tuner verdict: the method to run.
#[derive(Debug, Clone)]
pub struct TunerDecision {
    pub method: DepositMethod,
    /// One-line rationale, traced to the telemetry hub by callers.
    pub reason: String,
}

/// Picks a deposit strategy per loop from runtime statistics, following
/// the sweep `ablation_deposit_strategies` records in
/// `results/BENCH_ablation_deposit_matrix.json`. A single worker runs
/// the serial reference. In parallel, thread-private scatter arrays
/// beat atomics at every recorded density, so they are picked whenever
/// the private copies stay cache-sized
/// ([`AutoTuner::SA_MAX_TARGETS_PER_THREAD`]); larger targets fall back
/// to atomics.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    decisions: Vec<TunerDecision>,
}

impl AutoTuner {
    /// Targets-per-thread below which thread-private scatter arrays
    /// stay cache-resident.
    pub const SA_MAX_TARGETS_PER_THREAD: usize = 1 << 16;

    pub fn new() -> Self {
        Self::default()
    }

    /// Decide a strategy for one deposit loop.
    pub fn choose(&mut self, input: TunerInput) -> TunerDecision {
        let (method, reason) = if input.threads <= 1 {
            (
                DepositMethod::Serial,
                "single thread: serial reference path".into(),
            )
        } else if input.n_targets <= Self::SA_MAX_TARGETS_PER_THREAD * input.threads {
            (
                DepositMethod::ScatterArrays,
                format!(
                    "{} targets fit thread-private copies: scatter arrays",
                    input.n_targets
                ),
            )
        } else {
            (
                DepositMethod::Atomics,
                format!("{} targets too large to scatter: atomics", input.n_targets),
            )
        };
        let d = TunerDecision { method, reason };
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

/// Figure 2(b): per-thread private arrays over the contiguous index
/// ranges of a range cut, then an element-wise reduction over the
/// target.
fn scatter_arrays<const K: usize, F>(policy: &ExecPolicy, n: usize, target: &mut [f64], kernel: &F)
where
    F: Fn(usize) -> Contributions<K> + Sync,
{
    scatter_pieces(
        policy,
        ranges(policy, n),
        target,
        |range, acc, _: &mut ()| {
            for i in range {
                add_into(acc, kernel(i));
            }
        },
    );
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
/// caller-cut pieces of work: `body(piece, array, tally)` runs once per
/// piece, and the merged tally is returned.
///
/// * One piece runs on the calling thread with `target` itself as its
///   array, so its increments land in iteration order — the left fold
///   of a plain serial loop.
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
    F: Fn(W, &mut [f64], &mut T) + Sync,
{
    let mut tally = T::default();
    if pieces.len() <= 1 {
        for piece in pieces {
            body(piece, target, &mut tally);
        }
        return tally;
    }
    let len = target.len();
    let (locals, tallies): (Vec<Vec<f64>>, Vec<T>) = dispatch(pieces, |piece| {
        let mut local = vec![0.0; len];
        let mut t = T::default();
        body(piece, &mut local, &mut t);
        (local, t)
    })
    .into_iter()
    .unzip();
    // "Finally, the array entries can be reduced to get the total
    // contribution to that node": element-wise, over disjoint windows
    // of the target.
    let mut rest = target;
    let windows: Vec<(usize, &mut [f64])> = ranges(policy, len)
        .into_iter()
        .map(|range| {
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            (range.start, window)
        })
        .collect();
    dispatch(windows, |(first, window)| {
        for (j, tj) in (first..).zip(window) {
            let mut acc = *tj;
            for l in &locals {
                acc += l[j];
            }
            *tj = acc;
        }
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
fn segmented_reduction<const K: usize, F>(
    policy: &ExecPolicy,
    n: usize,
    target: &mut [f64],
    kernel: &F,
) where
    F: Fn(usize) -> Contributions<K> + Sync,
{
    let store = |buf: &mut Vec<(u32, f64)>, i: usize| {
        let (idx, v) = kernel(i);
        buf.extend(idx.into_iter().zip(v).map(|(t, v)| (t as u32, v)));
    };
    // Step 1: store_values_and_keys, one buffer per piece, joined in
    // piece order.
    let mut pairs: Vec<(u32, f64)> = dispatch(ranges(policy, n), |range| {
        let mut buf = Vec::new();
        for i in range {
            store(&mut buf, i);
        }
        buf
    })
    .concat();

    // Step 2: sort_by_key (key, then value bits for determinism).
    pairs.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| total_order_bits(a.1).cmp(&total_order_bits(b.1)))
    });

    // Step 3: reduce_by_key + scatter.
    let mut k = 0;
    while k < pairs.len() {
        let key = pairs[k].0;
        let mut acc = 0.0;
        while k < pairs.len() && pairs[k].0 == key {
            acc += pairs[k].1;
            k += 1;
        }
        target[key as usize] += acc;
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
/// Contract: the kernel for particle `i` must only return indices that
/// belong to the target list of `particle_cells[i]`'s cell under the
/// relation the coloring was built from (e.g. the cell's nodes) —
/// that is what makes same-color cells race-free.
pub fn deposit_loop_colored<const K: usize, F>(
    policy: &ExecPolicy,
    target: &mut [f64],
    particle_cells: &[i32],
    cell_colors: &[u32],
    n_colors: usize,
    kernel: F,
) -> Result<(), String>
where
    F: Fn(usize) -> Contributions<K> + Sync,
{
    if particle_cells.windows(2).any(|w| w[0] > w[1]) {
        return Err("coloring deposit requires particles sorted by cell".into());
    }
    // Per-cell contiguous particle ranges.
    let mut cells: Vec<(usize, usize, usize)> = Vec::new(); // (cell, lo, hi)
    let mut i = 0;
    while i < particle_cells.len() {
        let c = particle_cells[i];
        let lo = i;
        while i < particle_cells.len() && particle_cells[i] == c {
            i += 1;
        }
        cells.push((c as usize, lo, i));
    }

    // The coloring guarantees same-color cells touch disjoint targets,
    // so uncontended atomic adds never retry; the atomic view is just
    // the safe way to hand the buffer to concurrent tasks.
    let slots = as_atomic_slots(target);
    for color in 0..n_colors as u32 {
        let work: Vec<(usize, usize)> = cells
            .iter()
            .filter(|(c, _, _)| cell_colors[*c] == color)
            .map(|&(_, lo, hi)| (lo, hi))
            .collect();
        dispatch(ranges(policy, work.len()), |range| {
            for &(lo, hi) in &work[range] {
                for p in lo..hi {
                    add_atomic(slots, kernel(p), Ordering::Relaxed);
                }
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const METHODS: [DepositMethod; 5] = [
        DepositMethod::Serial,
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
        DepositMethod::UnsafeAtomics,
        DepositMethod::SegmentedReduction,
    ];

    /// A synthetic charge-deposit workload: `n` particles, each adding
    /// to 4 "nodes" chosen by a hash, mimicking the cell→node scatter.
    fn run_method(method: DepositMethod, policy: &ExecPolicy, n: usize, len: usize) -> Vec<f64> {
        let mut target = vec![0.0; len];
        deposit_loop(policy, method, n, &mut target, |i| {
            let idx = |k: usize| (i.wrapping_mul(2654435761).wrapping_add(k * 97)) % len;
            (
                [idx(0), idx(1), idx(2), idx(3)],
                [1.0 + (i % 7) as f64 * 0.25; 4],
            )
        });
        target
    }

    #[test]
    fn all_methods_agree_with_serial() {
        let n = 5000;
        let len = 64; // small target => heavy contention
        let reference = run_method(DepositMethod::Serial, &ExecPolicy::Seq, n, len);
        let total: f64 = reference.iter().sum();
        for method in METHODS {
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
    fn deposit_accumulates_onto_existing_values() {
        for method in METHODS {
            let mut target = vec![10.0, 20.0];
            deposit_loop(&ExecPolicy::Par, method, 4, &mut target, |i| {
                ([i % 2], [1.0])
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
            deposit_loop(&ExecPolicy::Par, method, 100_000, &mut target, |_| {
                ([0], [1.0])
            });
            assert_eq!(target[0], 100_000.0, "{method:?}");
        }
    }

    #[test]
    fn empty_loop_is_noop() {
        for method in METHODS {
            let mut target = vec![1.0, 2.0];
            deposit_loop(&ExecPolicy::Par, method, 0, &mut target, |_| ([0], [9.9]));
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
        let kernel = |i: usize| (mesh[i / 3], [1.0, 0.5]);
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
            |_| ([0], [0.0]),
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
        let kernel = |i: usize| (mesh[i / 40], [1.0, 2.0, 3.0, 4.0]);
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
        for method in METHODS {
            assert_eq!(
                method.counter(),
                format!("deposit.method.{}", method.label()),
                "DESIGN §6 documents the counters as deposit.method.<label>"
            );
        }
    }

    #[test]
    fn auto_tuner_heuristics() {
        let mut tuner = AutoTuner::new();
        // Small target on several threads: scatter arrays.
        let d = tuner.choose(TunerInput {
            n_targets: 700,
            threads: 8,
        });
        assert_eq!(d.method, DepositMethod::ScatterArrays);

        // Huge target: atomics.
        let d = tuner.choose(TunerInput {
            n_targets: 60_000_000,
            threads: 8,
        });
        assert_eq!(d.method, DepositMethod::Atomics);

        // One thread: the serial reference, whatever the target.
        for n_targets in [700, 60_000_000] {
            let d = tuner.choose(TunerInput {
                n_targets,
                threads: 1,
            });
            assert_eq!(d.method, DepositMethod::Serial);
        }

        assert_eq!(tuner.decisions().len(), 4);
        assert_eq!(tuner.last().unwrap().method, DepositMethod::Serial);
        assert!(!tuner.last().unwrap().reason.is_empty());
    }
}
