//! Direct parallel-loop executors — `opp_par_loop` over a set where
//! every *written* argument is declared on the iteration set itself.
//!
//! These loops are the embarrassingly parallel case: element `i` owns
//! slice `[i*dim, (i+1)*dim)` of each written dat, so the executors
//! hand each iteration disjoint `&mut [f64]` windows via rayon's
//! `par_chunks_mut` zips. Read-only data (direct or gathered through
//! maps) is captured by the kernel closure — `&Dat` is `Sync`, so this
//! is race-free by construction, with no `unsafe` anywhere.
//!
//! This is precisely what the paper's generated OpenMP backend does
//! with `#pragma omp parallel for` over the set, and what the
//! sequential backend does with a plain loop.

use crate::binding::ThreadBinding;
use crate::dat::Dat;
use crate::deposit::{scatter_pieces, Depositor, Tally};
use rayon::prelude::*;
use std::sync::Arc;

/// Execution policy: the "backend" selector.
///
/// * [`ExecPolicy::Seq`] — the paper's `seq` backend (a plain loop).
/// * [`ExecPolicy::Par`] — the OpenMP-analogue backend on the global
///   rayon pool.
/// * [`ExecPolicy::pool`] — same, on a dedicated pool with a fixed
///   thread count (used by the scaling benches).
#[derive(Clone, Default)]
pub enum ExecPolicy {
    Seq,
    #[default]
    Par,
    Pool(Arc<rayon::ThreadPool>),
}

impl std::fmt::Debug for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Seq => write!(f, "ExecPolicy::Seq"),
            ExecPolicy::Par => write!(f, "ExecPolicy::Par"),
            ExecPolicy::Pool(p) => {
                write!(f, "ExecPolicy::Pool({} threads)", p.current_num_threads())
            }
        }
    }
}

impl ExecPolicy {
    /// A dedicated pool with exactly `n` threads.
    pub fn pool(n: usize) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("failed to build rayon pool");
        ExecPolicy::Pool(Arc::new(pool))
    }

    /// Is any thread-level parallelism in play?
    pub fn is_parallel(&self) -> bool {
        !matches!(self, ExecPolicy::Seq)
    }

    /// Number of worker threads this policy runs on.
    pub fn threads(&self) -> usize {
        match self {
            ExecPolicy::Seq => 1,
            ExecPolicy::Par => rayon::current_num_threads(),
            ExecPolicy::Pool(p) => p.current_num_threads(),
        }
    }

    /// Run `f` in this policy's execution context (inside the dedicated
    /// pool if there is one), so that nested rayon calls use the right
    /// worker set.
    #[inline]
    pub fn run<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self {
            ExecPolicy::Pool(p) => p.install(f),
            _ => f(),
        }
    }
}

/// Telemetry hook shared by every executor in this module: one loop
/// invocation, `bytes` of writable data handed to kernels. A no-op
/// costing one thread-local read when no telemetry is current.
fn note_loop(bytes: usize) {
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("parloop.invocations", 1);
        t.counter_add("parloop.bytes_touched", bytes as u64);
    }
}

/// Loop over `n` elements writing one dat.
///
/// `kernel(i, w0)` receives the element index and the element's
/// mutable window of `w0`.
pub fn par_loop_direct1<F>(policy: &ExecPolicy, w0: &mut Dat, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let d0 = w0.dim();
    note_loop(w0.len() * d0 * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, c0) in w0.raw_mut().chunks_mut(d0).enumerate() {
                f(i, c0);
            }
        }
        _ => policy.run(|| {
            w0.raw_mut()
                .par_chunks_mut(d0)
                .enumerate()
                .for_each(|(i, c0)| f(i, c0));
        }),
    }
}

/// Loop over `n` elements writing two dats (they must be declared on
/// the same set — checked by length).
pub fn par_loop_direct2<F>(policy: &ExecPolicy, w0: &mut Dat, w1: &mut Dat, f: F)
where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        w0.len(),
        w1.len(),
        "direct loop dats must share the iteration set"
    );
    let (d0, d1) = (w0.dim(), w1.dim());
    note_loop((w0.len() * d0 + w1.len() * d1) * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, (c0, c1)) in w0
                .raw_mut()
                .chunks_mut(d0)
                .zip(w1.raw_mut().chunks_mut(d1))
                .enumerate()
            {
                f(i, c0, c1);
            }
        }
        _ => policy.run(|| {
            w0.raw_mut()
                .par_chunks_mut(d0)
                .zip(w1.raw_mut().par_chunks_mut(d1))
                .enumerate()
                .for_each(|(i, (c0, c1))| f(i, c0, c1));
        }),
    }
}

/// Loop over `n` elements writing three dats.
pub fn par_loop_direct3<F>(policy: &ExecPolicy, w0: &mut Dat, w1: &mut Dat, w2: &mut Dat, f: F)
where
    F: Fn(usize, &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        w0.len(),
        w1.len(),
        "direct loop dats must share the iteration set"
    );
    assert_eq!(
        w0.len(),
        w2.len(),
        "direct loop dats must share the iteration set"
    );
    let (d0, d1, d2) = (w0.dim(), w1.dim(), w2.dim());
    note_loop((w0.len() * d0 + w1.len() * d1 + w2.len() * d2) * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, ((c0, c1), c2)) in w0
                .raw_mut()
                .chunks_mut(d0)
                .zip(w1.raw_mut().chunks_mut(d1))
                .zip(w2.raw_mut().chunks_mut(d2))
                .enumerate()
            {
                f(i, c0, c1, c2);
            }
        }
        _ => policy.run(|| {
            w0.raw_mut()
                .par_chunks_mut(d0)
                .zip(w1.raw_mut().par_chunks_mut(d1))
                .zip(w2.raw_mut().par_chunks_mut(d2))
                .enumerate()
                .for_each(|(i, ((c0, c1), c2))| f(i, c0, c1, c2));
        }),
    }
}

/// Loop over `n` elements writing four dats.
pub fn par_loop_direct4<F>(
    policy: &ExecPolicy,
    w0: &mut Dat,
    w1: &mut Dat,
    w2: &mut Dat,
    w3: &mut Dat,
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        w0.len(),
        w1.len(),
        "direct loop dats must share the iteration set"
    );
    assert_eq!(
        w0.len(),
        w2.len(),
        "direct loop dats must share the iteration set"
    );
    assert_eq!(
        w0.len(),
        w3.len(),
        "direct loop dats must share the iteration set"
    );
    let (d0, d1, d2, d3) = (w0.dim(), w1.dim(), w2.dim(), w3.dim());
    note_loop((w0.len() * d0 + w1.len() * d1 + w2.len() * d2 + w3.len() * d3) * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, (((c0, c1), c2), c3)) in w0
                .raw_mut()
                .chunks_mut(d0)
                .zip(w1.raw_mut().chunks_mut(d1))
                .zip(w2.raw_mut().chunks_mut(d2))
                .zip(w3.raw_mut().chunks_mut(d3))
                .enumerate()
            {
                f(i, c0, c1, c2, c3);
            }
        }
        _ => policy.run(|| {
            w0.raw_mut()
                .par_chunks_mut(d0)
                .zip(w1.raw_mut().par_chunks_mut(d1))
                .zip(w2.raw_mut().par_chunks_mut(d2))
                .zip(w3.raw_mut().par_chunks_mut(d3))
                .enumerate()
                .for_each(|(i, (((c0, c1), c2), c3))| f(i, c0, c1, c2, c3));
        }),
    }
}

/// Slice-based variant of [`par_loop_direct1`]: iterate a flat
/// `len*dim` buffer (particle columns are stored this way inside
/// [`crate::particles::ParticleDats`]).
pub fn par_loop_slices1<F>(policy: &ExecPolicy, dim0: usize, s0: &mut [f64], f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    note_loop(s0.len() * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, c0) in s0.chunks_mut(dim0).enumerate() {
                f(i, c0);
            }
        }
        _ => policy.run(|| {
            s0.par_chunks_mut(dim0)
                .enumerate()
                .for_each(|(i, c0)| f(i, c0));
        }),
    }
}

/// Slice-based two-column loop (e.g. the push kernel writing position
/// and velocity columns of the particle store).
pub fn par_loop_slices2<F>(
    policy: &ExecPolicy,
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        s0.len() / dim0,
        s1.len() / dim1,
        "slice loops must share the iteration set"
    );
    note_loop((s0.len() + s1.len()) * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, (c0, c1)) in s0.chunks_mut(dim0).zip(s1.chunks_mut(dim1)).enumerate() {
                f(i, c0, c1);
            }
        }
        _ => policy.run(|| {
            s0.par_chunks_mut(dim0)
                .zip(s1.par_chunks_mut(dim1))
                .enumerate()
                .for_each(|(i, (c0, c1))| f(i, c0, c1));
        }),
    }
}

/// Slice-based three-column loop.
pub fn par_loop_slices3<F>(
    policy: &ExecPolicy,
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    (dim2, s2): (usize, &mut [f64]),
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        s0.len() / dim0,
        s1.len() / dim1,
        "slice loops must share the iteration set"
    );
    assert_eq!(
        s0.len() / dim0,
        s2.len() / dim2,
        "slice loops must share the iteration set"
    );
    note_loop((s0.len() + s1.len() + s2.len()) * 8);
    match policy {
        ExecPolicy::Seq => {
            for (i, ((c0, c1), c2)) in s0
                .chunks_mut(dim0)
                .zip(s1.chunks_mut(dim1))
                .zip(s2.chunks_mut(dim2))
                .enumerate()
            {
                f(i, c0, c1, c2);
            }
        }
        _ => policy.run(|| {
            s0.par_chunks_mut(dim0)
                .zip(s1.par_chunks_mut(dim1))
                .zip(s2.par_chunks_mut(dim2))
                .enumerate()
                .for_each(|(i, ((c0, c1), c2))| f(i, c0, c1, c2));
        }),
    }
}

/// One window of a fused-mover loop: `(first particle, col-0 window,
/// col-1 window, cell-id window)`.
type Window2c<'a> = (usize, &'a mut [f64], &'a mut [f64], &'a mut [i32]);

/// Carve the two columns and the cell map into one window per span.
/// `spans` must tile `0..n` in ascending order.
fn carve2c<'a>(
    (dim0, s0): (usize, &'a mut [f64]),
    (dim1, s1): (usize, &'a mut [f64]),
    cells: &'a mut [i32],
    spans: &[(usize, usize)],
) -> Vec<Window2c<'a>> {
    let mut windows = Vec::with_capacity(spans.len());
    let (mut rest0, mut rest1, mut restc) = (s0, s1, cells);
    for &(lo, hi) in spans {
        let count = hi - lo;
        let (w0, r0) = rest0.split_at_mut(count * dim0);
        let (w1, r1) = rest1.split_at_mut(count * dim1);
        let (wc, rc) = restc.split_at_mut(count);
        rest0 = r0;
        rest1 = r1;
        restc = rc;
        windows.push((lo, w0, w1, wc));
    }
    windows
}

/// Run a fused-mover kernel over per-piece window lists through
/// [`scatter_pieces`] — the one race story of the slice and binding
/// executors.
fn scatter_windows2c<T, F>(
    policy: &ExecPolicy,
    (dim0, dim1): (usize, usize),
    pieces: Vec<Vec<Window2c<'_>>>,
    target: &mut [f64],
    f: F,
) -> T
where
    T: Tally,
    F: Fn(&mut Depositor, &mut T, usize, &mut [f64], &mut [f64], &mut i32) + Sync,
{
    scatter_pieces(policy, pieces, target, |windows, dep, tally: &mut T| {
        for (lo, w0, w1, wc) in windows {
            for (k, ((c0, c1), cl)) in w0
                .chunks_mut(dim0)
                .zip(w1.chunks_mut(dim1))
                .zip(wc.iter_mut())
                .enumerate()
            {
                f(dep, tally, lo + k, c0, c1, cl);
            }
        }
    })
}

/// Slice-based two-column loop that additionally hands each iteration
/// its mutable cell-map entry and a [`Depositor`] into `target` — the
/// shape of a fused move+deposit kernel (updates pos, vel and p2c and
/// increments mesh data along the path).
///
/// Indirect increments follow [`scatter_pieces`]: under `Seq` the loop
/// is one piece writing `target` exclusively in particle order; under
/// a parallel policy it is cut into one contiguous piece per thread,
/// each with a private array, reduced in piece order. The per-piece
/// tallies `T` are merged in the same order and returned.
pub fn par_loop_slices2_cells<T, F>(
    policy: &ExecPolicy,
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    cells: &mut [i32],
    target: &mut [f64],
    f: F,
) -> T
where
    T: Tally,
    F: Fn(&mut Depositor, &mut T, usize, &mut [f64], &mut [f64], &mut i32) + Sync,
{
    assert_eq!(
        s0.len() / dim0,
        s1.len() / dim1,
        "slice loops must share the iteration set"
    );
    assert_eq!(
        s0.len() / dim0,
        cells.len(),
        "slice loops must share the iteration set"
    );
    note_loop((s0.len() + s1.len()) * 8 + cells.len() * 4);
    let n = cells.len();
    let chunk = n.div_ceil(policy.threads().max(1)).max(1);
    let spans: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    let pieces = carve2c((dim0, s0), (dim1, s1), cells, &spans)
        .into_iter()
        .map(|w| vec![w])
        .collect();
    scatter_windows2c(policy, (dim0, dim1), pieces, target, f)
}

/// Segment-batched two-column particle loop over a **fresh** CSR cell
/// index (`ParticleDats::cell_index`): the kernel runs once per
/// non-empty cell segment and receives `(cell, first_particle,
/// column-0 segment slice, column-1 segment slice)`. Cell-level data
/// (fields, geometry) can then be loaded once per segment instead of
/// once per particle — the cell-locality engine's gather counterpart
/// to the sorted-segments deposit. Parallelism is over segments, so
/// iterations stay race-free by slice disjointness.
pub fn par_loop_segments2<F>(
    policy: &ExecPolicy,
    cell_start: &[usize],
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    f: F,
) where
    F: Fn(usize, usize, &mut [f64], &mut [f64]) + Sync,
{
    let n = *cell_start.last().expect("cell index must be non-empty");
    assert_eq!(s0.len(), n * dim0, "column 0 does not match the index");
    assert_eq!(s1.len(), n * dim1, "column 1 does not match the index");
    note_loop((s0.len() + s1.len()) * 8);
    // Carve both columns into per-segment disjoint windows.
    let mut segs: Vec<(usize, usize, &mut [f64], &mut [f64])> =
        Vec::with_capacity(cell_start.len() - 1);
    let mut rest0 = s0;
    let mut rest1 = s1;
    for c in 0..cell_start.len() - 1 {
        let count = cell_start[c + 1] - cell_start[c];
        if count == 0 {
            continue;
        }
        let (w0, r0) = rest0.split_at_mut(count * dim0);
        let (w1, r1) = rest1.split_at_mut(count * dim1);
        rest0 = r0;
        rest1 = r1;
        segs.push((c, cell_start[c], w0, w1));
    }
    match policy {
        ExecPolicy::Seq => {
            for (c, lo, w0, w1) in segs {
                f(c, lo, w0, w1);
            }
        }
        _ => policy.run(|| {
            segs.par_iter_mut()
                .for_each(|(c, lo, w0, w1)| f(*c, *lo, w0, w1));
        }),
    }
}

/// One cell segment's working set: `(cell, first_particle, col-0
/// window, col-1 window, cell-id window)`.
type SegWindow<'a> = (usize, usize, &'a mut [f64], &'a mut [f64], &'a mut [i32]);

/// [`par_loop_segments2`] plus the mutable cell column and a
/// [`Depositor`] into `target` — for fused mover kernels (CabanaPIC's
/// `Move_Deposit`) that gather through the fresh CSR index *and*
/// relocate particles and deposit along their paths in the same pass.
/// The kernel receives `(depositor, piece tally, cell,
/// first_particle, col-0 window, col-1 window, cell-id window)`;
/// cell-id writes go through the window, so the caller must mark the
/// store dirty (the indexed accessors on `ParticleDats` do this
/// automatically).
///
/// Increments follow [`scatter_pieces`], as in
/// [`par_loop_slices2_cells`]: one piece under `Seq`; under a parallel
/// policy one run of consecutive segments per thread, balanced by
/// particle count, reduced in piece order.
pub fn par_loop_segments2_cells<T, F>(
    policy: &ExecPolicy,
    cell_start: &[usize],
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    cells: &mut [i32],
    target: &mut [f64],
    f: F,
) -> T
where
    T: Tally,
    F: Fn(&mut Depositor, &mut T, usize, usize, &mut [f64], &mut [f64], &mut [i32]) + Sync,
{
    let n = *cell_start.last().expect("cell index must be non-empty");
    assert_eq!(s0.len(), n * dim0, "column 0 does not match the index");
    assert_eq!(s1.len(), n * dim1, "column 1 does not match the index");
    assert_eq!(cells.len(), n, "cell column does not match the index");
    note_loop((s0.len() + s1.len()) * 8 + cells.len() * 4);
    let t = policy.threads().max(1);
    let mut pieces: Vec<Vec<SegWindow<'_>>> = Vec::with_capacity(t);
    let (mut rest0, mut rest1, mut restc) = (s0, s1, cells);
    for c in 0..cell_start.len() - 1 {
        let (lo, count) = (cell_start[c], cell_start[c + 1] - cell_start[c]);
        if count == 0 {
            continue;
        }
        let (w0, r0) = rest0.split_at_mut(count * dim0);
        let (w1, r1) = rest1.split_at_mut(count * dim1);
        let (wc, rc) = restc.split_at_mut(count);
        rest0 = r0;
        rest1 = r1;
        restc = rc;
        // Open the next piece once the open ones hold their share.
        if pieces.is_empty() || (pieces.len() < t && lo >= n * pieces.len() / t) {
            pieces.push(Vec::new());
        }
        pieces
            .last_mut()
            .expect("a piece is open")
            .push((c, lo, w0, w1, wc));
    }
    scatter_pieces(policy, pieces, target, |segs, dep, tally: &mut T| {
        for (c, lo, w0, w1, wc) in segs {
            f(dep, tally, c, lo, w0, w1, wc);
        }
    })
}

/// Binding-bound single-column slice loop: like [`par_loop_slices1`],
/// but parallelism follows a persistent [`ThreadBinding`] instead of
/// rayon's per-loop re-chunking — each worker task walks exactly the
/// spans its binding owns, so the same particles land on the same
/// worker loop after loop, step after step (DESIGN.md §12). Element
/// writes are still per-slot disjoint windows, so the result is
/// bit-identical to the sequential loop regardless of the binding.
pub fn par_loop_binding1<F>(
    policy: &ExecPolicy,
    binding: &ThreadBinding,
    dim0: usize,
    s0: &mut [f64],
    f: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    note_loop(s0.len() * 8);
    let n = s0.len() / dim0;
    match policy {
        ExecPolicy::Seq => {
            for (i, c0) in s0.chunks_mut(dim0).enumerate() {
                f(i, c0);
            }
        }
        _ => {
            // Carve one disjoint window per span. `assignments` is a
            // partition of 0..n in slot order once flattened, so the
            // windows tile the column exactly.
            let mut flat: Vec<(usize, usize, usize)> = Vec::new();
            for (w, spans) in binding.assignments(n).into_iter().enumerate() {
                for (lo, hi) in spans {
                    flat.push((w, lo, hi));
                }
            }
            flat.sort_unstable_by_key(|&(_, lo, _)| lo);
            let mut windows: Vec<Vec<(usize, &mut [f64])>> =
                (0..binding.n_workers()).map(|_| Vec::new()).collect();
            let mut rest0 = s0;
            for &(w, lo, hi) in &flat {
                let (w0, r0) = rest0.split_at_mut((hi - lo) * dim0);
                rest0 = r0;
                windows[w].push((lo, w0));
            }
            policy.run(|| {
                windows.par_iter_mut().for_each(|spans| {
                    for (lo, w0) in spans {
                        for (k, c0) in w0.chunks_mut(dim0).enumerate() {
                            f(*lo + k, c0);
                        }
                    }
                });
            });
        }
    }
}

/// Binding-bound two-column slice loop (the push kernel under the
/// persistent-binding policy). See [`par_loop_binding1`].
pub fn par_loop_binding2<F>(
    policy: &ExecPolicy,
    binding: &ThreadBinding,
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(
        s0.len() / dim0,
        s1.len() / dim1,
        "slice loops must share the iteration set"
    );
    note_loop((s0.len() + s1.len()) * 8);
    let n = s0.len() / dim0;
    match policy {
        ExecPolicy::Seq => {
            for (i, (c0, c1)) in s0.chunks_mut(dim0).zip(s1.chunks_mut(dim1)).enumerate() {
                f(i, c0, c1);
            }
        }
        _ => {
            let mut flat: Vec<(usize, usize, usize)> = Vec::new();
            for (w, spans) in binding.assignments(n).into_iter().enumerate() {
                for (lo, hi) in spans {
                    flat.push((w, lo, hi));
                }
            }
            flat.sort_unstable_by_key(|&(_, lo, _)| lo);
            // Per-worker window lists: (start index, column windows).
            type Window2<'a> = (usize, &'a mut [f64], &'a mut [f64]);
            let mut windows: Vec<Vec<Window2>> =
                (0..binding.n_workers()).map(|_| Vec::new()).collect();
            let (mut rest0, mut rest1) = (s0, s1);
            for &(w, lo, hi) in &flat {
                let count = hi - lo;
                let (w0, r0) = rest0.split_at_mut(count * dim0);
                let (w1, r1) = rest1.split_at_mut(count * dim1);
                rest0 = r0;
                rest1 = r1;
                windows[w].push((lo, w0, w1));
            }
            policy.run(|| {
                windows.par_iter_mut().for_each(|spans| {
                    for (lo, w0, w1) in spans {
                        for (k, (c0, c1)) in
                            w0.chunks_mut(dim0).zip(w1.chunks_mut(dim1)).enumerate()
                        {
                            f(*lo + k, c0, c1);
                        }
                    }
                });
            });
        }
    }
}

/// Binding-bound variant of [`par_loop_slices2_cells`]: two particle
/// columns plus the mutable cell map (the fused mover's shape), with
/// parallelism following a persistent [`ThreadBinding`]. See
/// [`par_loop_binding1`] for the carving scheme. Under a parallel
/// policy each worker's spans form one [`scatter_pieces`] piece, so
/// the increments are reduced in worker order; under `Seq` the loop is
/// one exclusive piece, identical to [`par_loop_slices2_cells`].
pub fn par_loop_binding2_cells<T, F>(
    policy: &ExecPolicy,
    binding: &ThreadBinding,
    (dim0, s0): (usize, &mut [f64]),
    (dim1, s1): (usize, &mut [f64]),
    cells: &mut [i32],
    target: &mut [f64],
    f: F,
) -> T
where
    T: Tally,
    F: Fn(&mut Depositor, &mut T, usize, &mut [f64], &mut [f64], &mut i32) + Sync,
{
    assert_eq!(
        s0.len() / dim0,
        s1.len() / dim1,
        "slice loops must share the iteration set"
    );
    assert_eq!(
        s0.len() / dim0,
        cells.len(),
        "slice loops must share the iteration set"
    );
    note_loop((s0.len() + s1.len()) * 8 + cells.len() * 4);
    let n = cells.len();
    let pieces = if policy.is_parallel() {
        let mut flat: Vec<(usize, usize, usize)> = Vec::new();
        for (w, spans) in binding.assignments(n).into_iter().enumerate() {
            for (lo, hi) in spans {
                flat.push((w, lo, hi));
            }
        }
        flat.sort_unstable_by_key(|&(_, lo, _)| lo);
        let spans: Vec<(usize, usize)> = flat.iter().map(|&(_, lo, hi)| (lo, hi)).collect();
        let mut pieces: Vec<Vec<Window2c>> = (0..binding.n_workers()).map(|_| Vec::new()).collect();
        for (&(w, _, _), window) in flat
            .iter()
            .zip(carve2c((dim0, s0), (dim1, s1), cells, &spans))
        {
            pieces[w].push(window);
        }
        pieces
    } else {
        vec![vec![(0, s0, s1, cells)]]
    };
    scatter_windows2c(policy, (dim0, dim1), pieces, target, f)
}

/// Gather loop: writes one dat on the iteration set, reading anything
/// else through the kernel closure (e.g. indirect reads via maps —
/// `compute_electric_field` in Figure 5 gathers node potentials through
/// the cells→nodes map). Semantically identical to [`par_loop_direct1`];
/// the separate name keeps call sites self-describing.
pub fn par_loop_gather<F>(policy: &ExecPolicy, w0: &mut Dat, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_loop_direct1(policy, w0, f);
}

/// Parallel reduction over a read-only dat: sum of `g(i, element)`.
/// Used for diagnostics (field energy, total charge) which the paper's
/// apps compute every step.
pub fn par_reduce_sum<G>(policy: &ExecPolicy, d: &Dat, g: G) -> f64
where
    G: Fn(usize, &[f64]) -> f64 + Sync,
{
    let dim = d.dim();
    note_loop(d.len() * dim * 8);
    match policy {
        ExecPolicy::Seq => d.raw().chunks(dim).enumerate().map(|(i, c)| g(i, c)).sum(),
        _ => policy.run(|| {
            d.raw()
                .par_chunks(dim)
                .enumerate()
                .map(|(i, c)| g(i, c))
                .sum()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policies() -> Vec<ExecPolicy> {
        vec![ExecPolicy::Seq, ExecPolicy::Par, ExecPolicy::pool(3)]
    }

    #[test]
    fn direct1_all_policies_agree() {
        for pol in policies() {
            let mut d = Dat::zeros("x", 100, 2);
            par_loop_direct1(&pol, &mut d, |i, x| {
                x[0] = i as f64;
                x[1] = 2.0 * i as f64;
            });
            for i in 0..100 {
                assert_eq!(d.el(i), &[i as f64, 2.0 * i as f64], "{pol:?}");
            }
        }
    }

    #[test]
    fn direct2_zips_consistently() {
        for pol in policies() {
            let mut a = Dat::from_fn("a", 64, 1, |i, _| i as f64);
            let mut b = Dat::zeros("b", 64, 3);
            par_loop_direct2(&pol, &mut a, &mut b, |i, av, bv| {
                av[0] *= 2.0;
                bv[2] = i as f64 + av[0];
            });
            for i in 0..64 {
                assert_eq!(a.get(i), 2.0 * i as f64);
                assert_eq!(b.el(i)[2], 3.0 * i as f64);
            }
        }
    }

    #[test]
    fn direct3_and_4() {
        for pol in policies() {
            let mut a = Dat::zeros("a", 10, 1);
            let mut b = Dat::zeros("b", 10, 1);
            let mut c = Dat::zeros("c", 10, 1);
            let mut d = Dat::zeros("d", 10, 1);
            par_loop_direct3(&pol, &mut a, &mut b, &mut c, |i, x, y, z| {
                x[0] = i as f64;
                y[0] = i as f64 * 2.0;
                z[0] = x[0] + y[0];
            });
            assert_eq!(c.get(9), 27.0);
            par_loop_direct4(&pol, &mut a, &mut b, &mut c, &mut d, |_i, x, y, z, w| {
                w[0] = x[0] + y[0] + z[0];
            });
            assert_eq!(d.get(9), 9.0 + 18.0 + 27.0);
        }
    }

    #[test]
    fn gather_reads_through_map() {
        // cells gather from nodes via c2n, as in Figure 5.
        let node_potential = Dat::from_fn("np", 6, 1, |i, _| i as f64);
        let c2n: Vec<[usize; 2]> = vec![[0, 1], [2, 3], [4, 5]];
        for pol in policies() {
            let mut ef = Dat::zeros("ef", 3, 1);
            par_loop_gather(&pol, &mut ef, |c, e| {
                let nd = c2n[c];
                e[0] = node_potential.get(nd[0]) + node_potential.get(nd[1]);
            });
            assert_eq!(ef.get(0), 1.0);
            assert_eq!(ef.get(2), 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "share the iteration set")]
    fn mismatched_sets_rejected() {
        let mut a = Dat::zeros("a", 10, 1);
        let mut b = Dat::zeros("b", 11, 1);
        par_loop_direct2(&ExecPolicy::Seq, &mut a, &mut b, |_, _, _| {});
    }

    #[test]
    fn reduce_sum_matches_serial() {
        let d = Dat::from_fn("x", 1000, 2, |i, c| (i + c) as f64);
        let serial = par_reduce_sum(&ExecPolicy::Seq, &d, |_, c| c[0] * c[1]);
        for pol in policies() {
            let got = par_reduce_sum(&pol, &d, |_, c| c[0] * c[1]);
            assert!(
                (got - serial).abs() < 1e-6 * serial.abs().max(1.0),
                "{pol:?}"
            );
        }
    }

    #[test]
    fn policy_introspection() {
        assert_eq!(ExecPolicy::Seq.threads(), 1);
        assert!(!ExecPolicy::Seq.is_parallel());
        let p = ExecPolicy::pool(2);
        assert_eq!(p.threads(), 2);
        assert!(p.is_parallel());
        assert!(format!("{p:?}").contains("2 threads"));
    }

    #[test]
    fn pool_policy_runs_inside_its_pool() {
        let p = ExecPolicy::pool(2);
        let threads_seen = p.run(rayon::current_num_threads);
        assert_eq!(threads_seen, 2);
    }

    #[test]
    fn slice_loops_match_dat_loops() {
        for pol in policies() {
            let mut a = vec![0.0; 30]; // 10 elements, dim 3
            let mut b = vec![0.0; 10];
            par_loop_slices2(&pol, (3, &mut a), (1, &mut b), |i, av, bv| {
                av[1] = i as f64;
                bv[0] = 2.0 * i as f64;
            });
            assert_eq!(a[3 * 4 + 1], 4.0);
            assert_eq!(b[7], 14.0);

            let mut c = vec![1.0; 10];
            par_loop_slices1(&pol, 1, &mut c, |i, cv| cv[0] += i as f64);
            assert_eq!(c[9], 10.0);

            let mut d = vec![0.0; 20];
            par_loop_slices3(
                &pol,
                (3, &mut a),
                (1, &mut b),
                (2, &mut d),
                |_i, av, bv, dv| {
                    dv[0] = av[1] + bv[0];
                },
            );
            assert_eq!(d[2 * 5], 5.0 + 10.0);
        }
    }

    #[test]
    fn segment_loop_matches_per_particle_loop() {
        // 4 cells with 0/3/1/2 particles; per-cell factor applied to
        // dim-2 column 0, particle index recorded in column 1.
        let cell_start = [0usize, 0, 3, 4, 6];
        let factors = [10.0, 20.0, 30.0, 40.0];
        for pol in policies() {
            let mut a: Vec<f64> = (0..12).map(|v| v as f64).collect();
            let mut b = vec![0.0; 6];
            par_loop_segments2(
                &pol,
                &cell_start,
                (2, &mut a),
                (1, &mut b),
                |cell, lo, av, bv| {
                    let factor = factors[cell]; // hoisted per segment
                    for (k, (ac, bc)) in av.chunks_mut(2).zip(bv.chunks_mut(1)).enumerate() {
                        ac[0] *= factor;
                        bc[0] = (lo + k) as f64;
                    }
                },
            );
            let mut expect_a: Vec<f64> = (0..12).map(|v| v as f64).collect();
            for c in 0..4 {
                for p in cell_start[c]..cell_start[c + 1] {
                    expect_a[p * 2] *= factors[c];
                }
            }
            assert_eq!(a, expect_a, "{pol:?}");
            assert_eq!(b, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "{pol:?}");
        }
    }

    #[test]
    fn segment_cells_loop_relocates_and_matches() {
        // Same partition as above, plus per-window cell relocation:
        // every particle of cell 1 hops to cell 2.
        let cell_start = [0usize, 0, 3, 4, 6];
        for pol in policies() {
            let mut a: Vec<f64> = (0..12).map(|v| v as f64).collect();
            let mut b = vec![0.0; 6];
            let mut cells: Vec<i32> = vec![1, 1, 1, 2, 3, 3];
            // Each segment deposits its particle count into its cell.
            let mut counts = vec![0.0; 4];
            let visited: u64 = par_loop_segments2_cells(
                &pol,
                &cell_start,
                (2, &mut a),
                (1, &mut b),
                &mut cells,
                &mut counts,
                |dep, visited: &mut u64, cell, lo, av, bv, cw| {
                    dep.add(cell, av.len() as f64 / 2.0);
                    *visited += cw.len() as u64;
                    for (k, ((ac, bc), cl)) in av
                        .chunks_mut(2)
                        .zip(bv.chunks_mut(1))
                        .zip(cw.iter_mut())
                        .enumerate()
                    {
                        assert_eq!(*cl as usize, cell, "window matches home cell");
                        ac[1] = cell as f64;
                        bc[0] = (lo + k) as f64;
                        if cell == 1 {
                            *cl = 2;
                        }
                    }
                },
            );
            assert_eq!(cells, vec![2, 2, 2, 2, 3, 3], "{pol:?}");
            assert_eq!(b, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "{pol:?}");
            assert_eq!((a[1], a[7], a[9]), (1.0, 2.0, 3.0), "{pol:?}");
            assert_eq!(counts, vec![0.0, 3.0, 1.0, 2.0], "{pol:?}");
            assert_eq!(visited, 6, "{pol:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match the index")]
    fn segment_loop_rejects_mismatched_columns() {
        let cell_start = [0usize, 2];
        let mut a = vec![0.0; 3]; // wrong: 2 particles * dim 2 = 4
        let mut b = vec![0.0; 2];
        par_loop_segments2(
            &ExecPolicy::Seq,
            &cell_start,
            (2, &mut a),
            (1, &mut b),
            |_, _, _, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "share the iteration set")]
    fn slice_loop_shape_mismatch_rejected() {
        let mut a = vec![0.0; 9];
        let mut b = vec![0.0; 4];
        par_loop_slices2(&ExecPolicy::Seq, (3, &mut a), (1, &mut b), |_, _, _| {});
    }

    #[test]
    fn binding_loops_bit_match_sequential() {
        // The binding executor must be bit-identical to the plain
        // sequential loop for any binding, including one built for a
        // stale population (grown from 24 to 30).
        let cell_start = [0usize, 5, 5, 8, 16, 18, 24];
        let bindings = [
            ThreadBinding::uniform(3, 30),
            ThreadBinding::uniform(5, 7),
            ThreadBinding::from_cell_index(&cell_start, 3),
        ];
        for pol in policies() {
            for b in &bindings {
                let mut a: Vec<f64> = (0..90).map(|v| v as f64 * 0.25).collect();
                let mut q = vec![0.0; 30];
                par_loop_binding2(&pol, b, (3, &mut a), (1, &mut q), |i, av, qv| {
                    av[1] += i as f64;
                    qv[0] = av[0] * 2.0 + i as f64;
                });
                let mut ea: Vec<f64> = (0..90).map(|v| v as f64 * 0.25).collect();
                let mut eq = vec![0.0; 30];
                for (i, (av, qv)) in ea.chunks_mut(3).zip(eq.chunks_mut(1)).enumerate() {
                    av[1] += i as f64;
                    qv[0] = av[0] * 2.0 + i as f64;
                }
                assert_eq!(a, ea, "{pol:?} {b:?}");
                assert_eq!(q, eq, "{pol:?} {b:?}");

                let mut c = vec![1.0; 30];
                par_loop_binding1(&pol, b, 1, &mut c, |i, cv| cv[0] += i as f64);
                let expect: Vec<f64> = (0..30).map(|i| 1.0 + i as f64).collect();
                assert_eq!(c, expect, "{pol:?} {b:?}");
            }
        }
    }

    /// A fused-mover kernel: particle `i` deposits `value(i)` into its
    /// current cell of 6, counts itself, then hops one cell on.
    fn mover_kernel(
        value: fn(usize) -> f64,
    ) -> impl Fn(&mut Depositor, &mut u64, usize, &mut [f64], &mut [f64], &mut i32) + Sync {
        move |dep, count, i, x, _v, cl| {
            dep.add(*cl as usize, value(i));
            *count += 1;
            x[0] += 1.0;
            *cl = (*cl + 1) % 6;
        }
    }

    /// Run the slice mover, or the binding mover when `binding` is
    /// set, over 30 particles; returns `(deposit, tally, cells)`.
    fn run_mover(
        pol: &ExecPolicy,
        binding: Option<&ThreadBinding>,
        value: fn(usize) -> f64,
    ) -> (Vec<f64>, u64, Vec<i32>) {
        let mut x = vec![0.0; 60];
        let mut v = vec![0.0; 30];
        let mut cells: Vec<i32> = (0..30).map(|i| i % 6).collect();
        let mut target = vec![0.0; 6];
        let kernel = mover_kernel(value);
        let count = match binding {
            Some(b) => par_loop_binding2_cells(
                pol,
                b,
                (2, &mut x),
                (1, &mut v),
                &mut cells,
                &mut target,
                kernel,
            ),
            None => par_loop_slices2_cells(
                pol,
                (2, &mut x),
                (1, &mut v),
                &mut cells,
                &mut target,
                kernel,
            ),
        };
        assert!(x.chunks(2).all(|p| p[0] == 1.0), "every particle ran once");
        (target, count, cells)
    }

    #[test]
    fn mover_loops_scatter_like_the_serial_loop() {
        // Integer increments sum exactly in any order, so every
        // policy, binding and piece cut must give the serial answer.
        let bindings = [
            ThreadBinding::uniform(3, 30),
            ThreadBinding::uniform(4, 7),
            ThreadBinding::from_cell_index(&[0, 5, 5, 8, 16, 18, 30], 3),
        ];
        let mut expect = vec![0.0; 6];
        for i in 0..30 {
            expect[i % 6] += i as f64;
        }
        let moved: Vec<i32> = (0..30).map(|i| (i + 1) % 6).collect();
        for pol in policies() {
            for b in [None].into_iter().chain(bindings.iter().map(Some)) {
                let (target, count, cells) = run_mover(&pol, b, |i| i as f64);
                assert_eq!(target, expect, "{pol:?} {b:?}");
                assert_eq!(count, 30, "{pol:?} {b:?}");
                assert_eq!(cells, moved, "{pol:?} {b:?}");
            }
        }
    }

    #[test]
    fn mover_loops_are_exclusive_under_seq_and_deterministic_in_parallel() {
        let value = |i: usize| 0.1 * i as f64 + 1e-3;
        // Seq is the plain left fold in particle order, bit for bit.
        let mut fold = vec![0.0; 6];
        for i in 0..30 {
            fold[i % 6] += value(i);
        }
        let (seq, _, _) = run_mover(&ExecPolicy::Seq, None, value);
        assert_eq!(seq, fold);
        // Parallel pieces are reduced in piece order: repeated runs
        // agree bit for bit.
        let b = ThreadBinding::uniform(2, 30);
        for binding in [None, Some(&b)] {
            let pol = ExecPolicy::pool(2);
            let first = run_mover(&pol, binding, value);
            for _ in 0..8 {
                assert_eq!(run_mover(&pol, binding, value), first, "{binding:?}");
            }
        }
    }

    #[test]
    fn empty_set_is_a_noop() {
        for pol in policies() {
            let mut d = Dat::zeros("x", 0, 3);
            par_loop_direct1(&pol, &mut d, |_, _| panic!("kernel must not run"));
        }
    }
}
