//! The par-loop executor — `opp_par_loop` over an iteration space.
//!
//! Every loop whose *written* arguments live on the iteration set runs
//! through one executor, [`par_loop`]: it takes an iteration
//! [`Space`] and a tuple of writable columns, checks that every column
//! has exactly `n·dim` values, cuts the space into pieces of work,
//! carves every column into one disjoint `&mut` [`Window`] per span,
//! and dispatches the pieces. Element `i` owns slice
//! `[i*dim, (i+1)*dim)` of each column, so iterations are race-free by
//! slice disjointness; read-only data (direct or gathered through
//! maps) is captured by the kernel closure — `&Dat` is `Sync` — with no
//! `unsafe` anywhere.
//!
//! [`par_loop_scatter`] is the same executor for fused particle movers
//! that also increment mesh data: each piece gets a [`Depositor`] and
//! a [`Tally`] through [`scatter_pieces`], and the cell column (an
//! `&mut [i32]`) is carved like any other column.
//!
//! This is what the paper's generated OpenMP backend does with
//! `#pragma omp parallel for` over the set, and what the sequential
//! backend does with a plain loop: under [`ExecPolicy::Seq`] the whole
//! space is one piece run inline on the calling thread.

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

/// How a loop's `n` elements are cut into pieces of work, one piece
/// per worker (a piece is a list of windows).
#[derive(Clone, Copy, Debug)]
pub enum Space<'a> {
    /// Contiguous pieces of `ceil(n/t)` elements for `t` threads; one
    /// window per piece.
    Range,
    /// The non-empty segments of a **fresh** CSR cell index
    /// (`ParticleDats::cell_index`): one window per segment, carrying
    /// its cell, so cell-level data (fields, geometry) can be loaded
    /// once per segment instead of once per particle. Pieces are runs
    /// of consecutive segments balanced by particle count.
    Segments(&'a [usize]),
    /// One piece per worker of a persistent [`ThreadBinding`]
    /// (DESIGN.md §12), holding a window per span it owns, so the same
    /// particles land on the same worker loop after loop. Under
    /// [`ExecPolicy::Seq`] the same single piece as [`Space::Range`].
    Binding(&'a ThreadBinding),
}

/// One column the executor carves: a `(dim, values)` column of `f64`
/// (a flat `len*dim` buffer, as [`Dat::col_mut`] and the particle
/// columns of [`crate::particles::ParticleDats`] hand out), or a cell
/// column `&mut [i32]` of dim 1.
pub trait Column: Send + Sized {
    /// One element's window.
    type Elem;
    type Iter: Iterator<Item = Self::Elem>;
    /// `(values, dim, bytes per value)`.
    fn shape(&self) -> (usize, usize, usize);
    /// The first `elems` elements, and the rest.
    fn split(self, elems: usize) -> (Self, Self);
    fn elems(self) -> Self::Iter;
}

impl<'a> Column for (usize, &'a mut [f64]) {
    type Elem = &'a mut [f64];
    type Iter = std::slice::ChunksMut<'a, f64>;

    fn shape(&self) -> (usize, usize, usize) {
        (self.1.len(), self.0, 8)
    }

    fn split(self, elems: usize) -> (Self, Self) {
        let (head, tail) = self.1.split_at_mut(elems * self.0);
        ((self.0, head), (self.0, tail))
    }

    #[inline]
    fn elems(self) -> Self::Iter {
        self.1.chunks_mut(self.0)
    }
}

impl<'a> Column for &'a mut [i32] {
    type Elem = &'a mut i32;
    type Iter = std::slice::IterMut<'a, i32>;

    fn shape(&self) -> (usize, usize, usize) {
        (self.len(), 1, 4)
    }

    fn split(self, elems: usize) -> (Self, Self) {
        self.split_at_mut(elems)
    }

    #[inline]
    fn elems(self) -> Self::Iter {
        self.iter_mut()
    }
}

/// The columns of one loop: a single `f64` column, or a tuple of two
/// to four [`Column`]s whose elements reach the kernel as a tuple.
pub trait Cols: Send + Sized {
    type Elem;
    fn shapes(&self) -> Vec<(usize, usize, usize)>;
    fn split(self, elems: usize) -> (Self, Self);
    /// Run `f(first + k, element k)` over the elements in order.
    fn each(self, first: usize, f: impl FnMut(usize, Self::Elem));
}

impl<'a> Cols for (usize, &'a mut [f64]) {
    type Elem = &'a mut [f64];

    fn shapes(&self) -> Vec<(usize, usize, usize)> {
        vec![self.shape()]
    }

    fn split(self, elems: usize) -> (Self, Self) {
        Column::split(self, elems)
    }

    #[inline]
    fn each(self, first: usize, mut f: impl FnMut(usize, Self::Elem)) {
        for (k, a) in self.elems().enumerate() {
            f(first + k, a);
        }
    }
}

macro_rules! cols_tuple {
    ($($t:ident $v:ident $i:tt),+; $zip:expr => $pat:pat) => {
        impl<$($t: Column),+> Cols for ($($t,)+) {
            type Elem = ($($t::Elem,)+);

            fn shapes(&self) -> Vec<(usize, usize, usize)> {
                vec![$(self.$i.shape()),+]
            }

            fn split(self, elems: usize) -> (Self, Self) {
                $(let $v = self.$i.split(elems);)+
                (($($v.0,)+), ($($v.1,)+))
            }

            #[inline]
            fn each(self, first: usize, mut f: impl FnMut(usize, Self::Elem)) {
                $(let $v = self.$i.elems();)+
                for (k, $pat) in $zip.enumerate() {
                    f(first + k, ($($v,)+));
                }
            }
        }
    };
}

cols_tuple!(A a 0, B b 1; a.zip(b) => (a, b));
cols_tuple!(A a 0, B b 1, C c 2; a.zip(b).zip(c) => ((a, b), c));
cols_tuple!(A a 0, B b 1, C c 2, D d 3; a.zip(b).zip(c).zip(d) => (((a, b), c), d));

/// A run of consecutive elements handed to a kernel: elements
/// `first..` of every column.
pub struct Window<C> {
    /// The segment's cell under [`Space::Segments`], else `None`.
    pub cell: Option<usize>,
    /// Index of the window's first element in the iteration set.
    pub first: usize,
    pub cols: C,
}

impl<C: Cols> Window<C> {
    /// Run `f(i, element)` over the window in element order.
    #[inline]
    pub fn each(self, f: impl FnMut(usize, C::Elem)) {
        self.cols.each(self.first, f)
    }
}

/// Telemetry hook of the executor: one loop invocation, `bytes` of
/// writable data handed to kernels. A no-op costing one thread-local
/// read when no telemetry is current.
fn note_loop(bytes: usize) {
    if let Some(t) = crate::telemetry::current() {
        t.counter_add("parloop.invocations", 1);
        t.counter_add("parloop.bytes_touched", bytes as u64);
    }
}

/// Where one window goes: `(piece, cell, lo, hi)`.
type Cut = (usize, Option<usize>, usize, usize);

/// Cut `space` over `n` elements into pieces: the piece count and
/// every window's cut, in ascending `lo` order tiling `0..n`.
fn cut(policy: &ExecPolicy, space: Space<'_>, n: usize) -> (usize, Vec<Cut>) {
    let t = policy.threads().max(1);
    match space {
        Space::Segments(cell_start) => {
            let mut pieces = 0;
            let mut cuts = Vec::with_capacity(cell_start.len() - 1);
            for (c, w) in cell_start.windows(2).enumerate() {
                let (lo, hi) = (w[0], w[1]);
                if lo == hi {
                    continue;
                }
                // Open the next piece once the open ones hold their share.
                if pieces == 0 || (pieces < t && lo >= n * pieces / t) {
                    pieces += 1;
                }
                cuts.push((pieces - 1, Some(c), lo, hi));
            }
            (pieces, cuts)
        }
        Space::Binding(binding) if policy.is_parallel() => {
            let mut cuts: Vec<Cut> = Vec::new();
            for (w, spans) in binding.assignments(n).into_iter().enumerate() {
                cuts.extend(spans.into_iter().map(|(lo, hi)| (w, None, lo, hi)));
            }
            cuts.sort_unstable_by_key(|&(_, _, lo, _)| lo);
            (binding.n_workers(), cuts)
        }
        Space::Range | Space::Binding(_) => {
            let chunk = n.div_ceil(t).max(1);
            let cuts: Vec<Cut> = (0..n)
                .step_by(chunk)
                .enumerate()
                .map(|(p, lo)| (p, None, lo, (lo + chunk).min(n)))
                .collect();
            (cuts.len(), cuts)
        }
    }
}

/// Check the columns' shapes, note the loop, and carve every column
/// into the windows of [`cut`], grouped by piece.
fn carve<C: Cols>(policy: &ExecPolicy, space: Space<'_>, cols: C) -> Vec<Vec<Window<C>>> {
    let shapes = cols.shapes();
    let n = match space {
        Space::Segments(cell_start) => *cell_start.last().expect("cell index must be non-empty"),
        _ => shapes[0].0 / shapes[0].1,
    };
    for (k, &(len, dim, _)) in shapes.iter().enumerate() {
        if let Space::Segments(_) = space {
            assert_eq!(len, n * dim, "column {k} does not match the index");
        } else {
            assert_eq!(len, n * dim, "loop columns must share the iteration set");
        }
    }
    note_loop(shapes.iter().map(|&(len, _, bytes)| len * bytes).sum());
    let (count, cuts) = cut(policy, space, n);
    let mut pieces: Vec<Vec<Window<C>>> = (0..count).map(|_| Vec::new()).collect();
    let mut rest = cols;
    for (piece, cell, lo, hi) in cuts {
        let (cols, tail) = rest.split(hi - lo);
        rest = tail;
        pieces[piece].push(Window {
            cell,
            first: lo,
            cols,
        });
    }
    pieces
}

/// The one place pieces of work meet threads: a single piece runs
/// inline on the calling thread, several run on the policy's workers.
/// Results come back in piece order.
pub(crate) fn dispatch<W, R, F>(policy: &ExecPolicy, pieces: Vec<W>, run: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
{
    if pieces.len() <= 1 {
        return pieces.into_iter().map(run).collect();
    }
    let mut slots: Vec<Option<W>> = pieces.into_iter().map(Some).collect();
    policy.run(|| {
        slots
            .par_iter_mut()
            .map(|slot| run(slot.take().expect("each piece runs once")))
            .collect()
    })
}

/// Run `f` once per [`Window`] of `space` over `cols` (a `(dim,
/// values)` column or a tuple of up to four [`Column`]s, all on the
/// iteration set). Per-element kernels call [`Window::each`]; segment
/// kernels read [`Window::cell`] first.
///
/// Panics unless every column holds exactly `n·dim` values, where `n`
/// is the index's particle count under [`Space::Segments`] and the
/// first column's element count otherwise.
pub fn par_loop<C, F>(policy: &ExecPolicy, space: Space<'_>, cols: C, f: F)
where
    C: Cols,
    F: Fn(Window<C>) + Sync,
{
    dispatch(policy, carve(policy, space, cols), |windows| {
        windows.into_iter().for_each(&f)
    });
}

/// [`par_loop`] for fused mover kernels (CabanaPIC's `Move_Deposit`)
/// that also increment `target`: `f` gets its piece's [`Depositor`]
/// and [`Tally`] with every window, and the merged tally is returned.
/// The cell column (`&mut [i32]`) is carved like any other column;
/// cell-id writes go through the window, so the caller must mark the
/// store dirty.
///
/// Increments follow [`scatter_pieces`]: under `Seq` the loop is one
/// piece writing `target` exclusively in element order; under a
/// parallel policy each piece of `space` fills a private array, and
/// the arrays and tallies are reduced in piece order.
pub fn par_loop_scatter<T, C, F>(
    policy: &ExecPolicy,
    space: Space<'_>,
    cols: C,
    target: &mut [f64],
    f: F,
) -> T
where
    T: Tally,
    C: Cols,
    F: Fn(&mut Depositor, &mut T, Window<C>) + Sync,
{
    let pieces = carve(policy, space, cols);
    scatter_pieces(policy, pieces, target, |windows, dep, tally: &mut T| {
        for w in windows {
            f(dep, tally, w);
        }
    })
}

/// Loop over the elements of one dat: `f(i, element)`, as
/// [`par_loop`] over a [`Space::Range`].
pub fn par_loop_direct1<F>(policy: &ExecPolicy, w0: &mut Dat, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_loop(policy, Space::Range, w0.col_mut(), |w| w.each(&f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn policies() -> Vec<ExecPolicy> {
        vec![ExecPolicy::Seq, ExecPolicy::Par, ExecPolicy::pool(3)]
    }

    /// 30 elements in 6 cells holding 5/0/3/8/2/12 of them.
    const N: usize = 30;
    const CELL_START: [usize; 7] = [0, 5, 5, 8, 16, 18, 30];

    fn cell_of(i: usize) -> usize {
        CELL_START.partition_point(|&s| s <= i) - 1
    }

    /// Columns of dim 3, 1 and 2, and the cell column.
    #[derive(Debug, PartialEq)]
    struct Data {
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
        cells: Vec<i32>,
    }

    fn data() -> Data {
        let col = |dim: usize| (0..N * dim).map(|v| v as f64 * 0.25).collect();
        Data {
            a: col(3),
            b: col(1),
            c: col(2),
            cells: (0..N).map(|i| cell_of(i) as i32).collect(),
        }
    }

    /// Element update that is not idempotent, so a missed or doubled
    /// visit shows; it folds in the window's cell.
    fn bump(i: usize, cell: Option<usize>, x: &mut [f64]) {
        for (k, v) in x.iter_mut().enumerate() {
            *v = *v * 1.5 + (i + k) as f64 + cell.map_or(0.0, |c| 100.0 * c as f64);
        }
    }

    /// Cell-column update: a segment window holds only its own cell.
    fn hop(cell: Option<usize>, cl: &mut i32) {
        if let Some(c) = cell {
            assert_eq!(*cl as usize, c, "window matches its cell");
        }
        *cl = (*cl + 1) % 6;
    }

    type Value = fn(usize) -> f64;

    /// Run `k` over `cols`: the plain form when `value` is `None`, else
    /// the scatter form depositing `value(i)` into element `i`'s cell
    /// and counting visits. Under `Seq` every window must run on the
    /// calling thread.
    fn exec<C: Cols>(
        pol: &ExecPolicy,
        space: Space<'_>,
        cols: C,
        target: &mut [f64],
        value: Option<Value>,
        k: impl Fn(usize, Option<usize>, C::Elem) + Sync,
    ) -> u64 {
        let caller = std::thread::current().id();
        let inline = |w: &Window<C>| {
            if !pol.is_parallel() {
                assert_eq!(std::thread::current().id(), caller, "Seq runs inline");
            }
            w.cell
        };
        match value {
            None => {
                par_loop(pol, space, cols, |w| {
                    let cell = inline(&w);
                    w.each(|i, e| k(i, cell, e));
                });
                0
            }
            Some(value) => par_loop_scatter(pol, space, cols, target, |dep, n: &mut u64, w| {
                let cell = inline(&w);
                w.each(|i, e| {
                    dep.add(cell_of(i), value(i));
                    *n += 1;
                    k(i, cell, e);
                });
            }),
        }
    }

    /// One table case through the executor, over the first `arity`
    /// columns of [`data`].
    fn run(
        pol: &ExecPolicy,
        space: Space<'_>,
        arity: usize,
        value: Option<Value>,
    ) -> (Data, Vec<f64>, u64) {
        let mut d = data();
        let mut target = vec![0.0; 6];
        let (a, b, c, cells) = (&mut d.a[..], &mut d.b[..], &mut d.c[..], &mut d.cells[..]);
        let t = &mut target;
        let n = match arity {
            1 => exec(pol, space, (3, a), t, value, bump),
            2 => exec(pol, space, ((3, a), (1, b)), t, value, |i, cell, (x, y)| {
                bump(i, cell, x);
                bump(i, cell, y);
            }),
            3 => exec(
                pol,
                space,
                ((3, a), (1, b), (2, c)),
                t,
                value,
                |i, cell, (x, y, z)| {
                    bump(i, cell, x);
                    bump(i, cell, y);
                    bump(i, cell, z);
                },
            ),
            _ => exec(
                pol,
                space,
                ((3, a), (1, b), (2, c), cells),
                t,
                value,
                |i, cell, (x, y, z, cl)| {
                    bump(i, cell, x);
                    bump(i, cell, y);
                    bump(i, cell, z);
                    hop(cell, cl);
                },
            ),
        };
        (d, target, n)
    }

    /// The same case as the plain serial loop and left fold.
    fn serial(segments: bool, arity: usize, value: Option<Value>) -> (Data, Vec<f64>, u64) {
        let mut d = data();
        let mut target = vec![0.0; 6];
        for i in 0..N {
            let cell = segments.then(|| cell_of(i));
            bump(i, cell, &mut d.a[i * 3..i * 3 + 3]);
            if arity >= 2 {
                bump(i, cell, &mut d.b[i..i + 1]);
            }
            if arity >= 3 {
                bump(i, cell, &mut d.c[i * 2..i * 2 + 2]);
            }
            if arity >= 4 {
                hop(cell, &mut d.cells[i]);
            }
            if let Some(value) = value {
                target[cell_of(i)] += value(i);
            }
        }
        (d, target, if value.is_some() { N as u64 } else { 0 })
    }

    #[test]
    fn executor_matches_the_serial_loop_on_every_space() {
        let bindings = [
            ThreadBinding::uniform(3, N),
            // Stale: built for 7 elements, run over 30.
            ThreadBinding::uniform(5, 7),
            ThreadBinding::from_cell_index(&CELL_START, 3),
            // Stale: built for 24 elements.
            ThreadBinding::from_cell_index(&[0, 5, 5, 8, 16, 18, 24], 3),
        ];
        let spaces: Vec<Space> = [Space::Range, Space::Segments(&CELL_START)]
            .into_iter()
            .chain(bindings.iter().map(Space::Binding))
            .collect();
        let integer: Value = |i| i as f64;
        let fraction: Value = |i| 0.1 * i as f64 + 1e-3;
        for arity in 1..=4 {
            for &space in &spaces {
                let segments = matches!(space, Space::Segments(_));
                let case = format!("{space:?} arity {arity}");
                // The plain form equals the serial loop bit for bit;
                // integer increments sum exactly in any order, so the
                // scatter form does too on every policy and cut.
                for pol in policies() {
                    for value in [None, Some(integer)] {
                        let expect = serial(segments, arity, value);
                        assert_eq!(run(&pol, space, arity, value), expect, "{pol:?} {case}");
                    }
                }
                // Seq is one exclusive piece: the left fold, bit for bit.
                let fold = serial(segments, arity, Some(fraction));
                assert_eq!(
                    run(&ExecPolicy::Seq, space, arity, Some(fraction)),
                    fold,
                    "{case}"
                );
                // Parallel pieces are reduced in piece order: repeated
                // runs agree bit for bit.
                let pool = ExecPolicy::pool(2);
                let first = run(&pool, space, arity, Some(fraction));
                for _ in 0..4 {
                    assert_eq!(run(&pool, space, arity, Some(fraction)), first, "{case}");
                }
            }
        }
    }

    #[test]
    fn pieces_keep_their_cuts() {
        // Piece cuts decide parallel scatter sums, so they are pinned.
        let pool = ExecPolicy::pool(3);
        // Range: contiguous chunks of ceil(n/t).
        let range = vec![(0, None, 0, 4), (1, None, 4, 8), (2, None, 8, 10)];
        assert_eq!(cut(&pool, Space::Range, 10), (3, range));
        // Segments: the next piece opens at the first segment starting
        // at or past its share n·pieces/t; empty cells are skipped.
        let segments = vec![
            (0, Some(0), 0, 5),
            (0, Some(2), 5, 8),
            (0, Some(3), 8, 16),
            (1, Some(4), 16, 18),
            (1, Some(5), 18, 30),
        ];
        assert_eq!(cut(&pool, Space::Segments(&CELL_START), N), (2, segments));
        // Binding: one piece per worker, windows in slot order; the
        // tail appended since the build is dealt out evenly.
        let b = ThreadBinding::uniform(2, 6);
        let bound = vec![
            (0, None, 0, 3),
            (1, None, 3, 6),
            (0, None, 6, 7),
            (1, None, 7, 8),
        ];
        assert_eq!(cut(&pool, Space::Binding(&b), 8), (2, bound));
        // Seq: one piece, whatever the space.
        assert_eq!(
            cut(&ExecPolicy::Seq, Space::Binding(&b), 8),
            (1, vec![(0, None, 0, 8)])
        );
    }

    /// The panic message of `f`, which must panic.
    fn panic_text(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the loop must panic");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(err) => err
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    #[test]
    fn slice_loop_shape_mismatch_rejected() {
        let binding = ThreadBinding::uniform(2, 3);
        let texts = [
            // Two dats on different sets.
            panic_text(|| {
                let mut a = Dat::zeros("a", 10, 1);
                let mut b = Dat::zeros("b", 11, 1);
                par_loop(
                    &ExecPolicy::Seq,
                    Space::Range,
                    (a.col_mut(), b.col_mut()),
                    |_| {},
                );
            }),
            // 3 elements against 4.
            panic_text(|| {
                let (mut a, mut b) = ([0.0; 9], [0.0; 4]);
                par_loop(
                    &ExecPolicy::Seq,
                    Space::Range,
                    ((3, &mut a[..]), (1, &mut b[..])),
                    |_| {},
                );
            }),
            // Ragged: 10 values are not a whole number of dim-3
            // elements, under every space that takes `n` from a column.
            panic_text(|| {
                let (mut a, mut b) = ([0.0; 10], [0.0; 3]);
                par_loop(
                    &ExecPolicy::Seq,
                    Space::Range,
                    ((3, &mut a[..]), (1, &mut b[..])),
                    |_| {},
                );
            }),
            panic_text(|| {
                let mut a = [0.0; 10];
                par_loop(
                    &ExecPolicy::Par,
                    Space::Binding(&binding),
                    (3, &mut a[..]),
                    |_| {},
                );
            }),
        ];
        for text in texts {
            assert!(text.contains("share the iteration set"), "{text}");
        }
    }

    #[test]
    fn segment_loop_rejects_mismatched_columns() {
        let cell_start = [0usize, 2];
        let texts = [
            // Short: 2 particles of dim 2 need 4 values.
            panic_text(|| {
                let (mut a, mut b) = ([0.0; 3], [0.0; 2]);
                let cols = ((2, &mut a[..]), (1, &mut b[..]));
                par_loop(&ExecPolicy::Seq, Space::Segments(&cell_start), cols, |_| {});
            }),
            // Ragged.
            panic_text(|| {
                let mut a = [0.0; 5];
                par_loop(
                    &ExecPolicy::Seq,
                    Space::Segments(&cell_start),
                    (2, &mut a[..]),
                    |_| {},
                );
            }),
            // The cell column of the scatter form.
            panic_text(|| {
                let (mut a, mut cells) = ([0.0; 4], [0i32; 3]);
                let cols = ((2, &mut a[..]), &mut cells[..]);
                let mut target = [0.0; 1];
                par_loop_scatter::<(), _, _>(
                    &ExecPolicy::Seq,
                    Space::Segments(&cell_start),
                    cols,
                    &mut target,
                    |_, _, _| {},
                );
            }),
        ];
        for text in texts {
            assert!(text.contains("does not match the index"), "{text}");
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
    fn empty_set_is_a_noop() {
        for pol in policies() {
            let mut d = Dat::zeros("x", 0, 3);
            par_loop_direct1(&pol, &mut d, |_, _| panic!("kernel must not run"));
        }
    }
}
