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
//! A column whose width is known at compile time is a [`Fixed`]: its
//! elements reach the kernel as `&mut [f64; N]`, so indexing them needs
//! no bounds check and a sequential loop body compiles to the
//! hand-written loop. The `(dim, values)` column, whose elements are
//! runtime-length slices, serves only loops whose width is a run-time
//! value ([`par_loop_direct1`] and `opp_par_loop!` over
//! [`Dat::col_mut`]).
//!
//! [`par_loop_scatter`] is the same executor for fused particle movers
//! that also increment mesh data: each piece gets a plain `&mut [f64]`
//! target and a [`Tally`] through [`scatter_pieces`], and the cell
//! column (an `&mut [i32]`) is carved like any other column.
//!
//! This is what the paper's generated OpenMP backend does with
//! `#pragma omp parallel for` over the set, and what the sequential
//! backend does with a plain loop: under [`ExecPolicy::Seq`] the whole
//! space is one piece run inline on the calling thread.

use crate::binding::ThreadBinding;
use crate::dat::Dat;
use crate::deposit::{scatter_pieces, Tally};
use std::ops::Range;

/// Execution policy: the "backend" selector.
///
/// * [`ExecPolicy::Seq`] — the paper's `seq` backend (a plain loop).
/// * [`ExecPolicy::Par`] — the OpenMP-analogue backend on the process
///   thread budget ([`rayon::current_num_threads`]).
/// * [`ExecPolicy::pool`] — same, with a fixed thread count (used by
///   the scaling benches).
#[derive(Clone, Default)]
pub enum ExecPolicy {
    Seq,
    #[default]
    Par,
    Pool(usize),
}

impl std::fmt::Debug for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Seq => write!(f, "ExecPolicy::Seq"),
            ExecPolicy::Par => write!(f, "ExecPolicy::Par"),
            ExecPolicy::Pool(n) => write!(f, "ExecPolicy::Pool({n} threads)"),
        }
    }
}

impl ExecPolicy {
    /// Exactly `n` threads; `0` asks for the machine's parallelism.
    pub fn pool(n: usize) -> Self {
        let n = match n {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        ExecPolicy::Pool(n)
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
            ExecPolicy::Pool(n) => *n,
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
    /// One piece per worker of a persistent [`ThreadBinding`]
    /// (DESIGN.md §12), holding a window per span it owns, so the same
    /// particles land on the same worker loop after loop. Under
    /// [`ExecPolicy::Seq`] the same single piece as [`Space::Range`].
    Binding(&'a ThreadBinding),
}

/// One column the executor carves: a [`Fixed`] column of `f64`, a
/// `(dim, values)` column of `f64` whose width is a run-time value (a
/// flat `len*dim` buffer, as [`Dat::col_mut`] hands out), or a cell
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

/// A column of `N`-wide `f64` elements over a flat buffer of `n·N`
/// values (a particle column of [`crate::particles::ParticleDats`], or
/// [`Dat::col_fixed`]): element `i` reaches the kernel as
/// `&mut [f64; N]`, values `[i*N, (i+1)*N)`.
pub struct Fixed<'a, const N: usize>(pub &'a mut [f64]);

impl<'a, const N: usize> Column for Fixed<'a, N> {
    type Elem = &'a mut [f64; N];
    type Iter = std::slice::IterMut<'a, [f64; N]>;

    fn shape(&self) -> (usize, usize, usize) {
        (self.0.len(), N, 8)
    }

    fn split(self, elems: usize) -> (Self, Self) {
        let (head, tail) = self.0.split_at_mut(elems * N);
        (Fixed(head), Fixed(tail))
    }

    #[inline]
    fn elems(self) -> Self::Iter {
        self.0.as_chunks_mut::<N>().0.iter_mut()
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

/// The empty column: no values, for a loop whose kernel writes nothing
/// per element beyond the columns beside it (the move engine's
/// `cols = ()`). It never comes first in a tuple, which takes its
/// element count from its first column.
impl Column for () {
    type Elem = ();
    type Iter = std::iter::Repeat<()>;

    fn shape(&self) -> (usize, usize, usize) {
        (0, 0, 0)
    }

    fn split(self, _elems: usize) -> (Self, Self) {
        ((), ())
    }

    #[inline]
    fn elems(self) -> Self::Iter {
        std::iter::repeat(())
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

/// A single `f64` column reaches the kernel as its bare element.
macro_rules! cols_single {
    ([$($g:tt)*] $t:ty) => {
        impl<$($g)*> Cols for $t {
            type Elem = <$t as Column>::Elem;

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
    };
}

cols_single!(['a] (usize, &'a mut [f64]));
cols_single!(['a, const N: usize] Fixed<'a, N>);

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

/// Where one window goes: `(piece, lo, hi)`.
type Cut = (usize, usize, usize);

/// Cut `space` over `n` elements into pieces: the piece count and
/// every window's cut, in ascending `lo` order tiling `0..n`. No cut
/// has more pieces than the policy has threads: a binding's pieces are
/// its workers, which the apps build from the policy's thread count,
/// and a binding built for more workers than that (a budget that
/// shrank since the build) folds worker `w` onto piece `w % t`.
fn cut(policy: &ExecPolicy, space: Space<'_>, n: usize) -> (usize, Vec<Cut>) {
    let t = policy.threads().max(1);
    match space {
        Space::Binding(binding) if policy.is_parallel() => {
            let mut cuts: Vec<Cut> = Vec::new();
            for (w, spans) in binding.assignments(n).into_iter().enumerate() {
                cuts.extend(spans.into_iter().map(|(lo, hi)| (w % t, lo, hi)));
            }
            cuts.sort_unstable_by_key(|&(_, lo, _)| lo);
            (binding.n_workers().min(t), cuts)
        }
        Space::Range | Space::Binding(_) => {
            let chunk = n.div_ceil(t).max(1);
            let cuts: Vec<Cut> = (0..n)
                .step_by(chunk)
                .enumerate()
                .map(|(p, lo)| (p, lo, (lo + chunk).min(n)))
                .collect();
            debug_assert!(cuts.len() <= t, "a range cut exceeds the threads");
            (cuts.len(), cuts)
        }
    }
}

/// The pieces of a [`Space::Range`] cut of `0..n`, one window each:
/// the work lists of the loops that index their elements themselves
/// (the deposit strategies' passes).
pub(crate) fn ranges(policy: &ExecPolicy, n: usize) -> Vec<Range<usize>> {
    let (_, cuts) = cut(policy, Space::Range, n);
    cuts.into_iter().map(|(_, lo, hi)| lo..hi).collect()
}

/// Check the columns' shapes, note the loop, and carve every column
/// into the windows of [`cut`], grouped by piece.
pub(crate) fn carve<C: Cols>(
    policy: &ExecPolicy,
    space: Space<'_>,
    cols: C,
) -> Vec<Vec<Window<C>>> {
    let shapes = cols.shapes();
    let n = shapes[0].0 / shapes[0].1;
    for &(len, dim, _) in &shapes {
        assert_eq!(len, n * dim, "loop columns must share the iteration set");
    }
    note_loop(shapes.iter().map(|&(len, _, bytes)| len * bytes).sum());
    let (count, cuts) = cut(policy, space, n);
    let mut pieces: Vec<Vec<Window<C>>> = (0..count).map(|_| Vec::new()).collect();
    let mut rest = cols;
    for (piece, lo, hi) in cuts {
        let (cols, tail) = rest.split(hi - lo);
        rest = tail;
        pieces[piece].push(Window { first: lo, cols });
    }
    pieces
}

/// The one place pieces of work meet threads: a single piece runs
/// inline on the calling thread, several run on one scoped thread
/// each. Results come back in piece order, and a panicking piece
/// panics the caller.
pub(crate) fn dispatch<W, R, F>(pieces: Vec<W>, run: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
{
    if pieces.len() <= 1 {
        return pieces.into_iter().map(run).collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .into_iter()
            .map(|piece| scope.spawn(move || run(piece)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Run `f` once per [`Window`] of `space` over `cols` (one `f64`
/// column or a tuple of up to four [`Column`]s, all on the iteration
/// set). Kernels call [`Window::each`].
///
/// ```
/// use oppic_core::{par_loop, ExecPolicy, Fixed, Space};
/// let mut pos = vec![0.0; 3 * 4];
/// let vel = vec![1.0; 3 * 4];
/// par_loop(&ExecPolicy::Seq, Space::Range, Fixed::<3>(&mut pos), |w| {
///     // `x` is `&mut [f64; 3]`: no bounds check on `x[2]`.
///     w.each(|i, x| x[2] += 0.5 * vel[3 * i + 2]);
/// });
/// assert_eq!(pos[11], 0.5);
/// ```
///
/// Panics unless every column holds exactly `n·dim` values, where `n`
/// is the first column's element count.
pub fn par_loop<C, F>(policy: &ExecPolicy, space: Space<'_>, cols: C, f: F)
where
    C: Cols,
    F: Fn(Window<C>) + Sync,
{
    dispatch(carve(policy, space, cols), |windows| {
        windows.into_iter().for_each(&f)
    });
}

/// [`par_loop`] for fused mover kernels (CabanaPIC's `Move_Deposit`)
/// that also increment `target`: `f` gets its piece's target array and
/// [`Tally`] with every window, and the merged tally is returned. The
/// cell column (`&mut [i32]`) is carved like any other column; cell-id
/// writes go through the window, so the caller must mark the store
/// dirty.
///
/// Increments follow [`scatter_pieces`]: under `Seq` the loop is one
/// piece whose array is `target` itself, written in element order;
/// under a parallel policy each piece of `space` fills a private zeroed
/// array, and the arrays and tallies are reduced in piece order.
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
    F: Fn(&mut [f64], &mut T, Window<C>) + Sync,
{
    let pieces = carve(policy, space, cols);
    scatter_pieces(policy, pieces, target, |windows, acc, tally: &mut T| {
        for w in windows {
            f(acc, tally, w);
        }
    })
}

/// Loop over the elements of one dat: `f(i, element)`, as
/// [`par_loop`] over a [`Space::Range`]. The dat's width is a run-time
/// value, so elements are `dim`-long slices.
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

    /// Columns of dim 3, 1 and 4, and the cell column.
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
            c: col(4),
            cells: (0..N).map(|i| cell_of(i) as i32).collect(),
        }
    }

    /// Element update that is not idempotent, so a missed or doubled
    /// visit shows.
    fn bump(i: usize, x: &mut [f64]) {
        for (k, v) in x.iter_mut().enumerate() {
            *v = *v * 1.5 + (i + k) as f64;
        }
    }

    /// Cell-column update.
    fn hop(cl: &mut i32) {
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
        k: impl Fn(usize, C::Elem) + Sync,
    ) -> u64 {
        let caller = std::thread::current().id();
        let inline = || {
            if !pol.is_parallel() {
                assert_eq!(std::thread::current().id(), caller, "Seq runs inline");
            }
        };
        match value {
            None => {
                par_loop(pol, space, cols, |w| {
                    inline();
                    w.each(&k);
                });
                0
            }
            Some(value) => par_loop_scatter(pol, space, cols, target, |acc, n: &mut u64, w| {
                inline();
                w.each(|i, e| {
                    acc[cell_of(i)] += value(i);
                    *n += 1;
                    k(i, e);
                });
            }),
        }
    }

    /// One table case through the executor, over the first `arity`
    /// columns of [`data`]: runtime-width `(dim, values)` columns, or
    /// [`Fixed`] ones (N = 3, 1, 4) when `fixed`.
    fn run(
        pol: &ExecPolicy,
        space: Space<'_>,
        arity: usize,
        fixed: bool,
        value: Option<Value>,
    ) -> (Data, Vec<f64>, u64) {
        let mut d = data();
        let mut target = vec![0.0; 6];
        let (a, b, c, cells) = (&mut d.a[..], &mut d.b[..], &mut d.c[..], &mut d.cells[..]);
        let t = &mut target;
        // The element kernels take `&mut [f64]`, so one body serves
        // both forms: a fixed element coerces to a slice.
        macro_rules! case {
            ($a:expr, $b:expr, $c:expr) => {
                match arity {
                    1 => exec(pol, space, $a, t, value, |i, x| bump(i, x)),
                    2 => exec(pol, space, ($a, $b), t, value, |i, (x, y)| {
                        bump(i, x);
                        bump(i, y);
                    }),
                    3 => exec(pol, space, ($a, $b, $c), t, value, |i, (x, y, z)| {
                        bump(i, x);
                        bump(i, y);
                        bump(i, z);
                    }),
                    _ => exec(
                        pol,
                        space,
                        ($a, $b, $c, cells),
                        t,
                        value,
                        |i, (x, y, z, cl)| {
                            bump(i, x);
                            bump(i, y);
                            bump(i, z);
                            hop(cl);
                        },
                    ),
                }
            };
        }
        let n = if fixed {
            case!(Fixed::<3>(a), Fixed::<1>(b), Fixed::<4>(c))
        } else {
            case!((3, a), (1, b), (4, c))
        };
        (d, target, n)
    }

    /// The same case as the plain serial loop and left fold.
    fn serial(arity: usize, value: Option<Value>) -> (Data, Vec<f64>, u64) {
        let mut d = data();
        let mut target = vec![0.0; 6];
        for i in 0..N {
            bump(i, &mut d.a[i * 3..i * 3 + 3]);
            if arity >= 2 {
                bump(i, &mut d.b[i..i + 1]);
            }
            if arity >= 3 {
                bump(i, &mut d.c[i * 4..i * 4 + 4]);
            }
            if arity >= 4 {
                hop(&mut d.cells[i]);
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
        let spaces: Vec<Space> = std::iter::once(Space::Range)
            .chain(bindings.iter().map(Space::Binding))
            .collect();
        let integer: Value = |i| i as f64;
        let fraction: Value = |i| 0.1 * i as f64 + 1e-3;
        for (arity, fixed) in (1..=4).flat_map(|a| [(a, false), (a, true)]) {
            for &space in &spaces {
                let case = format!("{space:?} arity {arity} fixed {fixed}");
                // The plain form equals the serial loop bit for bit;
                // integer increments sum exactly in any order, so the
                // scatter form does too on every policy and cut.
                for pol in policies() {
                    for value in [None, Some(integer)] {
                        let expect = serial(arity, value);
                        let got = run(&pol, space, arity, fixed, value);
                        assert_eq!(got, expect, "{pol:?} {case}");
                    }
                }
                // Seq is one exclusive piece: the left fold, bit for bit.
                let fold = serial(arity, Some(fraction));
                assert_eq!(
                    run(&ExecPolicy::Seq, space, arity, fixed, Some(fraction)),
                    fold,
                    "{case}"
                );
                // Parallel pieces are reduced in piece order: repeated
                // runs agree bit for bit.
                let pool = ExecPolicy::pool(2);
                let first = run(&pool, space, arity, fixed, Some(fraction));
                for _ in 0..4 {
                    let again = run(&pool, space, arity, fixed, Some(fraction));
                    assert_eq!(again, first, "{case}");
                }
            }
        }
    }

    #[test]
    fn pieces_keep_their_cuts() {
        // Piece cuts decide parallel scatter sums, so they are pinned.
        let pool = ExecPolicy::pool(3);
        // Range: contiguous chunks of ceil(n/t).
        let range = vec![(0, 0, 4), (1, 4, 8), (2, 8, 10)];
        assert_eq!(cut(&pool, Space::Range, 10), (3, range));
        // Binding: one piece per worker, windows in slot order; the
        // tail appended since the build is dealt out evenly.
        let b = ThreadBinding::uniform(2, 6);
        let bound = vec![(0, 0, 3), (1, 3, 6), (0, 6, 7), (1, 7, 8)];
        assert_eq!(cut(&pool, Space::Binding(&b), 8), (2, bound));
        // Seq: one piece, whatever the space.
        assert_eq!(
            cut(&ExecPolicy::Seq, Space::Binding(&b), 8),
            (1, vec![(0, 0, 8)])
        );
    }

    #[test]
    fn a_binding_with_more_workers_than_threads_folds_onto_them() {
        // Five workers under three threads: worker w's windows go to
        // piece w % 3, so at most three pieces, each ascending, and the
        // windows still tile 0..n.
        let pool = ExecPolicy::pool(3);
        for (b, n) in [
            (ThreadBinding::uniform(5, 30), 30),
            // Stale: built for 7 elements, run over 30.
            (ThreadBinding::uniform(5, 7), 30),
            (ThreadBinding::from_cell_index(&CELL_START, 5), N),
        ] {
            let (pieces, cuts) = cut(&pool, Space::Binding(&b), n);
            assert!(pieces <= 3, "{pieces} pieces");
            let mut next = 0;
            for &(p, lo, hi) in &cuts {
                assert!(p < pieces && lo == next && lo < hi, "{cuts:?}");
                next = hi;
            }
            assert_eq!(next, n, "{cuts:?}");
            for (w, spans) in b.assignments(n).into_iter().enumerate() {
                for (lo, hi) in spans {
                    assert!(cuts.contains(&(w % 3, lo, hi)), "worker {w}: {cuts:?}");
                }
            }
            let mut by_piece = vec![Vec::new(); pieces];
            for &(p, lo, _) in &cuts {
                by_piece[p].push(lo);
            }
            for los in by_piece {
                assert!(los.windows(2).all(|w| w[0] < w[1]), "{los:?}");
            }
        }
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
            // elements, under every space.
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
            // Ragged fixed-width column: 10 values are not whole
            // 3-wide elements.
            panic_text(|| {
                let (mut a, mut b) = ([0.0; 10], [0.0; 3]);
                par_loop(
                    &ExecPolicy::Seq,
                    Space::Range,
                    (Fixed::<3>(&mut a), Fixed::<1>(&mut b)),
                    |_| {},
                );
            }),
        ];
        for text in texts {
            assert!(text.contains("share the iteration set"), "{text}");
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
        // Pool(3) cuts a range into three pieces, one worker thread
        // each, none of them the caller; results come back in piece
        // order.
        let caller = std::thread::current().id();
        let pieces = ranges(&ExecPolicy::pool(3), 9);
        let ran = dispatch(pieces, |r| (r, std::thread::current().id()));
        let (order, ids): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
        assert_eq!(order, vec![0..3, 3..6, 6..9]);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(!ids.contains(&caller));
    }

    #[test]
    fn empty_set_is_a_noop() {
        for pol in policies() {
            let mut d = Dat::zeros("x", 0, 3);
            par_loop_direct1(&pol, &mut d, |_, _| panic!("kernel must not run"));
        }
    }
}
