//! The particle-move executor — `opp_particle_move` (Sections 3.1.3 and
//! 3.2.2 of the paper).
//!
//! The application provides an *elemental move kernel* as two closures
//! that together report the paper's three statuses (its preprocessor
//! markers):
//!
//! * `probe(i, cell, window) -> bool` — "is particle `i` inside
//!   `cell`?". It runs once per visit and may write the particle's
//!   window; `true` is `OPP_PARTICLE_MOVE_DONE`: `cell` is the final
//!   destination.
//! * `exit(i, cell, window) -> Option<usize>` — runs only after a
//!   failed probe and sees the window that probe left. `Some(next)` is
//!   `OPP_PARTICLE_NEED_MOVE`: hop to `next` and probe again; `None` is
//!   `OPP_PARTICLE_NEED_REMOVE`: the particle left the domain.
//!
//! The engine owns the iteration ("multi-hop", MH), the optional
//! structured-overlay seeding ("direct-hop", DH), the per-particle cell
//! updates, and the removal list that the particle store's hole filling
//! consumes. It runs on the par-loop executor's pieces
//! ([`crate::parloop::Space::Range`]) in two passes per piece:
//!
//! 1. `probe` every particle in its current cell. Most particles stay
//!    put in a small-`dt` step, so this pass is a straight sweep whose
//!    only data-dependent result, the hit, is folded into counters: the
//!    index of every particle goes into slot `m` of a miss list and `m`
//!    advances by the miss flag. First-visit finishers are tallied in
//!    bulk.
//! 2. Chase the misses in ascending order: `exit`, hop, `probe`, until
//!    a probe hits or an exit says remove. Under DH the third visit is
//!    the overlay's cell for the particle instead of the second exit's
//!    `c2c` neighbour, so the overlay is read only for the particles one
//!    hop does not place.
//!
//! The cell column and one written particle column are carved into
//! per-piece windows, and every visit gets the particle's `&mut` item of
//! the written column, so a kernel can leave per-particle results of
//! its final cell behind (FemPIC's probe writes the barycentric weights
//! `lc`, which the final, successful probe leaves for the deposit). In
//! distributed runs, `oppic-mpi` wraps this engine and additionally
//! ships rank-crossing particles.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::deposit::Tally;
use crate::parloop::{carve, dispatch, Column, ExecPolicy, Fixed, Space, Window};
use crate::telemetry::HistogramSnapshot;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MoveConfig {
    /// Abort threshold for a single particle's hop chain — a kernel
    /// that cycles (e.g. an inconsistent c2c map) is reported as an
    /// error instead of hanging the simulation.
    pub max_hops: u32,
    /// Record each particle's chain length into
    /// [`MoveResult::chains`] (used by the GPU divergence analysis;
    /// costs 4 bytes/particle).
    pub record_chains: bool,
    /// Size of the cell set, when known. With `Some(n)`, every final
    /// cell a probe accepts is checked against `0..n` and violations
    /// are counted in [`MoveResult::out_of_range`] — the move engine's
    /// contribution to the analyzer's map-invariant audit (a broken
    /// kernel or c2c map would otherwise corrupt the particle→cell map
    /// silently).
    pub n_cells: Option<usize>,
}

impl Default for MoveConfig {
    fn default() -> Self {
        MoveConfig {
            max_hops: 10_000,
            record_chains: false,
            n_cells: None,
        }
    }
}

/// Outcome of a move loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveResult {
    /// Indices of particles to remove, sorted ascending — feed straight
    /// into [`crate::particles::ParticleDats::remove_fill`].
    pub removed: Vec<usize>,
    /// Total probes across all particles (≥ n): the "hops + finals"
    /// count. `total_visits - n_alive` is the extra search work a
    /// better strategy (DH) eliminates.
    pub total_visits: u64,
    /// Longest single hop chain observed.
    pub max_chain: u32,
    /// Particles whose chain hit `max_hops` (always also removed; a
    /// non-zero value indicates a broken kernel/mesh).
    pub aborted: u64,
    /// Per-particle chain lengths (empty unless
    /// [`MoveConfig::record_chains`] was set).
    pub chains: Vec<u32>,
    /// Final cells outside `0..n_cells` (only counted when
    /// [`MoveConfig::n_cells`] is set; always 0 for a correct kernel).
    pub out_of_range: u64,
    /// Surviving particles whose final cell differs from the cell the
    /// chase started in — together with `removed.len()`, the measured
    /// figure for `ParticleDats::refine_dirty`.
    pub moved: u64,
    /// Direct-hop only: particles that neither their current cell nor
    /// the one `c2c` hop from it placed, and so called the [`Seed`]
    /// (one overlay read each; published as the `move.seeded` counter).
    pub seeded: u64,
}

impl MoveResult {
    /// Mean probes per particle (1.0 = every particle already in its
    /// final cell).
    pub fn mean_visits(&self, n_particles: usize) -> f64 {
        if n_particles == 0 {
            0.0
        } else {
            self.total_visits as f64 / n_particles as f64
        }
    }
}

/// Where a particle's search goes after its current cell: `None` walks
/// on from it along the `exit` chain (multi-hop). `Some(seed)`
/// (direct-hop) probes the current cell and takes one hop to the cell
/// its `exit` names; only when that second probe misses too does the
/// search jump to `seed(i)` — typically the structured overlay's
/// `locate(new_position)`, Figure 7(b) — and walk on from there. An
/// `exit` of `None` at any visit removes the particle without a seed.
/// A hit is exact (the probe accepts only a containing cell) and every
/// miss is a real visit, counted in [`MoveResult::total_visits`].
pub type Seed<'a> = Option<&'a (dyn Fn(usize) -> usize + Sync)>;

/// A column the move engine reaches by index: a window of it is one
/// slice of per-particle items, so the second pass goes straight to
/// its misses. A [`Fixed`] column's item is `[f64; N]`; `()` (no
/// written column) has `()` items.
pub trait Items<'a>: Column {
    type Item: 'a;
    /// The window's `n` elements as a slice.
    fn items(self, n: usize) -> &'a mut [Self::Item];
}

impl<'a, const N: usize> Items<'a> for Fixed<'a, N> {
    type Item = [f64; N];

    fn items(self, n: usize) -> &'a mut [[f64; N]] {
        let (items, _) = self.0.as_chunks_mut::<N>();
        debug_assert_eq!(items.len(), n);
        items
    }
}

impl<'a> Items<'a> for () {
    type Item = ();

    fn items(self, n: usize) -> &'a mut [()] {
        // A vector of zero-sized items never allocates, so leaking it
        // costs nothing.
        vec![(); n].leak()
    }
}

/// The move loop: every particle is probed in its current cell and, on
/// a miss, follows its `exit` chain — under direct-hop with a [`Seed`]
/// jump when its first two probes both miss — to a probe that hits (its
/// new `cells[i]`) or an `exit` of `None` (listed in
/// [`MoveResult::removed`]).
///
/// ```
/// use oppic_core::{move_loop, ExecPolicy, Fixed, MoveConfig};
/// // Walk two particles along a 1-D row of cells to their targets,
/// // leaving each one's probe count in `probes`.
/// let targets = [4usize, 1];
/// let mut cells = vec![0i32, 3];
/// let mut probes = vec![0.0; 2];
/// let r = move_loop(
///     &ExecPolicy::Seq,
///     MoveConfig::default(),
///     &mut cells,
///     None,
///     Fixed::<1>(&mut probes),
///     |i, c, p| {
///         p[0] += 1.0;
///         c == targets[i]
///     },
///     |i, c, _| Some(if c < targets[i] { c + 1 } else { c - 1 }),
/// );
/// assert_eq!(cells, vec![4, 1]);
/// assert_eq!(probes, vec![5.0, 3.0]);
/// assert!(r.removed.is_empty());
/// ```
///
/// `probe(i, cell, item)` gets particle `i`'s `&mut` item of `cols` —
/// a [`Fixed`] column the kernel writes, or `()` when it writes nothing
/// — on every visit; `exit(i, cell, item)` gets the item the failed
/// probe left. Both must be safe to call concurrently for distinct `i`;
/// they typically read the particle's position and per-cell geometry
/// (captured by the closures).
///
/// Panics unless the column holds exactly `cells.len() · dim` values.
pub fn move_loop<'c, C, P, X>(
    policy: &ExecPolicy,
    cfg: MoveConfig,
    cells: &mut [i32],
    seed: Seed<'_>,
    cols: C,
    probe: P,
    exit: X,
) -> MoveResult
where
    C: Items<'c>,
    P: Fn(usize, usize, &mut C::Item) -> bool + Sync,
    X: Fn(usize, usize, &C::Item) -> Option<usize> + Sync,
{
    let hops_hist = crate::telemetry::hist("move.hops_per_particle");
    let record_hops = hops_hist.is_some();
    // Every particle is probed at least once; a miss overwrites its 1.
    let chain_log: Vec<AtomicU32> = if cfg.record_chains {
        (0..cells.len()).map(|_| AtomicU32::new(1)).collect()
    } else {
        Vec::new()
    };
    let over = |cell: usize| cfg.n_cells.is_some_and(|n| cell >= n);

    // Pass 2's chase of one particle whose probe of its current cell
    // `start` missed; returns Some(final_cell) or None (remove).
    let chase = |t: &mut MoveTally, i: usize, start: usize, e: &mut C::Item| -> Option<usize> {
        let finish = |t: &mut MoveTally, chain: u32| {
            t.total_visits += chain as u64;
            t.max_chain = t.max_chain.max(chain);
            if let Some(slot) = chain_log.get(i) {
                slot.store(chain, Ordering::Relaxed);
            }
            if record_hops {
                t.hops.record(chain as u64);
            }
        };
        let mut cell = start;
        let mut chain = 1u32;
        loop {
            let Some(next) = exit(i, cell, e) else {
                finish(t, chain);
                return None;
            };
            let next = match seed {
                // Direct-hop: neither the current cell nor its `c2c`
                // neighbour holds the particle, so the walk restarts
                // from the overlay's cell.
                Some(seed) if chain == 2 => {
                    t.seeded += 1;
                    seed(i)
                }
                _ => next,
            };
            if chain >= cfg.max_hops {
                t.aborted += 1;
                finish(t, chain);
                return None;
            }
            cell = next;
            chain += 1;
            if probe(i, cell, e) {
                t.out_of_range += u64::from(over(cell));
                finish(t, chain);
                return Some(cell);
            }
        }
    };

    // One piece: probe every particle in its window, then chase the
    // misses. Range pieces are ascending and so are a piece's misses,
    // so the removal lists concatenate in order.
    let pieces = carve(policy, Space::Range, (cells, cols));
    let (removed, tally) = dispatch(pieces, |windows| {
        let mut removed = Vec::new();
        let mut t = MoveTally::default();
        for Window {
            first,
            cols: (cells, items),
        } in windows
        {
            let items = items.items(cells.len());
            // Pass 1: branch-free compaction of the misses.
            let mut misses = vec![0usize; cells.len()];
            let mut m = 0;
            let mut out_of_range = 0;
            for (k, (c, e)) in cells.iter().zip(items.iter_mut()).enumerate() {
                let cell = *c as usize;
                let hit = probe(first + k, cell, e);
                misses[m] = k;
                m += usize::from(!hit);
                out_of_range += u64::from(hit & over(cell));
            }
            t.first_visit_finishers((cells.len() - m) as u64, out_of_range, record_hops);
            // Pass 2: chase the misses.
            for &k in &misses[..m] {
                let start = cells[k];
                match chase(&mut t, first + k, start as usize, &mut items[k]) {
                    Some(final_cell) => {
                        t.moved += u64::from(final_cell as i32 != start);
                        cells[k] = final_cell as i32;
                    }
                    None => removed.push(first + k),
                }
            }
        }
        (removed, t)
    })
    .into_iter()
    .reduce(|(mut a, mut ta), (mut b, tb)| {
        a.append(&mut b);
        ta.merge(tb);
        (a, ta)
    })
    .unwrap_or_default();

    // `ParticleDats::remove_fill` consumes this list assuming sorted
    // unique ascending indices.
    debug_assert!(
        removed.windows(2).all(|w| w[0] < w[1]),
        "removal list must be strictly ascending"
    );

    if let Some(h) = &hops_hist {
        h.merge_snapshot(&tally.hops);
    }
    let result = MoveResult {
        removed,
        total_visits: tally.total_visits,
        max_chain: tally.max_chain,
        aborted: tally.aborted,
        chains: chain_log.into_iter().map(AtomicU32::into_inner).collect(),
        out_of_range: tally.out_of_range,
        moved: tally.moved,
        seeded: tally.seeded,
    };
    crate::telemetry::count("move.relocated", result.moved);
    crate::telemetry::count("move.removed", result.removed.len() as u64);
    crate::telemetry::count("move.visits", result.total_visits);
    crate::telemetry::count("move.aborted", result.aborted);
    crate::telemetry::count("move.out_of_range", result.out_of_range);
    crate::telemetry::count("move.seeded", result.seeded);
    result
}

/// Per-piece tallies of a move loop. Each piece of the loop (the
/// whole set under `Seq`, one Range piece otherwise) fills its own
/// with plain adds; the tallies are merged in piece order and
/// published once per loop.
#[derive(Default)]
struct MoveTally {
    total_visits: u64,
    max_chain: u32,
    aborted: u64,
    out_of_range: u64,
    moved: u64,
    seeded: u64,
    /// Chain lengths for `move.hops_per_particle` (filled only while a
    /// telemetry hub is current).
    hops: HistogramSnapshot,
}

impl MoveTally {
    /// `hits` particles whose first probe hit: one visit each, a chain
    /// of 1, `out_of_range` of them outside the audited cell set.
    fn first_visit_finishers(&mut self, hits: u64, out_of_range: u64, record_hops: bool) {
        self.total_visits += hits;
        if hits > 0 {
            self.max_chain = self.max_chain.max(1);
        }
        self.out_of_range += out_of_range;
        if record_hops {
            self.hops.record_n(1, hits);
        }
    }
}

impl Tally for MoveTally {
    fn merge(&mut self, other: MoveTally) {
        self.total_visits += other.total_visits;
        self.max_chain = self.max_chain.max(other.max_chain);
        self.aborted += other.aborted;
        self.out_of_range += other.out_of_range;
        self.moved += other.moved;
        self.seeded += other.seeded;
        self.hops.merge(&other.hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A 1-D "mesh" of cells in a row: a particle is inside its target
    /// cell ...
    fn walk_probe(targets: &[usize]) -> impl Fn(usize, usize, &mut ()) -> bool + Sync + Copy + '_ {
        move |i, cell, _| cell == targets[i]
    }

    /// ... and exits one hop towards it.
    fn walk_exit(
        targets: &[usize],
    ) -> impl Fn(usize, usize, &()) -> Option<usize> + Sync + Copy + '_ {
        move |i, cell, _| {
            Some(if cell < targets[i] {
                cell + 1
            } else {
                cell - 1
            })
        }
    }

    /// [`move_loop`] with no written column and the default config.
    fn run_walk(
        pol: &ExecPolicy,
        cells: &mut [i32],
        seed: Seed<'_>,
        targets: &[usize],
    ) -> MoveResult {
        let (probe, exit) = (walk_probe(targets), walk_exit(targets));
        move_loop(pol, MoveConfig::default(), cells, seed, (), probe, exit)
    }

    #[test]
    fn multihop_reaches_targets() {
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let targets = vec![5usize, 0, 3, 9, 2];
            let mut cells = vec![0i32, 0, 3, 1, 7];
            let r = run_walk(&pol, &mut cells, None, &targets);
            assert!(r.removed.is_empty());
            assert_eq!(cells, vec![5, 0, 3, 9, 2]);
            // visits: |0-5|+1 + 1 + 1 + |1-9|+1 + |7-2|+1 = 6+1+1+9+6 = 23
            assert_eq!(r.total_visits, 23);
            assert_eq!(r.max_chain, 9);
            assert_eq!(r.aborted, 0);
            assert!((r.mean_visits(5) - 4.6).abs() < 1e-12);
            // Particles 0, 3 and 4 changed cell; 1 and 2 stayed put.
            assert_eq!(r.moved, 3);
        }
    }

    #[test]
    fn removal_collects_sorted_indices() {
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut cells: Vec<i32> = (0..100).collect();
            // Remove every particle whose index is divisible by 7.
            let r = move_loop(
                &pol,
                MoveConfig::default(),
                &mut cells,
                None,
                (),
                |i, _, _| i % 7 != 0,
                |_, _, _| None,
            );
            let expect: Vec<usize> = (0..100).filter(|i| i % 7 == 0).collect();
            assert_eq!(r.removed, expect);
        }
    }

    #[test]
    fn direct_hop_uses_seed_and_visits_less() {
        let targets: Vec<usize> = (0..64).map(|i| (i * 13) % 50).collect();
        let mut cells_mh = vec![0i32; 64];
        let r_mh = run_walk(&ExecPolicy::Seq, &mut cells_mh, None, &targets);

        let mut cells_dh = vec![0i32; 64];
        // Perfect overlay: seed == target (a fine DH approximation).
        let r_dh = run_walk(
            &ExecPolicy::Seq,
            &mut cells_dh,
            Some(&|i| targets[i]),
            &targets,
        );
        assert_eq!(cells_mh, cells_dh);
        // Particles 0 and 50 target cell 0 and stop at the probe;
        // particle 27 targets cell 1 and stops after the one hop; the
        // other 61 miss both and land on the perfect seed:
        // 2·1 + 1·2 + 61·3.
        assert_eq!(r_dh.total_visits, 187, "probe + hop + perfect seed");
        assert_eq!(r_dh.seeded, 61);
        assert!(r_dh.total_visits < r_mh.total_visits);
    }

    /// A direct-hop seed that counts its calls (overlay reads).
    fn counted_seed<'a>(
        calls: &'a std::sync::atomic::AtomicUsize,
        targets: &'a [usize],
    ) -> impl Fn(usize) -> usize + Sync + 'a {
        move |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            targets[i]
        }
    }

    #[test]
    fn direct_hop_probes_the_current_cell_before_the_seed() {
        use std::sync::atomic::AtomicUsize;
        // Particles 0..4 stay in their cell; 4..8 moved two cells on.
        let targets: Vec<usize> = (0..8).map(|i| if i < 4 { i } else { i + 2 }).collect();
        let calls = AtomicUsize::new(0);
        let seed = counted_seed(&calls, &targets);
        for pol in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
            calls.store(0, Ordering::Relaxed);
            let mut cells: Vec<i32> = (0..8).collect();
            let r = run_walk(&pol, &mut cells, Some(&seed), &targets);
            let expect: Vec<i32> = targets.iter().map(|&t| t as i32).collect();
            assert_eq!(cells, expect, "{pol:?}");
            // Only the four movers read the overlay, after the probe
            // and the one hop both missed.
            assert_eq!(calls.load(Ordering::Relaxed), 4, "{pol:?}");
            assert_eq!(r.seeded, 4, "{pol:?}");
            assert_eq!(r.total_visits, 4 + 4 * 3, "{pol:?}");
            assert_eq!(r.moved, 4, "{pol:?}");
        }
    }

    #[test]
    fn direct_hop_one_hop_hit_skips_the_seed() {
        use std::sync::atomic::AtomicUsize;
        // Every particle moved one cell on, so the probe after the
        // `c2c` hop from its current cell hits: the overlay is never
        // read.
        let targets: Vec<usize> = (0..8).map(|i| i + 1).collect();
        let calls = AtomicUsize::new(0);
        let seed = counted_seed(&calls, &targets);
        for pol in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
            calls.store(0, Ordering::Relaxed);
            let mut cells: Vec<i32> = (0..8).collect();
            let r = run_walk(&pol, &mut cells, Some(&seed), &targets);
            assert_eq!(cells, (1..9).collect::<Vec<i32>>(), "{pol:?}");
            assert_eq!(calls.load(Ordering::Relaxed), 0, "{pol:?}");
            assert_eq!(r.seeded, 0, "{pol:?}");
            assert_eq!(r.total_visits, 8 * 2, "{pol:?}");
            assert_eq!(r.moved, 8, "{pol:?}");
        }
    }

    #[test]
    fn direct_hop_removal_ends_the_chase_without_the_seed() {
        use std::sync::atomic::AtomicUsize;
        // An `exit` of `None` ends the chase at every visit, as under
        // multi-hop: particles 0..4 leave through a boundary face of
        // their current cell (the probe), 4..8 through one of the
        // neighbour the hop reached. No particle reads the overlay.
        let targets = vec![0usize; 8];
        let calls = AtomicUsize::new(0);
        let seed = counted_seed(&calls, &targets);
        for pol in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
            calls.store(0, Ordering::Relaxed);
            let mut cells: Vec<i32> = (0..8).map(|i| 10 * i).collect();
            let r = move_loop(
                &pol,
                MoveConfig::default(),
                &mut cells,
                Some(&seed),
                (),
                |_, _, _| false,
                |i, cell, _| match (i < 4, cell % 10) {
                    (true, 0) | (false, 1) => None,
                    _ => Some(cell + 1),
                },
            );
            assert_eq!(r.removed, (0..8).collect::<Vec<usize>>(), "{pol:?}");
            assert_eq!(calls.load(Ordering::Relaxed), 0, "{pol:?}");
            assert_eq!(r.seeded, 0, "{pol:?}");
            assert_eq!(r.total_visits, 4 + 4 * 2, "{pol:?}");
        }
    }

    #[test]
    fn imperfect_seed_falls_back_to_multihop() {
        let targets = vec![10usize; 8];
        let mut cells = vec![0i32; 8];
        // Seed lands 2 cells short, engine walks the rest.
        let r = run_walk(&ExecPolicy::Par, &mut cells, Some(&|_| 8usize), &targets);
        assert!(r.removed.is_empty());
        assert!(cells.iter().all(|&c| c == 10));
        assert_eq!(r.max_chain, 5); // probe 0, hop 1, seed 8 -> 9 -> 10(done)
        assert_eq!(r.seeded, 8);
    }

    #[test]
    fn cycling_kernel_is_aborted_not_hung() {
        let mut cells = vec![0i32, 0];
        let r = move_loop(
            &ExecPolicy::Seq,
            MoveConfig {
                max_hops: 50,
                ..Default::default()
            },
            &mut cells,
            None,
            (),
            |_, _, _| false,
            |_i, cell, _| Some(1 - cell), // ping-pong forever
        );
        assert_eq!(r.aborted, 2);
        assert_eq!(r.removed, vec![0, 1]);
        assert_eq!(r.max_chain, 50);
    }

    #[test]
    fn empty_particle_set() {
        let mut cells: Vec<i32> = vec![];
        let r = move_loop(
            &ExecPolicy::Par,
            MoveConfig::default(),
            &mut cells,
            None,
            (),
            |_, _, _| true,
            |_, _, _| None,
        );
        assert!(r.removed.is_empty());
        assert_eq!(r.total_visits, 0);
        assert_eq!(r.mean_visits(0), 0.0);
    }

    #[test]
    fn mean_visits_guards_division_by_zero() {
        // A populated result queried with zero alive particles (every
        // particle removed mid-step) must report 0.0, not NaN/inf.
        let r = MoveResult {
            total_visits: 23,
            ..MoveResult::default()
        };
        assert_eq!(r.mean_visits(0), 0.0);
        assert!(r.mean_visits(0).is_finite());
        assert!((r.mean_visits(5) - 4.6).abs() < 1e-12);
        // And a zero-visit result stays 0 for any divisor.
        assert_eq!(MoveResult::default().mean_visits(7), 0.0);
    }

    #[test]
    fn chain_recording() {
        let targets = vec![3usize, 0, 5];
        let mut cells = vec![0i32, 0, 0];
        let cfg = MoveConfig {
            record_chains: true,
            ..Default::default()
        };
        let (probe, exit) = (walk_probe(&targets), walk_exit(&targets));
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut c = cells.clone();
            let r = move_loop(&pol, cfg, &mut c, None, (), probe, exit);
            assert_eq!(r.chains, vec![4, 1, 6], "{pol:?}");
        }
        // Off by default.
        let r = run_walk(&ExecPolicy::Seq, &mut cells, None, &targets);
        assert!(r.chains.is_empty());
    }

    #[test]
    fn out_of_range_final_cells_are_counted() {
        // 12 exceeds the 10-cell set; particle 3 starts out of range
        // and its first probe accepts it there.
        let targets = vec![3usize, 12, 5, 11];
        let cfg = MoveConfig {
            n_cells: Some(10),
            ..Default::default()
        };
        let (probe, exit) = (walk_probe(&targets), walk_exit(&targets));
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut cells = vec![0i32, 0, 0, 11];
            let r = move_loop(&pol, cfg, &mut cells, None, (), probe, exit);
            assert_eq!(r.out_of_range, 2, "{pol:?}");
        }
        // Without the audit hook nothing is counted.
        let mut cells = vec![0i32, 0, 0, 11];
        let r = run_walk(&ExecPolicy::Seq, &mut cells, None, &targets);
        assert_eq!(r.out_of_range, 0);
    }

    /// 500 particles walking to scattered targets on a 200-cell row:
    /// every 9th one leaves the domain through its target cell (its
    /// probe never hits) ...
    fn mixed_probe(targets: &[usize]) -> impl Fn(usize, usize, &mut ()) -> bool + Sync + Copy + '_ {
        let probe = walk_probe(targets);
        move |i, cell, w| i % 9 != 0 && probe(i, cell, w)
    }

    /// ... and every 50th reports a final cell outside the audited
    /// 0..190 range ([`mixed_targets`]).
    fn mixed_exit(
        targets: &[usize],
    ) -> impl Fn(usize, usize, &()) -> Option<usize> + Sync + Copy + '_ {
        let exit = walk_exit(targets);
        move |i, cell, w| {
            if i % 9 == 0 && cell == targets[i] {
                None
            } else {
                exit(i, cell, w)
            }
        }
    }

    fn mixed_targets() -> Vec<usize> {
        (0..500)
            .map(|i| if i % 50 == 7 { 195 } else { (i * 31 + 7) % 190 })
            .collect()
    }

    #[test]
    fn seq_and_pool_tallies_agree() {
        let targets = mixed_targets();
        let cfg = MoveConfig {
            n_cells: Some(190),
            ..Default::default()
        };
        let (probe, exit) = (mixed_probe(&targets), mixed_exit(&targets));
        let run = |pol: &ExecPolicy| {
            let mut cells: Vec<i32> = (0..500).map(|i| i % 200).collect();
            let r = move_loop(pol, cfg, &mut cells, None, (), probe, exit);
            (r, cells)
        };
        let (seq, seq_cells) = run(&ExecPolicy::Seq);
        assert!(!seq.removed.is_empty() && seq.out_of_range > 0 && seq.moved > 0);
        for pol in [ExecPolicy::pool(2), ExecPolicy::pool(3), ExecPolicy::Par] {
            let (par, par_cells) = run(&pol);
            assert_eq!(par.removed, seq.removed, "{pol:?}");
            assert_eq!(par.total_visits, seq.total_visits, "{pol:?}");
            assert_eq!(par.max_chain, seq.max_chain, "{pol:?}");
            assert_eq!(par.moved, seq.moved, "{pol:?}");
            assert_eq!(par.out_of_range, seq.out_of_range, "{pol:?}");
            assert_eq!(par.aborted, seq.aborted, "{pol:?}");
            assert_eq!(par_cells, seq_cells, "{pol:?}");
        }
    }

    #[test]
    fn hops_histogram_matches_per_particle_records() {
        use crate::telemetry::{Histogram, Telemetry};
        use std::sync::Arc;
        let targets: Vec<usize> = (0..300).map(|i| (i * 17 + 3) % 120).collect();
        let cfg = MoveConfig {
            record_chains: true,
            ..Default::default()
        };
        let (mixed_probe, mixed_exit) = (mixed_probe(&targets), mixed_exit(&targets));
        let (probe, exit) = (walk_probe(&targets), walk_exit(&targets));
        for pol in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
            let tel = Arc::new(Telemetry::new());
            let _cur = tel.make_current();
            let mut cells: Vec<i32> = (0..300).map(|i| i % 120).collect();
            // Two loops: the second merge lands on a non-empty hub.
            let r1 = move_loop(
                &pol,
                cfg,
                &mut cells.clone(),
                None,
                (),
                mixed_probe,
                mixed_exit,
            );
            let r2 = move_loop(&pol, cfg, &mut cells, None, (), probe, exit);
            let expect = Histogram::new();
            for &chain in r1.chains.iter().chain(&r2.chains) {
                expect.record(chain as u64);
            }
            let got = tel.histogram("move.hops_per_particle").snapshot();
            assert_eq!(got, expect.snapshot(), "{pol:?}");
            assert_eq!(got.sum, r1.total_visits + r2.total_visits, "{pol:?}");
        }
    }

    #[test]
    fn kernels_write_their_particles_windows() {
        // Every probe counts into the particle's window and records the
        // cell it tested there, so the final, successful probe leaves
        // the final cell; every exit sees what its failed probe wrote.
        // Under every policy and cut.
        let targets: Vec<usize> = (0..300).map(|i| (i * 7 + 1) % 90).collect();
        let (hit, step) = (walk_probe(&targets), walk_exit(&targets));
        let run = |pol: &ExecPolicy| {
            let mut cells: Vec<i32> = (0..300).map(|i| i % 90).collect();
            let mut out = vec![0.0; 600];
            let cfg = MoveConfig {
                record_chains: true,
                ..Default::default()
            };
            let r = move_loop(
                pol,
                cfg,
                &mut cells,
                None,
                Fixed::<2>(&mut out),
                |i, cell, w| {
                    w[0] += 1.0;
                    w[1] = cell as f64;
                    hit(i, cell, &mut ())
                },
                |i, cell, w| {
                    assert_eq!(w[1], cell as f64, "particle {i}");
                    step(i, cell, &())
                },
            );
            (out, cells, r.chains)
        };
        let (out, cells, chains) = run(&ExecPolicy::Seq);
        for (i, w) in out.chunks(2).enumerate() {
            assert_eq!(w, [chains[i] as f64, targets[i] as f64], "particle {i}");
            assert_eq!(cells[i] as usize, targets[i]);
        }
        for pol in [ExecPolicy::pool(2), ExecPolicy::pool(3), ExecPolicy::Par] {
            assert_eq!(
                run(&pol),
                (out.clone(), cells.clone(), chains.clone()),
                "{pol:?}"
            );
        }
    }

    #[test]
    fn probe_runs_once_per_visit_and_exit_once_per_miss() {
        // Mixed removals, out-of-range finals and, with a short
        // `max_hops`, aborts, under multi-hop and direct-hop.
        let targets = mixed_targets();
        let (probe, exit) = (mixed_probe(&targets), mixed_exit(&targets));
        let (probes, exits) = (AtomicU64::new(0), AtomicU64::new(0));
        let seed = |i: usize| targets[i].saturating_sub(5);
        for max_hops in [10_000, 6] {
            let cfg = MoveConfig {
                max_hops,
                ..Default::default()
            };
            for pol in [ExecPolicy::Seq, ExecPolicy::pool(2), ExecPolicy::pool(3)] {
                for seed in [None, Some(&seed as &(dyn Fn(usize) -> usize + Sync))] {
                    probes.store(0, Ordering::Relaxed);
                    exits.store(0, Ordering::Relaxed);
                    let mut cells: Vec<i32> = (0..500).map(|i| i % 200).collect();
                    let r = move_loop(
                        &pol,
                        cfg,
                        &mut cells,
                        seed,
                        (),
                        |i, cell, w| {
                            probes.fetch_add(1, Ordering::Relaxed);
                            probe(i, cell, w)
                        },
                        |i, cell, w| {
                            exits.fetch_add(1, Ordering::Relaxed);
                            exit(i, cell, w)
                        },
                    );
                    let case = format!("{pol:?} max_hops {max_hops} seeded {}", seed.is_some());
                    assert_eq!(probes.load(Ordering::Relaxed), r.total_visits, "{case}");
                    // A survivor's last probe hit; every other probe
                    // missed and ran `exit`.
                    let survivors = (500 - r.removed.len()) as u64;
                    assert_eq!(
                        exits.load(Ordering::Relaxed),
                        r.total_visits - survivors,
                        "{case}"
                    );
                    assert!(r.removed.len() > r.aborted as usize, "{case}");
                    assert_eq!(r.aborted > 0, max_hops == 6, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share the iteration set")]
    fn written_column_must_match_the_cells() {
        let mut cells = vec![0i32; 3];
        let mut out = [0.0; 4];
        move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells,
            None,
            Fixed::<2>(&mut out),
            |_, _, _| true,
            |_, _, _| None,
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let targets: Vec<usize> = (0..500).map(|i| (i * 31 + 7) % 200).collect();
        let mut cells_a: Vec<i32> = (0..500).map(|i| i % 200).collect();
        let mut cells_b = cells_a.clone();
        let ra = run_walk(&ExecPolicy::Seq, &mut cells_a, None, &targets);
        let rb = run_walk(&ExecPolicy::Par, &mut cells_b, None, &targets);
        assert_eq!(cells_a, cells_b);
        assert_eq!(ra.total_visits, rb.total_visits);
        assert_eq!(ra.removed, rb.removed);
        assert_eq!(ra.max_chain, rb.max_chain);
        assert_eq!(ra.moved, rb.moved);
    }
}
