//! The particle-move executor — `opp_particle_move` (Sections 3.1.3 and
//! 3.2.2 of the paper).
//!
//! The application provides an *elemental move kernel* which, given a
//! particle and its current candidate cell, does per-cell work and
//! reports one of three statuses (the paper's preprocessor markers):
//!
//! * [`MoveStatus::Done`] — `OPP_PARTICLE_MOVE_DONE`: this is the final
//!   destination cell;
//! * [`MoveStatus::NeedRemove`] — `OPP_PARTICLE_NEED_REMOVE`: the
//!   particle left the domain;
//! * [`MoveStatus::NeedMove`] — `OPP_PARTICLE_NEED_MOVE`: hop to the
//!   reported next cell and run the kernel again.
//!
//! The engine owns the iteration ("multi-hop", MH), the optional
//! structured-overlay seeding ("direct-hop", DH), the per-particle cell
//! updates, and the removal list that the particle store's hole filling
//! consumes. Every chase first visits the particle's current cell and,
//! on a `NeedMove`, the `c2c` neighbour it names; under DH only a miss
//! there too jumps to the overlay's cell and walks on from it, so the
//! overlay is read only for the particles one hop does not place (in a
//! small-`dt` step most stay put or cross a single face). A
//! `NeedRemove` ends the chase at any visit. It runs on the par-loop
//! executor's pieces ([`crate::parloop::Space::Range`]): the cell
//! column and one written particle column are carved into per-piece
//! windows, and every kernel visit gets the particle's `&mut` window of
//! the written column, so a kernel can leave per-particle results of
//! its final cell behind (FemPIC writes the barycentric weights `lc` on
//! `Done`). In distributed runs, `oppic-mpi` wraps this engine and
//! additionally ships rank-crossing particles.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::deposit::Tally;
use crate::parloop::{carve, dispatch, Column, ExecPolicy, Space};
use crate::telemetry::HistogramSnapshot;

/// Verdict of one elemental move-kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveStatus {
    /// Final destination cell reached.
    Done,
    /// Particle left the domain; remove it.
    NeedRemove,
    /// Keep searching from the given next cell.
    NeedMove(usize),
}

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
    /// cell a kernel reports via [`MoveStatus::Done`] is checked
    /// against `0..n` and violations are counted in
    /// [`MoveResult::out_of_range`] — the move engine's contribution to
    /// the analyzer's map-invariant audit (a broken kernel or c2c map
    /// would otherwise corrupt the particle→cell map silently).
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
#[derive(Debug, Clone, Default)]
pub struct MoveResult {
    /// Indices of particles to remove, sorted ascending — feed straight
    /// into [`crate::particles::ParticleDats::remove_fill`].
    pub removed: Vec<usize>,
    /// Total kernel invocations across all particles (≥ n): the
    /// "hops + finals" count. `total_visits - n_alive` is the extra
    /// search work a better strategy (DH) eliminates.
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
    /// Mean kernel visits per particle (1.0 = every particle already in
    /// its final cell).
    pub fn mean_visits(&self, n_particles: usize) -> f64 {
        if n_particles == 0 {
            0.0
        } else {
            self.total_visits as f64 / n_particles as f64
        }
    }
}

/// Where a particle's search goes after its current cell: `None` walks
/// on from it along the kernel's `NeedMove` chain (multi-hop).
/// `Some(seed)` (direct-hop) probes the current cell and takes one hop
/// to the `NeedMove` cell it names; only when that second visit is a
/// `NeedMove` too does the search jump to `seed(i)` — typically the
/// structured overlay's `locate(new_position)`, Figure 7(b) — and walk
/// on from there. A `NeedRemove` at any visit removes the particle
/// without a seed. A hit is exact (the kernel says `Done` only for a
/// containing cell) and every miss is a real visit, counted in
/// [`MoveResult::total_visits`].
pub type Seed<'a> = Option<&'a (dyn Fn(usize) -> usize + Sync)>;

/// The move loop: every particle is visited in its current cell and
/// follows the kernel's `NeedMove` chain — under direct-hop with a
/// [`Seed`] jump when its first two visits both say `NeedMove` — to a
/// `Done` (its new `cells[i]`) or a `NeedRemove` (listed in
/// [`MoveResult::removed`]).
///
/// ```
/// use oppic_core::{move_loop, ExecPolicy, Fixed, MoveConfig, MoveStatus};
/// // Walk two particles along a 1-D row of cells to their targets,
/// // leaving each one's hop count in `hops`.
/// let targets = [4usize, 1];
/// let mut cells = vec![0i32, 3];
/// let mut hops = vec![0.0; 2];
/// let cols = Fixed::<1>(&mut hops);
/// let r = move_loop(&ExecPolicy::Seq, MoveConfig::default(), &mut cells, None, cols, |i, c, h| {
///     match targets[i] {
///         t if c == t => MoveStatus::Done,
///         t => {
///             h[0] += 1.0;
///             MoveStatus::NeedMove(if c < t { c + 1 } else { c - 1 })
///         }
///     }
/// });
/// assert_eq!(cells, vec![4, 1]);
/// assert_eq!(hops, vec![4.0, 2.0]);
/// assert!(r.removed.is_empty());
/// ```
///
/// `kernel(i, cell, window)` gets particle `i`'s `&mut` element of
/// `cols` — a [`crate::Fixed`] column the kernel writes, or `()` when
/// it writes nothing — on every visit. It must be safe to call
/// concurrently for distinct `i`; it typically reads the particle's
/// position and per-cell geometry (captured by the closure) and writes
/// the final cell's per-particle results into its window on `Done`.
///
/// Panics unless the column holds exactly `cells.len() · dim` values.
pub fn move_loop<C, K>(
    policy: &ExecPolicy,
    cfg: MoveConfig,
    cells: &mut [i32],
    seed: Seed<'_>,
    cols: C,
    kernel: K,
) -> MoveResult
where
    C: Column,
    K: Fn(usize, usize, &mut C::Elem) -> MoveStatus + Sync,
{
    let hops_hist = crate::telemetry::hist("move.hops_per_particle");
    let record_hops = hops_hist.is_some();
    let chain_log: Vec<AtomicU32> = if cfg.record_chains {
        (0..cells.len()).map(|_| AtomicU32::new(0)).collect()
    } else {
        Vec::new()
    };

    // Per-particle hop chain from the current cell; returns
    // Some(final_cell) or None (remove).
    let chase = |t: &mut MoveTally, i: usize, start: usize, w: &mut C::Elem| -> Option<usize> {
        let mut cell = start;
        let mut chain = 0u32;
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
        loop {
            chain += 1;
            let next = match (kernel(i, cell, w), seed) {
                (MoveStatus::Done, _) => {
                    if cfg.n_cells.is_some_and(|n| cell >= n) {
                        t.out_of_range += 1;
                    }
                    finish(t, chain);
                    return Some(cell);
                }
                (MoveStatus::NeedRemove, _) => {
                    finish(t, chain);
                    return None;
                }
                // Direct-hop: neither the current cell nor its `c2c`
                // neighbour holds the particle, so the walk restarts
                // from the overlay's cell.
                (MoveStatus::NeedMove(_), Some(seed)) if chain == 2 => {
                    t.seeded += 1;
                    seed(i)
                }
                (MoveStatus::NeedMove(next), _) => next,
            };
            if chain >= cfg.max_hops {
                t.aborted += 1;
                finish(t, chain);
                return None;
            }
            cell = next;
        }
    };

    // One piece: chase every particle from its current cell, then
    // relocate or list it. Range pieces are ascending, so their removal
    // lists concatenate in order.
    let pieces = carve(policy, Space::Range, (cells, cols));
    let (removed, tally) = dispatch(pieces, |windows| {
        let mut removed = Vec::new();
        let mut t = MoveTally::default();
        for w in windows {
            w.each(
                |i, (c, mut e)| match chase(&mut t, i, *c as usize, &mut e) {
                    Some(final_cell) => {
                        if final_cell as i32 != *c {
                            t.moved += 1;
                        }
                        *c = final_cell as i32;
                    }
                    None => removed.push(i),
                },
            );
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
    use crate::parloop::Fixed;

    /// A 1-D "mesh" of `n` cells in a row; kernel walks a particle
    /// towards its target cell one hop at a time.
    fn walk_kernel(targets: &[usize]) -> impl Fn(usize, usize, &mut ()) -> MoveStatus + Sync + '_ {
        move |i, cell, _| {
            let t = targets[i];
            if cell == t {
                MoveStatus::Done
            } else if cell < t {
                MoveStatus::NeedMove(cell + 1)
            } else {
                MoveStatus::NeedMove(cell - 1)
            }
        }
    }

    #[test]
    fn multihop_reaches_targets() {
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let targets = vec![5usize, 0, 3, 9, 2];
            let mut cells = vec![0i32, 0, 3, 1, 7];
            let r = move_loop(
                &pol,
                MoveConfig::default(),
                &mut cells,
                None,
                (),
                walk_kernel(&targets),
            );
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
                |i, _, _| {
                    if i % 7 == 0 {
                        MoveStatus::NeedRemove
                    } else {
                        MoveStatus::Done
                    }
                },
            );
            let expect: Vec<usize> = (0..100).filter(|i| i % 7 == 0).collect();
            assert_eq!(r.removed, expect);
        }
    }

    #[test]
    fn direct_hop_uses_seed_and_visits_less() {
        let targets: Vec<usize> = (0..64).map(|i| (i * 13) % 50).collect();
        let mut cells_mh = vec![0i32; 64];
        let r_mh = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells_mh,
            None,
            (),
            walk_kernel(&targets),
        );

        let mut cells_dh = vec![0i32; 64];
        // Perfect overlay: seed == target (a fine DH approximation).
        let r_dh = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells_dh,
            Some(&|i| targets[i]),
            (),
            walk_kernel(&targets),
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
            let r = move_loop(
                &pol,
                MoveConfig::default(),
                &mut cells,
                Some(&seed),
                (),
                walk_kernel(&targets),
            );
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
        // Every particle moved one cell on, so the `c2c` hop from its
        // current cell lands on `Done`: the overlay is never read.
        let targets: Vec<usize> = (0..8).map(|i| i + 1).collect();
        let calls = AtomicUsize::new(0);
        let seed = counted_seed(&calls, &targets);
        for pol in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
            calls.store(0, Ordering::Relaxed);
            let mut cells: Vec<i32> = (0..8).collect();
            let r = move_loop(
                &pol,
                MoveConfig::default(),
                &mut cells,
                Some(&seed),
                (),
                walk_kernel(&targets),
            );
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
        // A `NeedRemove` ends the chase at every visit, as under
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
                |i, cell, _| match (i < 4, cell % 10) {
                    (true, 0) | (false, 1) => MoveStatus::NeedRemove,
                    _ => MoveStatus::NeedMove(cell + 1),
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
        let r = move_loop(
            &ExecPolicy::Par,
            MoveConfig::default(),
            &mut cells,
            Some(&|_| 8usize),
            (),
            walk_kernel(&targets),
        );
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
            |_i, cell, _| MoveStatus::NeedMove(1 - cell), // ping-pong forever
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
            |_, _, _| MoveStatus::Done,
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
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut c = cells.clone();
            let r = move_loop(&pol, cfg, &mut c, None, (), walk_kernel(&targets));
            assert_eq!(r.chains, vec![4, 1, 6], "{pol:?}");
        }
        // Off by default.
        let r = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells,
            None,
            (),
            walk_kernel(&targets),
        );
        assert!(r.chains.is_empty());
    }

    #[test]
    fn out_of_range_final_cells_are_counted() {
        let targets = vec![3usize, 12, 5]; // 12 exceeds the 10-cell set
        let cfg = MoveConfig {
            n_cells: Some(10),
            ..Default::default()
        };
        for pol in [ExecPolicy::Seq, ExecPolicy::Par] {
            let mut cells = vec![0i32, 0, 0];
            let r = move_loop(&pol, cfg, &mut cells, None, (), walk_kernel(&targets));
            assert_eq!(r.out_of_range, 1, "{pol:?}");
        }
        // Without the audit hook nothing is counted.
        let mut cells = vec![0i32, 0, 0];
        let r = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells,
            None,
            (),
            walk_kernel(&targets),
        );
        assert_eq!(r.out_of_range, 0);
    }

    /// 500 particles walking to scattered targets on a 200-cell row:
    /// every 9th one leaves the domain, every 50th reports a final
    /// cell outside the audited 0..190 range.
    fn mixed_kernel(targets: &[usize]) -> impl Fn(usize, usize, &mut ()) -> MoveStatus + Sync + '_ {
        let walk = walk_kernel(targets);
        move |i, cell, w| {
            if i % 9 == 0 && cell == targets[i] {
                MoveStatus::NeedRemove
            } else {
                walk(i, cell, w)
            }
        }
    }

    #[test]
    fn seq_and_pool_tallies_agree() {
        let targets: Vec<usize> = (0..500)
            .map(|i| if i % 50 == 7 { 195 } else { (i * 31 + 7) % 190 })
            .collect();
        let cfg = MoveConfig {
            n_cells: Some(190),
            ..Default::default()
        };
        let run = |pol: &ExecPolicy| {
            let mut cells: Vec<i32> = (0..500).map(|i| i % 200).collect();
            let r = move_loop(pol, cfg, &mut cells, None, (), mixed_kernel(&targets));
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
                mixed_kernel(&targets),
            );
            let r2 = move_loop(&pol, cfg, &mut cells, None, (), walk_kernel(&targets));
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
        // Every visit counts into the particle's window, and `Done`
        // records the final cell there, under every policy and cut.
        let targets: Vec<usize> = (0..300).map(|i| (i * 7 + 1) % 90).collect();
        let walk = walk_kernel(&targets);
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
                    let status = walk(i, cell, &mut ());
                    if status == MoveStatus::Done {
                        w[1] = cell as f64;
                    }
                    status
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
            |_, _, _| MoveStatus::Done,
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let targets: Vec<usize> = (0..500).map(|i| (i * 31 + 7) % 200).collect();
        let mut cells_a: Vec<i32> = (0..500).map(|i| i % 200).collect();
        let mut cells_b = cells_a.clone();
        let ra = move_loop(
            &ExecPolicy::Seq,
            MoveConfig::default(),
            &mut cells_a,
            None,
            (),
            walk_kernel(&targets),
        );
        let rb = move_loop(
            &ExecPolicy::Par,
            MoveConfig::default(),
            &mut cells_b,
            None,
            (),
            walk_kernel(&targets),
        );
        assert_eq!(cells_a, cells_b);
        assert_eq!(ra.total_visits, rb.total_visits);
        assert_eq!(ra.removed, rb.removed);
        assert_eq!(ra.max_chain, rb.max_chain);
        assert_eq!(ra.moved, rb.moved);
    }
}
