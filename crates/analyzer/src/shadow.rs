//! Pass 2 — the shadow race detector.
//!
//! The static pass reasons about descriptors; this pass reasons about
//! what a kernel *actually touches*. The loop body is replayed
//! sequentially against a [`ShadowCtx`] that records each iteration's
//! read/write/increment footprint per `(dat, element)` location. The
//! recorded run is then checked against the *parallel* schedule the
//! plan intends: two iterations that would run concurrently and touch
//! the same location with a conflicting access pair are reported as a
//! race.
//!
//! The detector validates the machinery the executors rely on — in
//! particular that a [`oppic_core::greedy_color_cells`] coloring
//! really separates every write-sharing pair, and that a scatter /
//! atomic deposit only ever conflicts through increments (which those
//! strategies make safe).

use crate::diag::Diagnostic;
use std::collections::HashMap;

/// How one iteration touched one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// A commutative `+=` — safe under an atomic/scatter strategy,
    /// still a race when executed as plain read-modify-write.
    Inc,
}

/// Footprint recorder handed to the kernel for one iteration.
pub struct ShadowCtx<'a> {
    run: &'a mut ShadowRun,
    iter: u32,
}

impl ShadowCtx<'_> {
    pub fn read(&mut self, dat: &str, elem: usize) {
        self.touch(dat, elem, AccessKind::Read);
    }

    pub fn write(&mut self, dat: &str, elem: usize) {
        self.touch(dat, elem, AccessKind::Write);
    }

    pub fn inc(&mut self, dat: &str, elem: usize) {
        self.touch(dat, elem, AccessKind::Inc);
    }

    fn touch(&mut self, dat: &str, elem: usize, kind: AccessKind) {
        let dat_id = self.run.intern(dat);
        self.run
            .touches
            .entry((dat_id, elem as u32))
            .or_default()
            .push((self.iter, kind));
    }
}

/// A recorded sequential replay: every `(dat, element)` location with
/// the iterations that touched it.
#[derive(Debug, Default)]
pub struct ShadowRun {
    dat_names: Vec<String>,
    dat_ids: HashMap<String, u16>,
    touches: HashMap<(u16, u32), Vec<(u32, AccessKind)>>,
    n_iters: usize,
}

/// The parallel schedule a recording is checked against.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Iterations run one after another: nothing conflicts.
    Sequential,
    /// Every pair of distinct iterations may overlap.
    AllParallel,
    /// Iteration `i` runs in round `colors[i]`; only same-color pairs
    /// overlap (the executor barriers between colors).
    Colored(&'a [u32]),
    /// Colored rounds whose parallelism unit is a *group* rather than
    /// an iteration — the shape of
    /// [`oppic_core::deposit_loop_colored`], which barriers between
    /// colors and hands each same-color *cell* to one worker. Two
    /// iterations overlap iff they share a color but belong to
    /// different groups (same-group iterations are serialised).
    ColoredGroups {
        colors: &'a [u32],
        groups: &'a [u32],
    },
}

/// Detection options.
#[derive(Debug, Clone, Copy)]
pub struct RaceOptions {
    /// Treat `Inc` touches as synchronised (atomics / scatter arrays /
    /// segmented reduction): `Inc`–`Inc` pairs stop conflicting.
    /// `Inc` against a plain `Read`/`Write` still conflicts.
    pub inc_is_synchronised: bool,
    /// Stop after this many reported races (one per location).
    pub max_reports: usize,
}

impl Default for RaceOptions {
    fn default() -> Self {
        RaceOptions {
            inc_is_synchronised: false,
            max_reports: 16,
        }
    }
}

/// One detected conflict: a location and a pair of concurrently
/// scheduled iterations whose accesses don't commute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    pub dat: String,
    pub elem: usize,
    pub iter_a: usize,
    pub kind_a: AccessKind,
    pub iter_b: usize,
    pub kind_b: AccessKind,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: iterations {} ({:?}) and {} ({:?}) overlap",
            self.dat, self.elem, self.iter_a, self.kind_a, self.iter_b, self.kind_b
        )
    }
}

impl ShadowRun {
    fn intern(&mut self, dat: &str) -> u16 {
        if let Some(&id) = self.dat_ids.get(dat) {
            return id;
        }
        let id = u16::try_from(self.dat_names.len()).expect("more than 65k shadow dats");
        self.dat_names.push(dat.to_string());
        self.dat_ids.insert(dat.to_string(), id);
        id
    }

    pub fn n_iters(&self) -> usize {
        self.n_iters
    }

    /// Total `(location, iteration)` touch records.
    pub fn n_touches(&self) -> usize {
        self.touches.values().map(Vec::len).sum()
    }

    /// Check the recording against a schedule. Reports at most one
    /// race per location, deterministically ordered by (dat, element).
    pub fn detect_races(&self, schedule: Schedule<'_>, opts: &RaceOptions) -> Vec<Race> {
        match schedule {
            Schedule::Sequential => return Vec::new(),
            Schedule::Colored(colors) => assert!(
                colors.len() >= self.n_iters,
                "colored schedule covers {} iterations, recording has {}",
                colors.len(),
                self.n_iters
            ),
            Schedule::ColoredGroups { colors, groups } => assert!(
                colors.len() >= self.n_iters && groups.len() >= self.n_iters,
                "colored-group schedule covers {}/{} iterations, recording has {}",
                colors.len(),
                groups.len(),
                self.n_iters
            ),
            Schedule::AllParallel => {}
        }

        let conflicts = |a: AccessKind, b: AccessKind| -> bool {
            match (a, b) {
                (AccessKind::Read, AccessKind::Read) => false,
                (AccessKind::Inc, AccessKind::Inc) => !opts.inc_is_synchronised,
                _ => true, // any pairing involving a plain Write, or Inc vs Read
            }
        };
        let concurrent = |a: u32, b: u32| -> bool {
            match schedule {
                Schedule::Sequential => false,
                Schedule::AllParallel => true,
                Schedule::Colored(colors) => colors[a as usize] == colors[b as usize],
                Schedule::ColoredGroups { colors, groups } => {
                    colors[a as usize] == colors[b as usize]
                        && groups[a as usize] != groups[b as usize]
                }
            }
        };

        let mut locations: Vec<&(u16, u32)> = self.touches.keys().collect();
        locations.sort_unstable();

        let mut races = Vec::new();
        'locations: for loc in locations {
            let touchers = &self.touches[loc];
            if touchers.len() < 2 {
                continue;
            }
            // First concurrently scheduled conflicting pair, if any.
            for (i, &(ia, ka)) in touchers.iter().enumerate() {
                for &(ib, kb) in touchers.iter().skip(i + 1) {
                    if ia != ib && concurrent(ia, ib) && conflicts(ka, kb) {
                        races.push(Race {
                            dat: self.dat_names[loc.0 as usize].clone(),
                            elem: loc.1 as usize,
                            iter_a: ia as usize,
                            kind_a: ka,
                            iter_b: ib as usize,
                            kind_b: kb,
                        });
                        if races.len() >= opts.max_reports {
                            break 'locations;
                        }
                        continue 'locations;
                    }
                }
            }
        }
        races
    }

    /// Render detected races as analyzer diagnostics (all `Error`).
    pub fn races_to_diagnostics(loop_name: &str, races: &[Race]) -> Vec<Diagnostic> {
        races
            .iter()
            .map(|r| Diagnostic::error("race/conflict", loop_name.to_string(), r.to_string()))
            .collect()
    }
}

/// Replay `kernel` sequentially for `n_iters` iterations, recording
/// every footprint the kernel reports through its [`ShadowCtx`].
pub fn shadow_record<F>(n_iters: usize, mut kernel: F) -> ShadowRun
where
    F: FnMut(usize, &mut ShadowCtx<'_>),
{
    let mut run = ShadowRun {
        n_iters,
        ..ShadowRun::default()
    };
    for i in 0..n_iters {
        let mut ctx = ShadowCtx {
            run: &mut run,
            iter: i as u32,
        };
        kernel(i, &mut ctx);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deposit-shaped recording: particle i increments the slot of
    /// cell `cells[i]`.
    fn deposit_run(cells: &[usize]) -> ShadowRun {
        shadow_record(cells.len(), |i, ctx| {
            ctx.read("lc", i);
            ctx.inc("node_charge", cells[i]);
        })
    }

    #[test]
    fn sequential_schedule_never_conflicts() {
        let run = deposit_run(&[0, 0, 0, 0]);
        assert!(run
            .detect_races(Schedule::Sequential, &RaceOptions::default())
            .is_empty());
    }

    #[test]
    fn plain_increments_race_in_parallel() {
        let run = deposit_run(&[0, 1, 0]);
        let races = run.detect_races(Schedule::AllParallel, &RaceOptions::default());
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].dat, "node_charge");
        assert_eq!(races[0].elem, 0);
        assert_eq!((races[0].iter_a, races[0].iter_b), (0, 2));
    }

    #[test]
    fn synchronised_increments_do_not_race() {
        let run = deposit_run(&[0, 1, 0]);
        let opts = RaceOptions {
            inc_is_synchronised: true,
            ..Default::default()
        };
        assert!(run.detect_races(Schedule::AllParallel, &opts).is_empty());
    }

    #[test]
    fn inc_against_plain_read_still_races() {
        // Iteration 1 reads the element iteration 0 is atomically
        // incrementing: the read observes a torn intermediate order.
        let run = shadow_record(2, |i, ctx| {
            if i == 0 {
                ctx.inc("x", 7);
            } else {
                ctx.read("x", 7);
            }
        });
        let opts = RaceOptions {
            inc_is_synchronised: true,
            ..Default::default()
        };
        let races = run.detect_races(Schedule::AllParallel, &opts);
        assert_eq!(races.len(), 1, "{races:?}");
    }

    #[test]
    fn valid_coloring_separates_writers() {
        // Cells 0 and 2 share node 5; a correct coloring puts them in
        // different rounds.
        let cells = [0usize, 1, 2];
        let targets = [vec![4usize, 5], vec![6], vec![5, 7]];
        let run = shadow_record(cells.len(), |i, ctx| {
            for &t in &targets[cells[i]] {
                ctx.inc("node_charge", t);
            }
        });
        let good_colors = [0u32, 0, 1];
        assert!(run
            .detect_races(Schedule::Colored(&good_colors), &RaceOptions::default())
            .is_empty());

        // Collapsing the rounds reintroduces the conflict.
        let bad_colors = [0u32, 0, 0];
        let races = run.detect_races(Schedule::Colored(&bad_colors), &RaceOptions::default());
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].elem, 5);
    }

    #[test]
    fn same_group_iterations_are_serialised() {
        // Two particles in the same cell both increment the same node:
        // under the colored deposit they run on one worker, so no race.
        let particle_cells = [0usize, 0, 1];
        let node_of_cell = [5usize, 5];
        let run = shadow_record(particle_cells.len(), |i, ctx| {
            ctx.inc("node_charge", node_of_cell[particle_cells[i]]);
        });
        let groups: Vec<u32> = particle_cells.iter().map(|&c| c as u32).collect();
        // Same color round for everyone, but cells 0 and 1 share node
        // 5 — a cross-group conflict the coloring should have split.
        let same_round = [0u32, 0, 0];
        let races = run.detect_races(
            Schedule::ColoredGroups {
                colors: &same_round,
                groups: &groups,
            },
            &RaceOptions::default(),
        );
        assert_eq!(races.len(), 1, "{races:?}");
        // The reported pair spans the two cells (0 or 1 vs 2), never
        // the same-cell pair (0, 1).
        assert_eq!(races[0].iter_b, 2);

        // A coloring that separates the two cells is clean.
        let split = [0u32, 0, 1];
        assert!(run
            .detect_races(
                Schedule::ColoredGroups {
                    colors: &split,
                    groups: &groups
                },
                &RaceOptions::default()
            )
            .is_empty());
    }

    #[test]
    fn report_cap_is_respected() {
        let cells: Vec<usize> = (0..20).map(|i| i % 10).collect(); // every slot contested
        let run = deposit_run(&cells);
        let opts = RaceOptions {
            max_reports: 3,
            ..Default::default()
        };
        assert_eq!(run.detect_races(Schedule::AllParallel, &opts).len(), 3);
    }

    #[test]
    fn diagnostics_render() {
        let run = deposit_run(&[0, 0]);
        let races = run.detect_races(Schedule::AllParallel, &RaceOptions::default());
        let diags = ShadowRun::races_to_diagnostics("DepositCharge", &races);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "race/conflict");
        assert!(
            diags[0].message.contains("node_charge[0]"),
            "{}",
            diags[0].message
        );
    }
}
