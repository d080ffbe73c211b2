//! Property-based tests on the DSL core data structures.

use oppic_core::{
    coloring_is_valid, deposit_loop, deposit_loop_colored, greedy_color_cells, move_loop,
    DepositMethod, ExecPolicy, Fixed, HistogramSnapshot, MoveConfig, MoveResult, ParticleDats,
    Seed, Telemetry,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// apply_permutation is exactly a permutation of all columns.
    #[test]
    fn permutation_preserves_multiset(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let mut ps = ParticleDats::new();
        let tag = ps.decl_dat("tag", 2);
        ps.inject(n, 0);
        for i in 0..n {
            ps.el_mut(tag, i)[0] = i as f64;
            ps.el_mut(tag, i)[1] = (i * i) as f64;
            ps.cells_mut()[i] = (i % 7) as i32;
        }
        // Fisher-Yates permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        ps.apply_permutation(&perm);
        let got: HashSet<u64> = (0..n).map(|i| ps.el(tag, i)[0] as u64).collect();
        prop_assert_eq!(got.len(), n);
        // Column coherence after the permutation.
        for i in 0..n {
            let t = ps.el(tag, i);
            prop_assert_eq!(t[1], t[0] * t[0]);
            prop_assert_eq!(ps.cells()[i], (t[0] as i32) % 7);
        }
    }

    /// sort_by_cell sorts and is stable over the original order.
    #[test]
    fn sort_by_cell_properties(
        cells in prop::collection::vec(0i32..20, 1..200),
    ) {
        let n = cells.len();
        let mut ps = ParticleDats::new();
        let tag = ps.decl_dat("tag", 1);
        ps.inject_into(&cells);
        for i in 0..n {
            ps.el_mut(tag, i)[0] = i as f64;
        }
        ps.sort_by_cell(20);
        prop_assert!(ps.cells().windows(2).all(|w| w[0] <= w[1]));
        for w in 0..n.saturating_sub(1) {
            if ps.cells()[w] == ps.cells()[w + 1] {
                prop_assert!(ps.el(tag, w)[0] < ps.el(tag, w + 1)[0], "stability");
            }
        }
    }

    /// Segmented reduction is deterministic: two parallel executions of
    /// the same random workload produce bitwise-equal buffers.
    #[test]
    fn segmented_reduction_deterministic(
        n in 1usize..3000,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let kernel = |i: usize| {
            let h = (i as u64 + 1).wrapping_mul(seed | 1);
            ([(h % len as u64) as usize], [(h % 1000) as f64 * 1e-3])
        };
        let run = || {
            let mut buf = vec![0.0; len];
            deposit_loop(&ExecPolicy::Par, DepositMethod::SegmentedReduction, n, &mut buf, kernel);
            buf
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }

    /// Greedy coloring is always valid and the colored deposit equals
    /// the serial deposit, for random cell→target meshes.
    #[test]
    fn coloring_correct_on_random_meshes(
        n_cells in 1usize..40,
        n_targets in 4usize..30,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rnd = move |m: usize| {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state % m as u64) as usize
        };
        let mesh: Vec<Vec<usize>> = (0..n_cells)
            .map(|_| {
                let mut t: Vec<usize> = (0..3).map(|_| rnd(n_targets)).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let (colors, n_colors) = greedy_color_cells(&mesh, n_targets);
        prop_assert!(coloring_is_valid(&mesh, n_targets, &colors));
        prop_assert!(n_colors <= n_cells);

        // Sorted particles, 2 per cell, each adding 1.0 to every target
        // of its cell. Rows hold 1–3 targets, so the loop runs over the
        // (particle, target) pairs, one contribution each, in particle
        // order: the pairs' cells stay sorted.
        let pairs: Vec<(i32, usize)> = (0..n_cells as i32)
            .flat_map(|c| [c, c])
            .flat_map(|c| mesh[c as usize].iter().map(move |&t| (c, t)))
            .collect();
        let cells: Vec<i32> = pairs.iter().map(|&(c, _)| c).collect();
        let kernel = |j: usize| ([pairs[j].1], [1.0]);
        let mut reference = vec![0.0; n_targets];
        deposit_loop(&ExecPolicy::Seq, DepositMethod::Serial, cells.len(), &mut reference, kernel);
        let mut got = vec![0.0; n_targets];
        deposit_loop_colored(&ExecPolicy::Par, &mut got, &cells, &colors, n_colors, kernel).unwrap();
        prop_assert_eq!(got, reference);
    }

    /// The move engine always terminates and ends where the kernel's
    /// target function says, for arbitrary start/target assignments on
    /// a ring topology (the exit can wrap).
    #[test]
    fn move_engine_terminates_on_rings(
        n_cells in 1usize..50,
        pairs in prop::collection::vec((0usize..50, 0usize..50), 1..100),
    ) {
        let targets: Vec<usize> = pairs.iter().map(|&(_, t)| t % n_cells).collect();
        let mut cells: Vec<i32> = pairs.iter().map(|&(s, _)| (s % n_cells) as i32).collect();
        let r = move_loop(
            &ExecPolicy::Par,
            MoveConfig::default(),
            &mut cells,
            None,
            (),
            |i, c, _| c == targets[i],
            |_, c, _| Some((c + 1) % n_cells), // ring walk
        );
        prop_assert!(r.removed.is_empty());
        prop_assert_eq!(r.aborted, 0);
        for (i, &c) in cells.iter().enumerate() {
            prop_assert_eq!(c as usize, targets[i]);
        }
    }
}

// ---------------------------------------------------------------------
// The wavefront move engine against the move one visit at a time.

/// One particle of a random move: start cell, target cell, the visit
/// whose exit removes it (0 = none), its direct-hop seed cell, and the
/// visit whose probe accepts whatever cell it tests (0 = none; so a
/// chase can end back in its start cell).
type Mover = (usize, usize, u32, usize, u32);

/// The move one visit at a time, as the paper states it: probe the
/// cell; on a miss, exit — remove on `None`, otherwise hop (to the seed
/// on the second miss under direct-hop) unless the chain is already
/// `max_hops` long. Returns the result and the chain-length histogram.
fn reference_move<P, X>(
    cfg: MoveConfig,
    cells: &mut [i32],
    seed: Seed<'_>,
    win: &mut [f64],
    probe: P,
    exit: X,
) -> (MoveResult, HistogramSnapshot)
where
    P: Fn(usize, usize, &mut [f64; 2]) -> bool,
    X: Fn(usize, usize, &[f64; 2]) -> Option<usize>,
{
    let mut r = MoveResult::default();
    let mut hops = HistogramSnapshot::default();
    let (win, _) = win.as_chunks_mut::<2>();
    for (i, (c, w)) in cells.iter_mut().zip(win).enumerate() {
        let mut cell = *c as usize;
        let mut chain = 0u32;
        let fin = loop {
            chain += 1;
            if probe(i, cell, w) {
                r.out_of_range += u64::from(cfg.n_cells.is_some_and(|n| cell >= n));
                break Some(cell);
            }
            let Some(next) = exit(i, cell, w) else {
                break None;
            };
            let next = match seed {
                Some(seed) if chain == 2 => {
                    r.seeded += 1;
                    seed(i)
                }
                _ => next,
            };
            if chain >= cfg.max_hops {
                r.aborted += 1;
                break None;
            }
            cell = next;
        };
        r.total_visits += u64::from(chain);
        r.max_chain = r.max_chain.max(chain);
        hops.record(u64::from(chain));
        if cfg.record_chains {
            r.chains.push(chain);
        }
        match fin {
            Some(f) => {
                r.moved += u64::from(f as i32 != *c);
                *c = f as i32;
            }
            None => r.removed.push(i),
        }
    }
    (r, hops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wavefront engine gives the cells, windows, removal list,
    /// every `MoveResult` field and the `move.hops_per_particle`
    /// snapshot of the one-visit-at-a-time walk, under `Seq`,
    /// `pool(2)` and `pool(3)`, with and without a seed. The exits walk
    /// a random successor map, so chains cycle into `max_hops` aborts
    /// or back to their start cell; removals land on visits 1–3. Up to
    /// 800 movers span several 256-particle blocks, so pieces cut
    /// blocks short and removals cross block ends.
    #[test]
    fn two_pass_engine_matches_the_visit_at_a_time_walk(
        n_cells in 1usize..30,
        succ in prop::collection::vec(0usize..30, 30..31),
        movers in prop::collection::vec(
            (0usize..30, 0usize..30, 0u32..4, 0usize..30, 0u32..8),
            0..800,
        ),
        max_hops in 1u32..12,
        record_chains in any::<bool>(),
        audit in 0usize..40,
    ) {
        let movers: Vec<Mover> = movers
            .into_iter()
            .map(|(s, t, r, d, a)| (s % n_cells, t % n_cells, r, d % n_cells, a))
            .collect();
        // Audit limits of 30 and up stand for no audit.
        let cfg = MoveConfig { max_hops, record_chains, n_cells: (audit < 30).then_some(audit) };
        // The window counts the particle's probes and keeps the cell
        // its last probe tested; the exit reads the count.
        let probe = |i: usize, cell: usize, w: &mut [f64; 2]| {
            w[0] += 1.0;
            w[1] = cell as f64;
            cell == movers[i].1 || w[0] as u32 == movers[i].4
        };
        let exit = |i: usize, cell: usize, w: &[f64; 2]| {
            (w[0] as u32 != movers[i].2).then(|| succ[cell] % n_cells)
        };
        let seed_fn = |i: usize| movers[i].3;
        let start: Vec<i32> = movers.iter().map(|m| m.0 as i32).collect();
        for seed in [None, Some(&seed_fn as &(dyn Fn(usize) -> usize + Sync))] {
            let mut want_cells = start.clone();
            let mut want_win = vec![0.0; 2 * movers.len()];
            let (want, want_hops) =
                reference_move(cfg, &mut want_cells, seed, &mut want_win, probe, exit);
            for pol in [ExecPolicy::Seq, ExecPolicy::pool(2), ExecPolicy::pool(3)] {
                let tel = Arc::new(Telemetry::new());
                let _cur = tel.make_current();
                let mut cells = start.clone();
                let mut win = vec![0.0; 2 * movers.len()];
                let got = move_loop(&pol, cfg, &mut cells, seed, Fixed::<2>(&mut win), probe, exit);
                let case = format!("{pol:?} seeded {}", seed.is_some());
                prop_assert_eq!(&cells, &want_cells, "{}", case);
                prop_assert_eq!(&win, &want_win, "{}", case);
                prop_assert_eq!(&got, &want, "{}", case);
                prop_assert_eq!(
                    tel.histogram("move.hops_per_particle").snapshot(),
                    want_hops.clone(),
                    "{}",
                    case
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The CSR cell index that the colouring deposit's sort builds.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any interleaving of injections, hole-filled removals,
    /// raw cell reassignments and rebuilds, a final `sort_by_cell`
    /// leaves a fresh index whose offsets exactly partition `0..n`
    /// and agree with the live cell column.
    #[test]
    fn csr_index_survives_interleaved_mutations(
        n_cells in 1usize..12,
        init in prop::collection::vec(0usize..12, 0..40),
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..12), 0..25),
    ) {
        let mut ps = ParticleDats::new();
        let _w = ps.decl_dat("w", 2);
        let init: Vec<i32> = init.iter().map(|&c| (c % n_cells) as i32).collect();
        ps.inject_into(&init);
        for (kind, a, b) in ops {
            match kind {
                0 => {
                    ps.inject(a % 7 + 1, (b % n_cells) as i32);
                }
                1 => {
                    if !ps.is_empty() {
                        // Up to two distinct ascending victims.
                        let i = a % ps.len();
                        let j = b % ps.len();
                        let mut victims = vec![i.min(j)];
                        if i != j { victims.push(i.max(j)); }
                        ps.remove_fill(&victims);
                    }
                }
                2 => {
                    if !ps.is_empty() {
                        let i = a % ps.len();
                        ps.cells_mut()[i] = (b % n_cells) as i32;
                        ps.refine_dirty(1);
                    }
                }
                _ => ps.sort_by_cell(n_cells),
            }
        }
        ps.sort_by_cell(n_cells);
        prop_assert!(ps.index_is_fresh());
        let idx = ps.cell_index().expect("fresh after rebuild").to_vec();
        prop_assert_eq!(idx.len(), n_cells + 1);
        prop_assert_eq!(idx[0], 0);
        prop_assert_eq!(idx[n_cells], ps.len());
        prop_assert!(idx.windows(2).all(|w| w[0] <= w[1]), "monotone offsets");
        for c in 0..n_cells {
            for i in idx[c]..idx[c + 1] {
                prop_assert_eq!(ps.cells()[i], c as i32, "cell column agreement");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Analyzer cross-checks (dev-dependency on oppic-analyzer): the shadow
// race detector and the plan checker must agree with the executors'
// own semantics on arbitrary meshes.

use oppic_analyzer::{check_plan, shadow_record, RaceOptions, Schedule, Severity};
use oppic_core::plan::{LoopPlan, PlanRegistry, RaceStrategy};
use oppic_core::{Access, ArgDecl, LoopDecl};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A parallel double-indirect INC with no race strategy is always
    /// rejected with an Error; the identical plan with scatter arrays
    /// (or any real strategy) is always clean.
    #[test]
    fn racy_deposit_plans_are_always_rejected(
        dim in 1usize..5,
        name_idx in 0usize..4,
    ) {
        let name = ["deposit", "scatter", "weigh", "accumulate"][name_idx];
        let decl = LoopDecl::new(
            name,
            "particles",
            vec![ArgDecl::double_indirect("charge", dim, Access::Inc, "p2c.c2n")],
        );
        let racy = LoopPlan::new(decl.clone(), &ExecPolicy::Par, RaceStrategy::None);
        prop_assert!(racy.quick_check().is_err());
        let diags = check_plan(&racy, None);
        prop_assert!(diags.iter().any(|d|
            d.code == "plan/racy-inc" && d.severity == Severity::Error));

        let safe = LoopPlan::new(
            decl.clone(),
            &ExecPolicy::Par,
            RaceStrategy::Deposit(DepositMethod::ScatterArrays),
        );
        prop_assert!(safe.quick_check().is_ok());
        prop_assert!(check_plan(&safe, None).is_empty());

        // Under a sequential policy even the strategy-less plan is fine.
        let seq = LoopPlan::new(decl, &ExecPolicy::Seq, RaceStrategy::None);
        prop_assert!(seq.quick_check().is_ok());
        let mut reg = PlanRegistry::new();
        reg.register(seq);
        prop_assert_eq!(reg.len(), 1);
    }

    /// On arbitrary meshes the shadow detector agrees with
    /// `coloring_is_valid`: a greedy distance-2 coloring admits no
    /// conflicts under the colored-groups schedule, collapsing all
    /// colors reintroduces a conflict exactly when two distinct cells
    /// share a target, and the all-parallel schedule with plain
    /// increments races exactly when two particles' cells overlap.
    #[test]
    fn shadow_detector_agrees_with_coloring_validity(
        n_targets in 2usize..30,
        cell_targets in prop::collection::vec(
            prop::collection::vec(0usize..30, 1..5), 1..20),
        particle_cells in prop::collection::vec(0usize..20, 2..60),
    ) {
        let cell_targets: Vec<Vec<usize>> = cell_targets
            .into_iter()
            .map(|t| t.into_iter().map(|x| x % n_targets).collect())
            .collect();
        let n_cells = cell_targets.len();
        let cells: Vec<usize> = particle_cells.into_iter().map(|c| c % n_cells).collect();

        let run = shadow_record(cells.len(), |i, ctx| {
            for &t in &cell_targets[cells[i]] {
                ctx.inc("charge", t);
            }
        });
        let opts = RaceOptions::default();

        // Sequential replay never conflicts.
        prop_assert!(run.detect_races(Schedule::Sequential, &opts).is_empty());

        // Greedy coloring + per-cell groups: race-free, and the
        // coloring itself audits as valid.
        let (colors, n_colors) = greedy_color_cells(&cell_targets, n_targets);
        prop_assert!(coloring_is_valid(&cell_targets, n_targets, &colors));
        prop_assert!(n_colors >= 1);
        let pc: Vec<u32> = cells.iter().map(|&c| colors[c]).collect();
        let pg: Vec<u32> = cells.iter().map(|&c| c as u32).collect();
        let races = run.detect_races(
            Schedule::ColoredGroups { colors: &pc, groups: &pg }, &opts);
        prop_assert!(races.is_empty(), "colored schedule raced: {:?}", races);

        // Collapse every color onto round 0. The shadow detector and
        // coloring_is_valid must agree on whether that is still safe.
        let merged = vec![0u32; n_cells];
        let merged_ok = coloring_is_valid(&cell_targets, n_targets, &merged);
        let mpc = vec![0u32; cells.len()];
        let merged_races = run.detect_races(
            Schedule::ColoredGroups { colors: &mpc, groups: &pg }, &opts);
        // The coloring audit covers all cell pairs; the shadow run only
        // sees cells that hold particles — so an invalid merged
        // coloring with races is consistent, and a race implies
        // invalidity, but not conversely.
        if !merged_races.is_empty() {
            prop_assert!(!merged_ok,
                "shadow found a race but coloring_is_valid accepted the merged colors");
        }
        if merged_ok {
            prop_assert!(merged_races.is_empty());
        }

        // All-parallel with plain increments: a race exists iff two
        // different particles touch a common target.
        let mut owner: Vec<Option<usize>> = vec![None; n_targets];
        let mut expect_conflict = false;
        for (i, &c) in cells.iter().enumerate() {
            for &t in &cell_targets[c] {
                match owner[t] {
                    Some(prev) if prev != i => { expect_conflict = true; }
                    _ => owner[t] = Some(i),
                }
            }
        }
        let all_par = run.detect_races(Schedule::AllParallel, &opts);
        prop_assert_eq!(!all_par.is_empty(), expect_conflict);

        // Synchronised increments make the same schedule safe.
        let sync = RaceOptions { inc_is_synchronised: true, ..RaceOptions::default() };
        prop_assert!(run.detect_races(Schedule::AllParallel, &sync).is_empty());
    }
}
