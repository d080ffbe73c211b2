//! One step body per app: `step()` is the distributed step over a
//! one-rank transport.
//!
//! A one-rank run of `step_over` over the plain channel transport ends
//! bit-identical to `step()`: particles, node charge and potential for
//! FemPIC, fields for CabanaPIC, with the same step count and kernel
//! calls. Multi-rank FemPIC runs count their steps, time their kernels
//! and honour the config gates of the step body: the colored deposit
//! (it sorts after the migration) and a gather-side sort policy both
//! complete with exact charge per particle.

use op_pic::cabana::{CabanaConfig, CabanaPic};
use op_pic::core::{SortPolicy, Telemetry};
use op_pic::fempic::{CollisionModel, FemPic, FemPicConfig};
use op_pic::mpi::{world_run, Plain};
use oppic_bench::distributed::run_fempic_distributed;

const STEPS: usize = 6;

/// `(kernel, calls)` of every kernel in a hub.
fn kernel_calls(tel: &Telemetry) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = tel
        .kernels_snapshot()
        .into_iter()
        .map(|(n, k)| (n, k.calls))
        .collect();
    v.sort();
    v
}

/// Run `cfg` for [`STEPS`] steps through `step()` and, on one rank,
/// through `step_over` over the plain transport; both must end in the
/// same bits.
fn fempic_one_rank_parity(cfg: &FemPicConfig) {
    let mut local = FemPic::new(cfg.clone());
    local.run(STEPS);
    let mut ranked = world_run(1, |ctx| {
        let mut sim = FemPic::new(cfg.clone());
        let cell_rank = vec![0u32; sim.mesh.n_cells()];
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        for _ in 0..STEPS {
            let Ok(_) = sim.step_over(&mut net);
        }
        sim
    });
    let ranked = ranked.remove(0);
    assert_eq!(ranked.step_count(), local.step_count());
    assert_eq!(ranked.step_count(), STEPS);
    for col in [local.pos, local.vel, local.lc] {
        assert_eq!(ranked.ps.col(col), local.ps.col(col), "{cfg:?}");
    }
    assert_eq!(ranked.ps.cells(), local.ps.cells());
    assert_eq!(ranked.node_charge.raw(), local.node_charge.raw());
    assert_eq!(ranked.fem.potential(), local.fem.potential());
    assert_eq!(
        kernel_calls(ranked.profiler.telemetry()),
        kernel_calls(local.profiler.telemetry())
    );
}

#[test]
fn fempic_one_rank_step_over_plain_is_step() {
    fempic_one_rank_parity(&FemPicConfig::tiny());
    // Every gate of the step body at once.
    fempic_one_rank_parity(&FemPicConfig {
        coloring: true,
        sort_policy: SortPolicy::EveryN(2),
        auto_tune: true,
        binding: true,
        guard_numerics: true,
        collisions: Some(CollisionModel {
            neutral_density: 4.0,
            cross_section: 1.0,
        }),
        ..FemPicConfig::tiny()
    });
}

#[test]
fn cabana_one_rank_step_over_plain_is_step() {
    let cfg = CabanaConfig {
        sort_policy: SortPolicy::EveryN(2),
        ..CabanaConfig::tiny()
    };
    let mut local = CabanaPic::new_dsl(cfg.clone());
    local.run(STEPS);
    let mut ranked = world_run(1, |ctx| {
        let mut sim = CabanaPic::new_dsl(cfg.clone());
        let cell_rank = vec![0u32; sim.geom.n_cells()];
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        for _ in 0..STEPS {
            let Ok(_) = sim.step_over(&mut net);
        }
        sim
    });
    let ranked = ranked.remove(0);
    assert_eq!(ranked.step_count(), local.step_count());
    assert_eq!(ranked.step_count(), STEPS);
    assert_eq!(ranked.ps.col(ranked.pos), local.ps.col(local.pos));
    assert_eq!(ranked.ps.col(ranked.vel), local.ps.col(local.vel));
    assert_eq!(ranked.ps.cells(), local.ps.cells());
    assert_eq!(ranked.e.raw(), local.e.raw());
    assert_eq!(ranked.b.raw(), local.b.raw());
    assert_eq!(ranked.j.raw(), local.j.raw());
    assert_eq!(
        kernel_calls(ranked.profiler.telemetry()),
        kernel_calls(local.profiler.telemetry())
    );
}

#[test]
fn two_rank_fempic_counts_steps_and_times_kernels() {
    let per_rank = world_run(2, |ctx| {
        let (mut sim, cell_rank) = FemPic::new_rank(&FemPicConfig::tiny(), ctx.rank, 2);
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        for _ in 0..STEPS {
            let Ok(_) = sim.step_over(&mut net);
        }
        let tel = sim.profiler.telemetry();
        let calls = |k: &str| tel.get(k).map_or(0, |s| s.calls);
        (sim.step_count(), calls("Move"), calls("DepositCharge"))
    });
    for (rank, counts) in per_rank.into_iter().enumerate() {
        assert_eq!(counts, (STEPS, STEPS as u64, STEPS as u64), "rank {rank}");
    }
}

/// Charge per particle of a 2-rank run of `cfg`, against the
/// configured charge.
fn assert_exact_charge_per_particle(cfg: &FemPicConfig) {
    let rep = run_fempic_distributed(cfg, 2, STEPS);
    assert!(rep.total_particles > 0);
    let q = rep.check_scalar / rep.total_particles as f64;
    assert!(
        (q - cfg.charge).abs() <= 1e-12 * cfg.charge,
        "{q} vs {}",
        cfg.charge
    );
}

#[test]
fn two_rank_fempic_runs_the_colored_deposit() {
    assert_exact_charge_per_particle(&FemPicConfig {
        coloring: true,
        ..FemPicConfig::tiny()
    });
}

#[test]
fn two_rank_fempic_honours_the_sort_policy() {
    assert_exact_charge_per_particle(&FemPicConfig {
        sort_policy: SortPolicy::EveryN(2),
        ..FemPicConfig::tiny()
    });
}
