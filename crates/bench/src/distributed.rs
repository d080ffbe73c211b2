//! Distributed (multi-rank) drivers for both applications.
//!
//! Each run below is per-rank setup plus a loop over the app's one
//! step body ([`FemPic::step_over`],
//! [`oppic_cabana::CabanaEngine::step_over`]) on in-process ranks over
//! the plain channel transport: directional partitioning
//! (the paper's custom scheme), particle migration (pack / alltoallv /
//! hole-fill / unpack), and the per-step reductions that stand in for
//! the halo exchanges (DESIGN.md §7: every rank holds the whole mesh,
//! so field state is replicated and reduced). The paper-scale
//! projections count halo bytes separately: fig13 from the
//! `partition_stats(..).halo_cells` of the real directional partition,
//! fig14 and fig15 from per-unit formulas.

use oppic_cabana::{CabanaConfig, StructuredCabana};
use oppic_core::ExecPolicy;
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mpi::comm::{world_run, RankCtx};
use oppic_mpi::Plain;
use std::time::Instant;

/// Per-rank outcome of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    pub rank: usize,
    pub main_loop_seconds: f64,
    pub final_particles: usize,
    pub migrated_out: usize,
    pub comm_bytes: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    pub n_ranks: usize,
    pub steps: usize,
    pub ranks: Vec<RankReport>,
    /// Global particle count at the end.
    pub total_particles: usize,
    /// Max per-rank main-loop time (the paper's MainLoop TotalTime).
    pub main_loop_seconds: f64,
    /// Global diagnostic scalar for cross-checking against single-rank
    /// runs (total charge for FEM-PIC, total energy for CabanaPIC).
    pub check_scalar: f64,
}

impl DistributedReport {
    /// Particle imbalance: max over mean.
    pub fn imbalance(&self) -> f64 {
        let mean = self.total_particles as f64 / self.n_ranks as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.ranks
            .iter()
            .map(|r| r.final_particles)
            .max()
            .unwrap_or(0) as f64
            / mean
    }

    pub fn total_comm_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.comm_bytes).sum()
    }
}

/// Gather every rank's report and check scalar into the run report.
fn collect(n_ranks: usize, steps: usize, per_rank: Vec<(RankReport, f64)>) -> DistributedReport {
    // The check scalar is identical on all ranks after the reductions.
    let check_scalar = per_rank[0].1;
    let ranks: Vec<RankReport> = per_rank.into_iter().map(|(r, _)| r).collect();
    let total_particles = ranks.iter().map(|r| r.final_particles).sum();
    let main_loop_seconds = ranks
        .iter()
        .map(|r| r.main_loop_seconds)
        .fold(0.0f64, f64::max);
    DistributedReport {
        n_ranks,
        steps,
        ranks,
        total_particles,
        main_loop_seconds,
        check_scalar,
    }
}

/// Run Mini-FEM-PIC on `n_ranks` in-process ranks for `steps` steps.
///
/// Each rank injects `inject_per_step / n_ranks` particles from its
/// own stream ([`FemPicConfig::rank_share`]) over the directional
/// partition ([`FemPic::new_rank`]) and runs the distributed step:
/// local kernels, migrate strays, then the node-charge reduction in
/// the role of the node-halo exchange. The check scalar is the total
/// node charge.
pub fn run_fempic_distributed(
    base: &FemPicConfig,
    n_ranks: usize,
    steps: usize,
) -> DistributedReport {
    let per_rank = world_run(n_ranks, |ctx: &mut RankCtx| {
        let (mut sim, cell_rank) = FemPic::new_rank(base, ctx.rank, n_ranks);
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        let mut migrated_out = 0usize;
        let t0 = Instant::now();
        for _ in 0..steps {
            let Ok(_) = sim.step_over(&mut net);
            migrated_out += sim.last_migration.sent;
        }
        let report = RankReport {
            rank: ctx.rank,
            main_loop_seconds: t0.elapsed().as_secs_f64(),
            final_particles: sim.ps.len(),
            migrated_out,
            comm_bytes: ctx.sent_bytes(),
        };
        (report, sim.node_charge.sum())
    });
    collect(n_ranks, steps, per_rank)
}

/// Run CabanaPIC on `n_ranks` in-process ranks for `steps` steps.
///
/// Each rank initialises the *global* deterministic two-stream state
/// and keeps only its y slab's particles
/// ([`oppic_cabana::CabanaEngine::keep_rank_share`]); the check scalar
/// is the total energy.
pub fn run_cabana_distributed(
    base: &CabanaConfig,
    n_ranks: usize,
    steps: usize,
) -> DistributedReport {
    let per_rank = world_run(n_ranks, |ctx: &mut RankCtx| {
        let mut cfg = base.clone();
        cfg.policy = ExecPolicy::Seq;
        let mut sim = StructuredCabana::new_structured(cfg);
        let cell_rank = sim.keep_rank_share(ctx.rank, n_ranks);
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        let mut migrated_out = 0usize;
        let t0 = Instant::now();
        for _ in 0..steps {
            let Ok(_) = sim.step_over(&mut net);
            migrated_out += sim.last_migration.sent;
        }
        let main_loop_seconds = t0.elapsed().as_secs_f64();

        // Field energy is identical on all ranks (replicated fields);
        // kinetic energy needs a reduction.
        let d = sim.energies();
        let kinetic_global = ctx.allreduce_sum(d.kinetic);
        let report = RankReport {
            rank: ctx.rank,
            main_loop_seconds,
            final_particles: sim.ps.len(),
            migrated_out,
            comm_bytes: ctx.sent_bytes(),
        };
        (report, d.e_field + d.b_field + kinetic_global)
    });
    collect(n_ranks, steps, per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cabana_distributed_conserves_particles_and_energy() {
        let mut cfg = CabanaConfig::tiny();
        cfg.ppc = 8;
        let single = run_cabana_distributed(&cfg, 1, 6);
        let multi = run_cabana_distributed(&cfg, 4, 6);
        assert_eq!(single.total_particles, multi.total_particles);
        // Same physics to reduction-order tolerance.
        let scale = single.check_scalar.abs().max(1e-30);
        assert!(
            (single.check_scalar - multi.check_scalar).abs() / scale < 1e-9,
            "{} vs {}",
            single.check_scalar,
            multi.check_scalar
        );
        // y-slab partition + x-streaming: almost no migration.
        let migrated: usize = multi.ranks.iter().map(|r| r.migrated_out).sum();
        assert!(migrated == 0, "beams run along x, slabs cut y: {migrated}");
    }

    #[test]
    fn fempic_distributed_matches_charge_of_equivalent_run() {
        let mut cfg = FemPicConfig::tiny();
        cfg.inject_per_step = 64;
        let single = run_fempic_distributed(&cfg, 1, 5);
        let multi = run_fempic_distributed(&cfg, 3, 5);
        // Injection streams differ per rank, so particle positions
        // differ, but the *total injected count* matches (64 ≈ 63 via
        // 21×3) and charge per particle is fixed: compare charge per
        // particle instead.
        let q1 = single.check_scalar / single.total_particles as f64;
        let qn = multi.check_scalar / multi.total_particles as f64;
        assert!((q1 - qn).abs() < 1e-12, "{q1} vs {qn}");
        assert!(multi.total_particles > 0);
        assert!(multi.imbalance() < 2.0, "imbalance {}", multi.imbalance());
    }

    #[test]
    fn comm_bytes_grow_with_ranks() {
        let cfg = CabanaConfig::tiny();
        let r2 = run_cabana_distributed(&cfg, 2, 3);
        let r4 = run_cabana_distributed(&cfg, 4, 3);
        assert!(r4.total_comm_bytes() > r2.total_comm_bytes());
    }
}
