//! The plain N-rank run loop: any [`RankApp`]'s one step body on
//! in-process ranks over the plain channel transport ([`Plain`]), with
//! no link, detector or shard (DESIGN.md §7). The resilient loop of
//! [`crate::rankfail`] steps the same body over the reliable link.

use oppic_mpi::comm::{world_run, RankCtx};
use oppic_mpi::{Plain, RankApp};
use std::time::Instant;

/// Per-rank outcome of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    pub main_loop_seconds: f64,
    pub final_particles: usize,
    pub migrated_out: usize,
    pub comm_bytes: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    pub n_ranks: usize,
    /// Entry `r` is rank `r`'s.
    pub ranks: Vec<RankReport>,
    /// Global particle count at the end.
    pub total_particles: usize,
    /// Max per-rank main-loop time (the paper's MainLoop TotalTime).
    pub main_loop_seconds: f64,
    /// The app's [`RankApp::check_scalar`], for cross-checking against
    /// single-rank runs (total charge for FEM-PIC, total energy for
    /// CabanaPIC).
    pub check_scalar: f64,
}

impl DistributedReport {
    /// Particle imbalance: max over mean.
    pub fn imbalance(&self) -> f64 {
        let mean = self.total_particles as f64 / self.n_ranks as f64;
        let max = self.ranks.iter().map(|r| r.final_particles).max();
        if mean == 0.0 {
            1.0
        } else {
            max.unwrap_or(0) as f64 / mean
        }
    }

    pub fn total_comm_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.comm_bytes).sum()
    }
}

/// Run app `A` on `n_ranks` in-process ranks for `steps` steps. The
/// check scalar is taken after the main loop, so a reduction it needs
/// counts in the ranks' bytes but not in their time.
pub fn run_distributed<A: RankApp>(
    cfg: &A::Config,
    n_ranks: usize,
    steps: usize,
) -> DistributedReport {
    let per_rank = world_run(n_ranks, |ctx: &mut RankCtx| {
        let (mut sim, cell_rank) = A::new_rank(cfg, ctx.rank, n_ranks);
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        let mut migrated_out = 0usize;
        let t0 = Instant::now();
        for _ in 0..steps {
            let Ok(migration) = sim.step_over(&mut net);
            migrated_out += migration.sent;
        }
        let main_loop_seconds = t0.elapsed().as_secs_f64();
        let check = sim.check_scalar(ctx);
        let report = RankReport {
            main_loop_seconds,
            final_particles: sim.n_particles(),
            migrated_out,
            comm_bytes: ctx.sent_bytes(),
        };
        (report, check)
    });
    // The check scalar is identical on all ranks.
    let check_scalar = per_rank[0].1;
    let ranks: Vec<RankReport> = per_rank.into_iter().map(|(r, _)| r).collect();
    DistributedReport {
        n_ranks,
        total_particles: ranks.iter().map(|r| r.final_particles).sum(),
        main_loop_seconds: ranks
            .iter()
            .map(|r| r.main_loop_seconds)
            .fold(0.0f64, f64::max),
        ranks,
        check_scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_cabana::{CabanaConfig, StructuredCabana};
    use oppic_fempic::{FemPic, FemPicConfig};

    #[test]
    fn cabana_distributed_conserves_particles_and_energy() {
        let mut cfg = CabanaConfig::tiny();
        cfg.ppc = 8;
        let single = run_distributed::<StructuredCabana>(&cfg, 1, 6);
        let multi = run_distributed::<StructuredCabana>(&cfg, 4, 6);
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
        let single = run_distributed::<FemPic>(&cfg, 1, 5);
        let multi = run_distributed::<FemPic>(&cfg, 3, 5);
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
        let r2 = run_distributed::<StructuredCabana>(&cfg, 2, 3);
        let r4 = run_distributed::<StructuredCabana>(&cfg, 4, 3);
        assert!(r4.total_comm_bytes() > r2.total_comm_bytes());
    }
}
