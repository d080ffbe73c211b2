//! The distributed Mini-FEM-PIC step (DESIGN.md §7): local kernels,
//! one particle migration, then the node-charge reduction that stands
//! in for the node-halo exchange, then the field solve.
//!
//! [`FemPic::distributed_step`] is the only fempic step body with a
//! migration. It is generic over the interconnect
//! ([`oppic_mpi::Transport`]: the plain channel path or the reliable
//! link). Every rank holds the whole mesh and the factored field
//! matrix, so the field solve is replicated.
//!
//! With a schedule recorder attached the step records its exchanges
//! next to the loops' own events.

use crate::config::FemPicConfig;
use crate::sim::FemPic;
use oppic_core::ExchangeDir;
use oppic_core::ExecPolicy;
use oppic_mesh::Vec3;
use oppic_mpi::{directional_partition, MigrationStats, RankCtx, Transport};

/// Call-site tag of the particle migration in recorded schedules and
/// analyzer reports.
const MIGRATE_TAG: &str = "fempic/migrate";

impl FemPicConfig {
    /// Rank `rank`'s share of this configuration in an `n_ranks` run:
    /// an equal part of the injection rate, its own injection stream,
    /// and `Seq` execution (ranks are threads already).
    pub fn rank_share(&self, rank: usize, n_ranks: usize) -> FemPicConfig {
        let mut cfg = self.clone();
        cfg.inject_per_step = (self.inject_per_step / n_ranks).max(1);
        cfg.seed = self.seed.wrapping_add(rank as u64 * 0x9E37);
        cfg.policy = ExecPolicy::Seq;
        cfg
    }
}

impl FemPic {
    /// Rank `rank`'s simulation in an `n_ranks` run, with the cell →
    /// rank map of the paper's directional partition: slabs along y,
    /// parallel to the x flow, so the steady stream rarely crosses a
    /// rank boundary (the "principal direction of motion" rationale).
    pub fn new_rank(base: &FemPicConfig, rank: usize, n_ranks: usize) -> (FemPic, Vec<u32>) {
        let sim = FemPic::new(base.rank_share(rank, n_ranks));
        let centroids: Vec<Vec3> = (0..sim.mesh.n_cells())
            .map(|c| sim.mesh.cell_centroid(c))
            .collect();
        let cell_rank = directional_partition(&centroids, 1, n_ranks);
        (sim, cell_rank)
    }

    /// One distributed step over `net`: inject, push, move, migrate
    /// the particles whose cell `cell_rank` gives to another rank,
    /// deposit, reduce the node charge globally, solve. Returns this
    /// rank's migration tally. Collective: every rank calls it.
    pub fn distributed_step<N: Transport>(
        &mut self,
        ctx: &mut RankCtx,
        net: &mut N,
        cell_rank: &[u32],
    ) -> Result<MigrationStats, N::Error> {
        if let Some(rec) = &self.schedule {
            rec.begin_step();
        }
        self.inject();
        self.calc_pos_vel();
        self.move_particles();
        let leavers = self.ps.leavers(cell_rank, ctx.rank);
        if let Some(rec) = &self.schedule {
            rec.record_exchange("particles", ExchangeDir::Migrate, MIGRATE_TAG);
        }
        let stats = net.migrate(ctx, &mut self.ps, &leavers)?;
        self.deposit_charge();
        self.reduce_charge(ctx, net)?;
        self.field_solve();
        Ok(stats)
    }

    /// The node-halo stand-in: sum the deposited charge over all ranks.
    fn reduce_charge<N: Transport>(
        &mut self,
        ctx: &mut RankCtx,
        net: &mut N,
    ) -> Result<(), N::Error> {
        if let Some(rec) = &self.schedule {
            rec.record_exchange(
                self.node_charge.name(),
                ExchangeDir::ReduceSum,
                "fempic/node_charge",
            );
        }
        let reduced = net.allreduce_vec_sum(ctx, self.node_charge.raw())?;
        self.node_charge.raw_mut().copy_from_slice(&reduced);
        Ok(())
    }
}
