//! The distributed Mini-FEM-PIC step (DESIGN.md §7): local kernels,
//! one particle migration, then the node-charge reduction that stands
//! in for the node-halo exchange, then the field solve.
//!
//! [`FemPic::distributed_step`] is the only fempic step body with a
//! migration. It is generic over the interconnect
//! ([`oppic_mpi::Transport`]: the plain channel path or the reliable
//! link) and takes two choices as inputs:
//!
//! * the migration form, an [`OverlapForm`] chosen once from the
//!   schedule report's proofs ([`FemPic::migrate_form`]):
//!   * **None** — synchronous: migrate, then one full deposit;
//!   * **Split** — `DepositCharge` is split-legal: the interior
//!     partition (particles staying put) deposits while the exchange
//!     is in flight, the boundary partition (arrivals) after the
//!     drain. Bit-identical to the synchronous form;
//!   * **Whole** — `SolvePotential` is legal: deposit and reduce
//!     before the exchange (each particle deposits on whichever rank
//!     holds it; the global reduction makes attribution irrelevant)
//!     and hide the migration behind the field solve;
//! * the field solve: replicated on every rank, or the distributed
//!   CG of [`DistributedSolve`].
//!
//! With a schedule recorder attached the step records its exchanges
//! next to the loops' own events.

use crate::config::FemPicConfig;
use crate::sim::FemPic;
use oppic_core::particles::ParticleDats;
use oppic_core::ExchangeDir;
use oppic_core::ExecPolicy;
use oppic_linalg::CgConfig;
use oppic_mesh::Vec3;
use oppic_mpi::solve::{cg_solve_distributed, partition_system, DistributedSystem};
use oppic_mpi::{
    directional_partition, MigrationStats, OverlapForm, OverlapGate, RankCtx, Transport,
};

/// Call-site tag of the particle migration in recorded schedules and
/// analyzer reports.
const MIGRATE_TAG: &str = "fempic/migrate";

/// One rank's share of the Poisson system for the distributed field
/// solve: nodes belong to the lowest rank owning an adjacent cell.
pub struct DistributedSolve {
    sys: DistributedSystem,
    /// Global ids of the nodes this rank owns, in local order.
    owned: Vec<usize>,
    /// Owned potential, kept across steps as the CG warm start.
    x_owned: Vec<f64>,
    /// Tolerances of the distributed CG.
    pub cg_config: CgConfig,
}

impl DistributedSolve {
    pub fn new(sim: &FemPic, cell_rank: &[u32], rank: usize, n_ranks: usize) -> Self {
        let mut node_owner = vec![u32::MAX; sim.mesh.n_nodes()];
        for (c, nd) in sim.mesh.c2n.iter().enumerate() {
            for &n in nd {
                node_owner[n] = node_owner[n].min(cell_rank[c]);
            }
        }
        let sys =
            partition_system(sim.fem.reduced_matrix(), &node_owner, n_ranks).swap_remove(rank);
        let owned: Vec<usize> = (0..node_owner.len())
            .filter(|&n| node_owner[n] == rank as u32)
            .collect();
        let x_owned = vec![0.0; sys.n_owned];
        DistributedSolve {
            sys,
            owned,
            x_owned,
            cg_config: CgConfig {
                rtol: 1e-8,
                atol: 1e-30,
                max_iters: 5000,
                ..CgConfig::default()
            },
        }
    }
}

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

    /// The strongest migration form `gate` proves legal for this app.
    pub fn migrate_form(gate: &OverlapGate) -> OverlapForm {
        let migrate =
            |loop_name| gate.allows("particles", ExchangeDir::Migrate, MIGRATE_TAG, loop_name);
        if migrate("SolvePotential") == OverlapForm::Whole {
            OverlapForm::Whole
        } else if migrate("DepositCharge") != OverlapForm::None {
            OverlapForm::Split
        } else {
            OverlapForm::None
        }
    }

    /// One distributed step over `net`: inject, push, move, migrate
    /// the particles whose cell `cell_rank` gives to another rank,
    /// deposit, reduce the node charge globally, solve. `solve = None`
    /// runs the replicated field solve. Returns this rank's migration
    /// tally. Collective: every rank calls it with the same `form`.
    ///
    /// # Panics
    /// If `form` is `Whole` with a distributed solve: the whole form
    /// hides the migration behind the replicated solve.
    pub fn distributed_step<N: Transport>(
        &mut self,
        ctx: &mut RankCtx,
        net: &mut N,
        cell_rank: &[u32],
        form: OverlapForm,
        solve: Option<&mut DistributedSolve>,
    ) -> Result<MigrationStats, N::Error> {
        if let Some(rec) = &self.schedule {
            rec.begin_step();
        }
        self.inject();
        self.calc_pos_vel();
        self.move_particles();
        let leavers = self.ps.leavers(cell_rank, ctx.rank);

        let stats = match form {
            OverlapForm::None => {
                let stats = self.migrate(ctx, net, &leavers, None)?;
                self.deposit_charge();
                stats
            }
            OverlapForm::Split => {
                let stats = self.migrate(
                    ctx,
                    net,
                    &leavers,
                    Some(|sim: &mut FemPic| sim.deposit_charge_range(0, sim.ps.len())),
                )?;
                let interior = self.ps.len() - stats.received;
                self.deposit_charge_range(interior, self.ps.len());
                stats
            }
            OverlapForm::Whole => {
                assert!(solve.is_none(), "the whole form needs the replicated solve");
                self.deposit_charge_range(0, self.ps.len());
                self.reduce_charge(ctx, net)?;
                return self.migrate(
                    ctx,
                    net,
                    &leavers,
                    Some(|sim: &mut FemPic| {
                        sim.field_solve();
                    }),
                );
            }
        };
        self.reduce_charge(ctx, net)?;
        match solve {
            None => {
                self.field_solve();
            }
            Some(ds) => self.solve_distributed(ctx, net, ds)?,
        }
        Ok(stats)
    }

    /// Migrate `leavers` over `net`. A `window` runs on the whole sim
    /// while the exchange is in flight, with the interior store (the
    /// particles staying put) in `self.ps`.
    fn migrate<N: Transport>(
        &mut self,
        ctx: &mut RankCtx,
        net: &mut N,
        leavers: &[(usize, u32, i32)],
        window: Option<fn(&mut FemPic)>,
    ) -> Result<MigrationStats, N::Error> {
        if let Some(rec) = &self.schedule {
            rec.record_exchange("particles", ExchangeDir::Migrate, MIGRATE_TAG);
        }
        let Some(window) = window else {
            return net.migrate(ctx, &mut self.ps, leavers, None);
        };
        let mut ps = std::mem::take(&mut self.ps);
        let stats = net.migrate(
            ctx,
            &mut ps,
            leavers,
            Some(&mut |interior: &mut ParticleDats| {
                std::mem::swap(&mut self.ps, interior);
                window(self);
                std::mem::swap(&mut self.ps, interior);
            }),
        );
        self.ps = ps;
        stats
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

    /// The distributed field solve: owned RHS rows, halo-exchanged
    /// SpMV and allreduce dot products, then the global potential
    /// assembled from every rank's disjoint owned piece.
    fn solve_distributed<N: Transport>(
        &mut self,
        ctx: &mut RankCtx,
        net: &mut N,
        ds: &mut DistributedSolve,
    ) -> Result<(), N::Error> {
        let rhs = self
            .fem
            .build_rhs(self.node_charge.raw(), self.cfg.epsilon0);
        let my_rhs: Vec<f64> = ds.owned.iter().map(|&n| rhs[n]).collect();
        let out = cg_solve_distributed(ctx, &ds.sys, &my_rhs, &mut ds.x_owned, ds.cg_config)
            .expect("halo exchange in distributed solve");
        debug_assert!(out.converged, "{out:?}");
        let mut phi = vec![0.0; self.mesh.n_nodes()];
        for (&n, &x) in ds.owned.iter().zip(&ds.x_owned) {
            phi[n] = x;
        }
        let phi = net.allreduce_vec_sum(ctx, &phi)?;
        self.fem.set_potential(&phi);
        self.fem.electric_field(&self.mesh, self.efield.raw_mut());
        Ok(())
    }
}
