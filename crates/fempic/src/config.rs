//! Mini-FEM-PIC configuration — the paper artifact drives the app with
//! a config file (mesh + plasma density + integration parameters);
//! this struct is its typed equivalent.

use crate::collisions::CollisionModel;
use oppic_core::{DepositMethod, ExecPolicy, RebalancePolicy, SortPolicy};

/// Particle pusher (Section 2, step 3: the paper names leap-frog as
/// the scheme in use, with Velocity Verlet as an alternative for the
/// zero-magnetic-field electrostatic case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Classic leap-frog: kick, then drift with the new velocity.
    Leapfrog,
    /// Velocity Verlet: half kick, drift, half kick (second-order,
    /// self-starting).
    VelocityVerlet,
}

/// Particle relocation strategy (Section 3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveStrategy {
    /// Track cell-to-cell from the previous cell (Figure 7(a)).
    MultiHop,
    /// Jump via the structured overlay, then multi-hop (Figure 7(b));
    /// the overlay resolution is cells per axis.
    DirectHop { overlay_res: usize },
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct FemPicConfig {
    /// Hexahedra per axis (tet cells = 6·nx·ny·nz). The paper's 48k
    /// mesh is (20, 20, 20).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Duct physical size; x is the flow axis.
    pub lx: f64,
    pub ly: f64,
    pub lz: f64,
    /// Macro-particles injected per step (paper: fixed-rate inlet
    /// injection; the 48k/70M config works out to ≈280k per step —
    /// scale down proportionally).
    pub inject_per_step: usize,
    /// Macro-particle charge (positive ions).
    pub charge: f64,
    /// Macro-particle mass.
    pub mass: f64,
    /// Injection velocity along +x.
    pub inlet_velocity: f64,
    /// Thermal velocity jitter (fraction of inlet velocity).
    pub thermal_fraction: f64,
    /// Fixed wall potential (positive: repels ions, keeps them in the
    /// duct).
    pub wall_potential: f64,
    /// Vacuum permittivity in simulation units.
    pub epsilon0: f64,
    /// Time step.
    pub dt: f64,
    /// Execution policy (backend).
    pub policy: ExecPolicy,
    /// Race-handling strategy for DepositCharge.
    pub deposit: DepositMethod,
    /// Particle relocation strategy.
    pub move_strategy: MoveStrategy,
    /// RNG seed (simulations are fully deterministic per seed under
    /// `ExecPolicy::Seq`).
    pub seed: u64,
    /// Record per-particle hop-chain lengths each Move (GPU divergence
    /// analysis; off by default).
    pub record_move_chains: bool,
    /// Use cell-coloring for DepositCharge instead of `deposit`
    /// (Section 3.3's third CPU option; forces a per-step particle
    /// sort — "introducing an overhead").
    pub coloring: bool,
    /// When to rebuild the CSR cell index with a particle sort, right
    /// after injection. Independent of `coloring`, which sorts before
    /// every deposit.
    pub sort_policy: SortPolicy,
    /// Let the deposit [`oppic_core::AutoTuner`] pick the method per
    /// step from runtime statistics, overriding `deposit`. Decisions
    /// are traced to the telemetry hub.
    pub auto_tune: bool,
    /// Particle pusher.
    pub integrator: Integrator,
    /// Optional Monte-Carlo collisions against a neutral background
    /// (the paper's "additional routines" — Section 2).
    pub collisions: Option<CollisionModel>,
    /// Persistent particle-thread binding (DESIGN.md §12): partition
    /// particles into per-worker cell blocks that survive across
    /// steps instead of letting rayon re-chunk every loop. Element
    /// writes stay slot-disjoint, so binding-on runs are bit-identical
    /// to binding-off (a conformance promise check).
    pub binding: bool,
    /// When to rebuild the binding; only consulted with `binding`.
    pub rebalance: RebalancePolicy,
    /// Resilience-layer numeric guard: quarantine non-finite particles
    /// before the move/deposit stages. The field solve rejects a
    /// non-finite load vector either way. Identical arithmetic on the
    /// healthy path, so guarded and unguarded runs stay bit-comparable.
    pub guard_numerics: bool,
}

impl Default for FemPicConfig {
    fn default() -> Self {
        FemPicConfig {
            nx: 8,
            ny: 8,
            nz: 8,
            lx: 2.0,
            ly: 1.0,
            lz: 1.0,
            inject_per_step: 2000,
            charge: 1.0e-2,
            mass: 1.0,
            inlet_velocity: 0.6,
            thermal_fraction: 0.05,
            wall_potential: 2.0,
            epsilon0: 8.85e-2,
            dt: 0.05,
            policy: ExecPolicy::Par,
            deposit: DepositMethod::ScatterArrays,
            move_strategy: MoveStrategy::MultiHop,
            seed: 0x0FF1CE,
            record_move_chains: false,
            coloring: false,
            sort_policy: SortPolicy::Never,
            auto_tune: false,
            integrator: Integrator::Leapfrog,
            collisions: None,
            binding: false,
            rebalance: RebalancePolicy::DriftFraction(0.5),
            guard_numerics: false,
        }
    }
}

impl FemPicConfig {
    /// A small deterministic configuration for unit tests.
    pub fn tiny() -> Self {
        FemPicConfig {
            nx: 3,
            ny: 3,
            nz: 3,
            inject_per_step: 50,
            policy: ExecPolicy::Seq,
            deposit: DepositMethod::Serial,
            ..Default::default()
        }
    }

    /// The paper's single-node configuration scaled by `f` (1.0 =
    /// the 48 000-cell mesh).
    pub fn paper_scaled(f: f64) -> Self {
        let n = ((20.0 * f.cbrt()).round() as usize).max(2);
        FemPicConfig {
            nx: n,
            ny: n,
            nz: n,
            inject_per_step: ((70_000_000.0 / 250.0) * f).max(100.0) as usize,
            ..Default::default()
        }
    }

    /// [`FemPicConfig::tiny`] injecting `particles` per step from a
    /// stream whose seed is offset by `seed`: the world the
    /// rank-failure runs and chaos cells step.
    pub fn tiny_seeded(particles: usize, seed: u64) -> Self {
        let tiny = FemPicConfig::tiny();
        FemPicConfig {
            inject_per_step: particles,
            seed: tiny.seed.wrapping_add(seed),
            ..tiny
        }
    }

    pub fn n_cells(&self) -> usize {
        6 * self.nx * self.ny * self.nz
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = FemPicConfig::default();
        assert!(c.n_cells() > 0);
        assert!(c.dt > 0.0 && c.epsilon0 > 0.0 && c.mass > 0.0);
    }

    #[test]
    fn paper_scaled_hits_48k_at_unity() {
        let c = FemPicConfig::paper_scaled(1.0);
        assert_eq!(c.n_cells(), 48_000);
    }

    #[test]
    fn paper_scaled_shrinks() {
        let c = FemPicConfig::paper_scaled(0.01);
        assert!(c.n_cells() < 2000);
        assert!(c.inject_per_step >= 100);
    }
}
