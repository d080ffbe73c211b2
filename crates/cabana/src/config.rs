//! CabanaPIC configuration.
//!
//! The paper's single-node runs use `nx=40, ny=40, nz=60` (96 000
//! cells) with 750 or 1500 particles per cell; the power-equivalence
//! study stretches `nz` to 1920. Units are normalised: `c = ε₀ = μ₀ =
//! 1`, electron charge-to-mass `q/m = −1`.

use oppic_core::{ExecPolicy, RebalancePolicy, SortPolicy};

/// Full configuration for both the DSL and the structured versions.
#[derive(Debug, Clone)]
pub struct CabanaConfig {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Cell sizes.
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
    /// Macro-particles per cell (two half-beams; kept even).
    pub ppc: usize,
    /// Beam drift speed along x (two-stream: ±v0).
    pub v0: f64,
    /// Sinusoidal velocity perturbation amplitude (seeds the
    /// instability deterministically).
    pub perturbation: f64,
    /// Number of perturbation wavelengths across the x extent.
    pub modes: usize,
    /// Time step (must satisfy CFL for the collocated FDTD step).
    pub dt: f64,
    /// Macro-particle charge (electrons: negative).
    pub charge: f64,
    /// Macro-particle mass.
    pub mass: f64,
    pub policy: ExecPolicy,
    /// Record per-particle visited-cell counts each `Move_Deposit`
    /// (GPU divergence analysis; off by default).
    pub record_visits: bool,
    /// When to rebuild the CSR cell index with a particle sort. The
    /// sort puts particles of a cell next to each other, so their
    /// gathers read the same cells, and a binding built on a fresh
    /// index aligns its spans to cells. The gather itself is the same
    /// on every step.
    pub sort_policy: SortPolicy,
    /// Persistent particle-thread binding (DESIGN.md §12): pin a fixed
    /// particle partition to each worker across steps on the
    /// per-particle mover path. Element writes stay slot-local, so
    /// binding-on is bit-identical to binding-off.
    pub binding: bool,
    /// When to rebuild the binding; only consulted with `binding`.
    pub rebalance: RebalancePolicy,
}

impl Default for CabanaConfig {
    fn default() -> Self {
        CabanaConfig {
            nx: 16,
            ny: 8,
            nz: 8,
            dx: 1.0 / 16.0,
            dy: 1.0 / 8.0,
            dz: 1.0 / 8.0,
            ppc: 32,
            v0: 0.2,
            perturbation: 0.01,
            modes: 1,
            dt: 0.7 * (1.0 / 16.0) / (3f64).sqrt(), // CFL-safe for c=1
            charge: -1.0,
            mass: 1.0,
            policy: ExecPolicy::Par,
            record_visits: false,
            sort_policy: SortPolicy::Never,
            binding: false,
            rebalance: RebalancePolicy::DriftFraction(0.5),
        }
    }
}

impl CabanaConfig {
    /// Tiny deterministic configuration for unit tests.
    pub fn tiny() -> Self {
        CabanaConfig {
            nx: 8,
            ny: 4,
            nz: 4,
            dx: 1.0 / 8.0,
            dy: 0.25,
            dz: 0.25,
            ppc: 8,
            dt: 0.5 * (1.0 / 8.0) / (3f64).sqrt(),
            policy: ExecPolicy::Seq,
            ..Default::default()
        }
    }

    /// The paper's single-node shape scaled by `f` (1.0 → 40×40×60 =
    /// 96k cells).
    pub fn paper_scaled(f: f64, ppc: usize) -> Self {
        let s = f.cbrt();
        let nx = ((40.0 * s).round() as usize).max(2);
        let ny = ((40.0 * s).round() as usize).max(2);
        let nz = ((60.0 * s).round() as usize).max(2);
        CabanaConfig {
            nx,
            ny,
            nz,
            dx: 1.0 / nx as f64,
            dy: 1.0 / ny as f64,
            dz: 1.0 / nz as f64,
            ppc,
            dt: 0.5 * (1.0 / nx.max(ny).max(nz) as f64) / (3f64).sqrt(),
            ..Default::default()
        }
    }

    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn n_particles(&self) -> usize {
        self.n_cells() * self.ppc
    }

    pub fn lengths(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        ]
    }

    /// Cell volume.
    pub fn cell_volume(&self) -> f64 {
        self.dx * self.dy * self.dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_counts() {
        let c = CabanaConfig::default();
        assert_eq!(c.n_cells(), 16 * 8 * 8);
        assert_eq!(c.n_particles(), c.n_cells() * 32);
    }

    #[test]
    fn paper_scale_unity_is_96k() {
        let c = CabanaConfig::paper_scaled(1.0, 750);
        assert_eq!(c.n_cells(), 96_000);
        assert_eq!(c.n_particles(), 72_000_000);
    }

    #[test]
    fn cfl_is_respected() {
        for cfg in [
            CabanaConfig::default(),
            CabanaConfig::tiny(),
            CabanaConfig::paper_scaled(0.1, 8),
        ] {
            let dmin = cfg.dx.min(cfg.dy).min(cfg.dz);
            assert!(cfg.dt < dmin / (3f64).sqrt() + 1e-12, "CFL violated");
        }
    }
}
