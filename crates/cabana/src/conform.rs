//! [`Simulation`] implementation for the CabanaPIC engine over either
//! topology — the surface the cross-backend conformance harness and
//! the binary's front end drive.
//!
//! Observables are order-insensitive: the three cell field dats, the
//! per-cell occupancy histogram, and the energy diagnostics. The
//! particle columns are permuted by sorting and migration, so they are
//! never exposed for differential comparison.

use crate::{CabanaConfig, CabanaEngine, StructuredCabana, Topology};
use oppic_core::{ColId, ExecPolicy, Observable, ParticleDats, Recoverable, Simulation, Telemetry};
use oppic_mesh::Vec3;
use oppic_mpi::exchange::remove_leavers;
use oppic_mpi::{MigrationStats, RankApp, RankCtx, Transport};
use std::sync::Arc;

impl<T: Topology> CabanaEngine<T> {
    /// Particles per cell as a mesh-indexed histogram.
    pub fn cell_occupancy(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.geom.n_cells()];
        for &c in self.ps.cells() {
            counts[c as usize] += 1.0;
        }
        counts
    }
}

impl<T: Topology> Simulation for CabanaEngine<T> {
    fn advance(&mut self) {
        self.step();
    }

    fn step_count(&self) -> usize {
        CabanaEngine::step_count(self)
    }

    fn n_particles(&self) -> usize {
        self.ps.len()
    }

    fn last_step_flux(&self) -> (usize, usize) {
        // Periodic domain: no injection, no removal.
        (0, 0)
    }

    fn observables(&self) -> Vec<Observable> {
        let d = self.energies();
        vec![
            Observable::new("e", self.e.raw().to_vec()),
            Observable::new("b", self.b.raw().to_vec()),
            Observable::new("j", self.j.raw().to_vec()),
            Observable::new("cell_occupancy", self.cell_occupancy()),
            Observable::new("energy", vec![d.e_field, d.b_field, d.kinetic]),
            Observable::scalar("n_particles", self.ps.len() as f64),
        ]
    }

    fn invariants(&self) -> Result<(), String> {
        self.check_invariants()?;
        // Particle-count conservation: the periodic two-stream setup
        // neither injects nor removes.
        let expect = self.cfg.n_particles();
        if self.ps.len() != expect {
            return Err(format!(
                "particle count drifted: {} alive, {} initialised",
                self.ps.len(),
                expect
            ));
        }
        Ok(())
    }
}

impl<T: Topology> Recoverable for CabanaEngine<T> {
    fn save_state(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        self.save_checkpoint(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        // `restore_checkpoint` reads into locals, verifies the CRC
        // footer, and only then mutates — the validate-before-mutate
        // contract of the trait.
        self.restore_checkpoint(bytes)
    }
}

impl RankApp for StructuredCabana {
    type Config = CabanaConfig;

    /// Every rank builds the *global* deterministic two-stream state
    /// under `Seq` (the ranks are the parallelism) and keeps only its
    /// y slab's particles: slabs parallel to the x-streaming beams, so
    /// almost no particle ever migrates.
    fn new_rank(cfg: &CabanaConfig, rank: usize, n_ranks: usize) -> (Self, Vec<u32>) {
        let mut sim = StructuredCabana::new_structured(CabanaConfig {
            policy: ExecPolicy::Seq,
            ..cfg.clone()
        });
        let g = sim.geom;
        let cell_rank: Vec<u32> = (0..g.n_cells())
            .map(|c| ((g.cell_ijk(c)[1] * n_ranks) / g.ny) as u32)
            .collect();
        let foreign = sim.ps.leavers(&cell_rank, rank);
        remove_leavers(&mut sim.ps, &foreign);
        (sim, cell_rank)
    }

    fn step_over<N: Transport>(&mut self, net: &mut N) -> Result<MigrationStats, N::Error> {
        CabanaEngine::step_over(self, net)?;
        Ok(self.last_migration.clone())
    }

    fn particles(&mut self) -> (&mut ParticleDats, ColId) {
        (&mut self.ps, self.pos)
    }

    fn cell_centroid(&self, c: usize) -> Vec3 {
        let g = &self.geom;
        let [x, y, z] = g.cell_lo(g.cell_ijk(c));
        Vec3::new(x + 0.5 * g.dx, y + 0.5 * g.dy, z + 0.5 * g.dz)
    }

    fn telemetry(&self) -> &Arc<Telemetry> {
        self.profiler.telemetry()
    }

    /// The total energy: the fields are replicated, the kinetic part
    /// is reduced over the ranks.
    fn check_scalar(&self, ctx: &mut RankCtx) -> f64 {
        let d = self.energies();
        d.e_field + d.b_field + ctx.allreduce_sum(d.kinetic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_trait_drives_the_engine() {
        let mut sim = StructuredCabana::new_structured(CabanaConfig::tiny());
        let n0 = Simulation::n_particles(&sim);
        for _ in 0..3 {
            sim.advance();
            let (inj, rem) = sim.last_step_flux();
            assert_eq!((inj, rem), (0, 0));
            assert_eq!(Simulation::n_particles(&sim), n0);
        }
        assert_eq!(Simulation::step_count(&sim), 3);
        sim.invariants().unwrap();
        let obs = sim.observables();
        let names: Vec<&str> = obs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            ["e", "b", "j", "cell_occupancy", "energy", "n_particles"]
        );
        assert_eq!(
            obs[3].values.iter().sum::<f64>() as usize,
            Simulation::n_particles(&sim)
        );
    }

    #[test]
    fn recoverable_round_trip_is_bit_exact_and_validates() {
        let cfg = CabanaConfig::tiny();
        let mut sim = StructuredCabana::new_structured(cfg.clone());
        for _ in 0..4 {
            sim.advance();
        }
        let mut snap = Vec::new();
        sim.save_state(&mut snap).unwrap();

        // A bit-flipped snapshot is rejected without mutating anything.
        let mut other = StructuredCabana::new_structured(cfg);
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x04;
        assert!(other.restore_state(&bad).is_err());
        assert_eq!(Simulation::step_count(&other), 0, "state untouched");
        // A truncated one too.
        assert!(other.restore_state(&snap[..snap.len() - 5]).is_err());

        // The pristine snapshot restores and replays bit-exactly.
        other.restore_state(&snap).unwrap();
        other.advance();
        sim.advance();
        assert_eq!(sim.ps.col(sim.pos), other.ps.col(other.pos));
        assert_eq!(sim.e.raw(), other.e.raw());
        assert_eq!(sim.b.raw(), other.b.raw());
    }
}
