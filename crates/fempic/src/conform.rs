//! [`Simulation`] implementation — the surface the cross-backend
//! conformance harness (`crates/conformance`) drives.
//!
//! Observables are deliberately order-insensitive: mesh-indexed dats
//! (node charge, cell field, node potential), the per-cell particle
//! occupancy histogram, and global scalars. Particle columns are *not*
//! exposed — sorting policies and rank migration permute the particle
//! array without changing the physics, so raw columns are not
//! comparable across backend configurations.

use crate::sim::FemPic;
use oppic_core::{Observable, Recoverable, Simulation};

impl FemPic {
    /// Particles per cell as a mesh-indexed histogram (f64 so it rides
    /// the same comparison path as the field dats).
    pub fn cell_occupancy(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.mesh.n_cells()];
        for &c in self.ps.cells() {
            counts[c as usize] += 1.0;
        }
        counts
    }

    /// Total kinetic energy `Σ ½ m v²` — order-insensitive up to
    /// summation order.
    pub fn kinetic_energy(&self) -> f64 {
        let v = self.ps.col(self.vel);
        0.5 * self.cfg.mass * v.iter().map(|x| x * x).sum::<f64>()
    }
}

impl Simulation for FemPic {
    fn advance(&mut self) {
        self.step();
    }

    fn step_count(&self) -> usize {
        FemPic::step_count(self)
    }

    fn n_particles(&self) -> usize {
        self.ps.len()
    }

    fn last_step_flux(&self) -> (usize, usize) {
        // Injection is a fixed-rate inlet; removals are whatever the
        // last move's hole-fill dropped at the outlet plus anything
        // the numeric quarantine pulled out under `guard_numerics`.
        (
            self.cfg.inject_per_step,
            self.last_move.removed.len() + self.last_quarantined,
        )
    }

    fn observables(&self) -> Vec<Observable> {
        vec![
            Observable::new("node_charge", self.node_charge.raw().to_vec()),
            Observable::new("efield", self.efield.raw().to_vec()),
            Observable::new("potential", self.fem.potential().to_vec()),
            Observable::new("cell_occupancy", self.cell_occupancy()),
            Observable::scalar("kinetic_energy", self.kinetic_energy()),
            Observable::scalar("n_particles", self.ps.len() as f64),
        ]
    }

    fn invariants(&self) -> Result<(), String> {
        // Structural: every particle inside its recorded cell.
        self.check_invariants()?;
        // Physics: deposit conserves charge — barycentric weights sum
        // to 1 per particle, so total node charge is n·q exactly (up
        // to summation order).
        if self.step_count() > 0 {
            let total = self.node_charge.raw().iter().sum::<f64>();
            let expect = self.ps.len() as f64 * self.cfg.charge;
            let tol = 1e-9 * expect.abs().max(1.0);
            if (total - expect).abs() > tol {
                return Err(format!(
                    "charge not conserved: deposited {total}, expected {expect} \
                     ({} particles x {})",
                    self.ps.len(),
                    self.cfg.charge
                ));
            }
        }
        Ok(())
    }
}

impl Recoverable for FemPic {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FemPicConfig;

    #[test]
    fn simulation_trait_drives_the_app() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        for _ in 0..4 {
            let before = Simulation::n_particles(&sim);
            sim.advance();
            let (inj, rem) = sim.last_step_flux();
            assert_eq!(Simulation::n_particles(&sim), before + inj - rem);
        }
        assert_eq!(Simulation::step_count(&sim), 4);
        sim.invariants().unwrap();
        let obs = sim.observables();
        let names: Vec<&str> = obs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "node_charge",
                "efield",
                "potential",
                "cell_occupancy",
                "kinetic_energy",
                "n_particles"
            ]
        );
        let occ = &obs[3];
        assert_eq!(occ.values.len(), sim.mesh.n_cells());
        assert_eq!(
            occ.values.iter().sum::<f64>() as usize,
            Simulation::n_particles(&sim)
        );
    }

    #[test]
    fn recoverable_round_trip_is_bit_exact_and_validates() {
        let cfg = FemPicConfig::tiny();
        let mut sim = FemPic::new(cfg.clone());
        for _ in 0..4 {
            sim.advance();
        }
        let mut snap = Vec::new();
        sim.save_state(&mut snap).unwrap();

        // A bit-flipped snapshot is rejected without mutating anything.
        let mut other = FemPic::new(cfg);
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(other.restore_state(&bad).is_err());
        assert_eq!(Simulation::step_count(&other), 0, "state untouched");
        // A truncated one too.
        assert!(other.restore_state(&snap[..snap.len() - 3]).is_err());

        // The pristine snapshot restores and replays bit-exactly.
        other.restore_state(&snap).unwrap();
        other.advance();
        sim.advance();
        assert_eq!(sim.ps.col(sim.pos), other.ps.col(other.pos));
        assert_eq!(sim.node_charge.raw(), other.node_charge.raw());
    }

    #[test]
    fn guard_numerics_quarantines_poisoned_particles() {
        let mut cfg = FemPicConfig::tiny();
        cfg.guard_numerics = true;
        let mut sim = FemPic::new(cfg);
        sim.advance();
        let n = Simulation::n_particles(&sim);
        // Poison two particles (one NaN position, one Inf velocity):
        // the guarded step must remove exactly those, keep the flux
        // ledger balanced, and leave the physics invariants intact.
        let pos = sim.pos;
        let vel = sim.vel;
        sim.ps.el_mut(pos, 1)[2] = f64::NAN;
        sim.ps.el_mut(vel, 3)[0] = f64::INFINITY;
        let before = Simulation::n_particles(&sim);
        assert_eq!(before, n);
        sim.advance();
        assert_eq!(sim.last_quarantined, 2);
        let (inj, rem) = sim.last_step_flux();
        assert_eq!(Simulation::n_particles(&sim), before + inj - rem);
        sim.invariants().unwrap();
    }

    #[test]
    fn guard_numerics_is_bit_identical_on_healthy_runs() {
        let cfg = FemPicConfig::tiny();
        let mut plain = FemPic::new(cfg.clone());
        let mut guarded_cfg = cfg;
        guarded_cfg.guard_numerics = true;
        let mut guarded = FemPic::new(guarded_cfg);
        for _ in 0..5 {
            plain.advance();
            guarded.advance();
        }
        assert_eq!(plain.ps.col(plain.pos), guarded.ps.col(guarded.pos));
        assert_eq!(plain.node_charge.raw(), guarded.node_charge.raw());
        assert_eq!(plain.fem.potential(), guarded.fem.potential());
    }

    #[test]
    fn corrupted_deposit_breaks_the_charge_invariant() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        sim.step();
        sim.invariants().unwrap();
        // A lost contribution (the bug class racy deposits produce)
        // must be visible to the physics oracle.
        sim.node_charge.raw_mut()[0] -= sim.cfg.charge;
        let err = sim.invariants().unwrap_err();
        assert!(err.contains("charge not conserved"), "{err}");
    }
}
