//! Checkpoint roundtrip: save → restore → resume must be bit-identical
//! to the uninterrupted run.
//!
//! A toy simulation exercising every checkpointed ingredient — a
//! particle store (SoA columns + cell map), a mesh dat, and the RNG
//! state word — is stepped 4 ways: straight through, and through a
//! save at step 2 restored into a fresh instance. Any hidden state not
//! captured by the checkpoint (or any restore-order sensitivity) shows
//! up as a bitwise mismatch.

use oppic_core::checkpoint::{BinReader, BinWriter};
use oppic_core::dat::Dat;
use oppic_core::particles::{ColId, ParticleDats};
use std::io::Cursor;

/// Minimal simulation with the same checkpoint surface as the real
/// applications: particles drift by an RNG-driven kick, deposit into a
/// field, occasionally get removed and re-injected.
struct ToySim {
    step: u64,
    rng: u64,
    ps: ParticleDats,
    vel: ColId,
    field: Dat,
}

const N_CELLS: i32 = 16;

impl ToySim {
    fn new(seed: u64) -> Self {
        let mut ps = ParticleDats::new();
        let vel = ps.decl_dat("vel", 1);
        ps.inject_into(&[0, 3, 3, 7, 11, 15]);
        for i in 0..ps.len() {
            ps.el_mut(vel, i)[0] = (i as f64 + 1.0) * 0.25;
        }
        ToySim {
            step: 0,
            rng: seed | 1,
            ps,
            vel,
            field: Dat::zeros("field", N_CELLS as usize, 1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn advance(&mut self) {
        self.step += 1;
        // Kick + drift: cell hops driven by the RNG stream.
        for i in 0..self.ps.len() {
            let kick = (self.next_u64() % 3) as i32 - 1;
            let c = (self.ps.cells()[i] + kick).rem_euclid(N_CELLS);
            self.ps.cells_mut()[i] = c;
            self.ps.el_mut(self.vel, i)[0] += 0.125 * kick as f64;
        }
        // Deposit velocities into the field.
        for i in 0..self.ps.len() {
            let c = self.ps.cells()[i] as usize;
            self.field.raw_mut()[c] += self.ps.el(self.vel, i)[0];
        }
        // Remove one particle every other step, inject a fresh one.
        if self.step.is_multiple_of(2) {
            let victim = (self.next_u64() % self.ps.len() as u64) as usize;
            self.ps.remove_fill(&[victim]);
            let r = self.ps.inject(1, (self.step % N_CELLS as u64) as i32);
            let v = (self.next_u64() % 100) as f64 * 0.01;
            self.ps.el_mut(self.vel, r.start)[0] = v;
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut w = BinWriter::new(Vec::new()).unwrap();
        w.u64(self.step).unwrap();
        w.u64(self.rng).unwrap();
        self.ps.write_checkpoint(&mut w).unwrap();
        self.field.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap()
    }

    fn restore(bytes: &[u8]) -> Self {
        let mut r = BinReader::new(Cursor::new(bytes)).unwrap();
        let step = r.u64().unwrap();
        let rng = r.u64().unwrap();
        let ps = ParticleDats::read_checkpoint(&mut r).unwrap();
        let field = Dat::read_checkpoint(&mut r).unwrap();
        let vel = ps.col_id("vel").expect("vel column survives");
        ToySim {
            step,
            rng,
            ps,
            vel,
            field,
        }
    }
}

fn assert_bit_identical(a: &ToySim, b: &ToySim) {
    assert_eq!(a.step, b.step);
    assert_eq!(a.rng, b.rng, "RNG stream position diverged");
    assert_eq!(a.ps.len(), b.ps.len());
    assert_eq!(a.ps.cells(), b.ps.cells(), "cell maps differ");
    // Bitwise, not approximate: a checkpoint is a state copy.
    let (av, bv) = (a.ps.col(a.vel), b.ps.col(b.vel));
    for (i, (x, y)) in av.iter().zip(bv).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vel[{i}]: {x:e} vs {y:e}");
    }
    for (i, (x, y)) in a.field.raw().iter().zip(b.field.raw()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "field[{i}]: {x:e} vs {y:e}");
    }
}

#[test]
fn save_restore_resume_is_bit_identical_to_uninterrupted_run() {
    let mut straight = ToySim::new(0xCAFE);
    for _ in 0..4 {
        straight.advance();
    }

    let mut interrupted = ToySim::new(0xCAFE);
    interrupted.advance();
    interrupted.advance();
    let bytes = straight_through_checkpoint(&interrupted);
    drop(interrupted); // the original instance is gone — only bytes survive
    let mut resumed = ToySim::restore(&bytes);
    assert_eq!(resumed.step, 2);
    resumed.advance();
    resumed.advance();

    assert_bit_identical(&straight, &resumed);
}

/// Saving must not perturb the running simulation: save, keep stepping
/// the original, and the resumed copy still matches.
fn straight_through_checkpoint(sim: &ToySim) -> Vec<u8> {
    let a = sim.save();
    let b = sim.save();
    assert_eq!(a, b, "save is not read-only/deterministic");
    a
}

#[test]
fn checkpoint_roundtrip_preserves_store_schema() {
    let mut sim = ToySim::new(7);
    sim.advance();
    let restored = ToySim::restore(&sim.save());
    assert_eq!(restored.ps.col_id("vel"), Some(restored.vel));
    assert_eq!(restored.field.raw().len(), N_CELLS as usize);
    assert_bit_identical(&sim, &restored);
}
