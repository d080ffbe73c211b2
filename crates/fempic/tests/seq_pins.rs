//! Bit-identity pin for `configs/fempic_small.cfg` under
//! `ExecPolicy::Seq`: 60 steps of the small duct, digesting the
//! deposited charge, the live count and the CG iterations (0: the
//! replicated field solve is direct) of every step, plus the final
//! particle positions. The move engine's per-piece tallies must leave
//! the `Seq` arithmetic untouched.

use oppic_core::telemetry::fnv1a;
use oppic_core::{DepositMethod, ExecPolicy};
use oppic_fempic::{FemPic, FemPicConfig, MoveStrategy};

const STEPS: usize = 60;

/// `configs/fempic_small.cfg`: an 8×8×8 duct of length 2, 2000
/// particles injected per step, wall potential 2, direct-hop move
/// through a 32³ overlay, scatter-array deposit.
fn fempic_small() -> FemPicConfig {
    FemPicConfig {
        nx: 8,
        ny: 8,
        nz: 8,
        lx: 2.0,
        inject_per_step: 2000,
        wall_potential: 2.0,
        move_strategy: MoveStrategy::DirectHop { overlay_res: 32 },
        deposit: DepositMethod::ScatterArrays,
        policy: ExecPolicy::Seq,
        ..FemPicConfig::default()
    }
}

const STEP_DIGEST: u64 = 0x6fa6_c472_a465_5b1a;
const POSITION_HASH: u64 = 0x0972_0ba8_f392_9388;

#[test]
fn fempic_small_seq_is_pinned() {
    let mut sim = FemPic::new(fempic_small());
    let mut steps = Vec::new();
    for _ in 0..STEPS {
        let d = sim.step();
        steps.extend_from_slice(&d.total_charge.to_bits().to_le_bytes());
        steps.extend_from_slice(&(d.n_particles as u64).to_le_bytes());
        steps.extend_from_slice(&(d.cg_iterations as u64).to_le_bytes());
    }
    let pos: Vec<u8> = sim
        .ps
        .col(sim.pos)
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let got = (fnv1a(&steps), fnv1a(&pos));
    assert_eq!(
        got,
        (STEP_DIGEST, POSITION_HASH),
        "(step digest, position hash) = ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
