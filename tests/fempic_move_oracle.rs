//! Oracle for the FemPIC move's per-cell barycentric maps.
//!
//! The move evaluates each visited cell's 16-coefficient `cell_det`
//! row and writes the final cell's weights into `lc`; the deposit
//! reads nothing else. After every step, every live particle's `lc`
//! must be within 1e-12 of the volume-ratio `barycentric` of its
//! position in its cell, and that reference must place it inside the
//! cell within `BARY_TOL`. Checked on the small duct under `Seq` and a
//! 2-thread pool, and on the arrivals of a 3-rank distributed step
//! (the codec ships `lc` with every particle).

use op_pic::core::{DepositMethod, ExecPolicy};
use op_pic::fempic::{FemPic, FemPicConfig, MoveStrategy, BARY_TOL};
use op_pic::mesh::geometry::{bary_inside, barycentric};
use op_pic::mesh::Vec3;
use op_pic::mpi::{world_run, Plain, RankApp, RankCtx};

const LC_TOL: f64 = 1e-12;

/// `configs/fempic_small.cfg`: an 8×8×8 duct of length 2, 2000
/// particles injected per step, wall potential 2, direct-hop move
/// through a 32³ overlay, scatter-array deposit.
fn fempic_small(policy: ExecPolicy) -> FemPicConfig {
    FemPicConfig {
        nx: 8,
        ny: 8,
        nz: 8,
        lx: 2.0,
        inject_per_step: 2000,
        wall_potential: 2.0,
        move_strategy: MoveStrategy::DirectHop { overlay_res: 32 },
        deposit: DepositMethod::ScatterArrays,
        policy,
        ..FemPicConfig::default()
    }
}

/// Every live particle's `lc` against the reference weights of its
/// position in its cell; the first violation, if any.
fn check_lc(sim: &FemPic) -> Result<(), String> {
    let lc = sim.ps.col(sim.lc);
    for (i, &c) in sim.ps.cells().iter().enumerate() {
        let p = Vec3::from_slice(sim.ps.el(sim.pos, i));
        let want = barycentric(p, &sim.mesh.cell_vertices(c as usize));
        let got = &lc[i * 4..i * 4 + 4];
        if (0..4).any(|k| (got[k] - want[k]).abs() > LC_TOL) {
            return Err(format!(
                "particle {i} in cell {c}: lc {got:?} vs reference {want:?}"
            ));
        }
        if !bary_inside(&want, BARY_TOL) {
            return Err(format!("particle {i} outside its cell {c}: {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn move_leaves_reference_weights_on_the_small_duct() {
    for policy in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
        let label = format!("{policy:?}");
        let mut sim = FemPic::new(fempic_small(policy));
        for step in 1..=60 {
            sim.step();
            if let Err(e) = check_lc(&sim) {
                panic!("{label} step {step}: {e}");
            }
        }
        assert!(sim.ps.len() > 10_000, "{label}: the duct fills up");
    }
}

#[test]
fn migrated_particles_arrive_with_reference_weights() {
    const RANKS: usize = 3;
    // Ranks keep stepping past a violation (a rank that stopped would
    // leave the others waiting in the next exchange) and report their
    // first one at the end.
    let ranks = world_run(RANKS, |ctx: &mut RankCtx| {
        let (mut sim, cell_rank) = FemPic::new_rank(&FemPicConfig::tiny(), ctx.rank, RANKS);
        let rank = ctx.rank;
        let mut net = Plain {
            ctx,
            cell_rank: &cell_rank,
        };
        let (mut received, mut first_err) = (0, None);
        for step in 1..=20 {
            let Ok(_) = sim.step_over(&mut net);
            received += sim.last_migration.received;
            if let Err(e) = check_lc(&sim) {
                first_err.get_or_insert(format!("rank {rank} step {step}: {e}"));
            }
        }
        (received, first_err)
    });
    for (_, err) in &ranks {
        assert!(err.is_none(), "{}", err.as_deref().unwrap_or(""));
    }
    assert!(
        ranks.iter().map(|(r, _)| r).sum::<usize>() > 0,
        "no particle crossed a rank"
    );
}
