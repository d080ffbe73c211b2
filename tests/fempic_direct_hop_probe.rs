//! Oracle for the direct-hop move's probe-hop-seed contract.
//!
//! Under direct-hop the move engine first visits each particle's
//! current cell, then, if that visit says `NeedMove`, the one `c2c`
//! neighbour it names, and reads the structured overlay only when that
//! second visit says `NeedMove` too. A `NeedRemove` at any visit
//! removes the particle. A hit is exact (the kernel accepts a cell only
//! when the point lies inside it), so the result must equal a
//! reference that walks every particle from the overlay's cell, as
//! Figure 7(b) draws it: same cells, same `lc` bits, same removal list.
//! And the engine's `seeded` and visit counts must equal those of a
//! reference walk of the probe-hop-seed rule written here. Checked
//! every step of a 60-step run of the small duct under `Seq` and a
//! 2-thread pool.

use op_pic::core::{DepositMethod, ExecPolicy, ParticleDats};
use op_pic::fempic::{FemPic, FemPicConfig, MoveStrategy, BARY_TOL};
use op_pic::mesh::geometry::{bary_inside, bary_min_index, barycentric_from_map};
use op_pic::mesh::{StructuredOverlay, Vec3};

const OVERLAY_RES: usize = 32;

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
        move_strategy: MoveStrategy::DirectHop {
            overlay_res: OVERLAY_RES,
        },
        deposit: DepositMethod::ScatterArrays,
        policy,
        ..FemPicConfig::default()
    }
}

/// The move's kernel test: particle at `p` against `cell`'s affine
/// barycentric map.
fn weights(sim: &FemPic, cell: usize, p: Vec3) -> [f64; 4] {
    let row = sim.cell_det.raw()[cell * 16..cell * 16 + 16]
        .try_into()
        .expect("16 coefficients");
    barycentric_from_map(row, p)
}

/// The paper's three verdicts of one visit.
enum Verdict {
    Done,
    NeedRemove,
    NeedMove(usize),
}

/// One kernel visit of `cell` — the probe, and after a miss the exit:
/// its verdict and the weights there.
fn visit(sim: &FemPic, cell: usize, p: Vec3) -> (Verdict, [f64; 4]) {
    let w = weights(sim, cell, p);
    let status = if bary_inside(&w, BARY_TOL) {
        Verdict::Done
    } else {
        match sim.mesh.c2c[cell][bary_min_index(&w)] {
            next if next < 0 => Verdict::NeedRemove,
            next => Verdict::NeedMove(next as usize),
        }
    };
    (status, w)
}

/// The kernel's walk from `cell`: the final cell and its weights
/// (`None` when the particle leaves the mesh), and the visits taken.
fn walk(sim: &FemPic, mut cell: usize, p: Vec3) -> (Option<(usize, [f64; 4])>, u64) {
    let mut visits = 0;
    loop {
        visits += 1;
        match visit(sim, cell, p) {
            (Verdict::Done, w) => return (Some((cell, w)), visits),
            (Verdict::NeedRemove, _) => return (None, visits),
            (Verdict::NeedMove(next), _) => cell = next,
        }
    }
}

/// Walk every particle of the pre-move population from the overlay's
/// cell for its position, write its final cell and `lc`, and hole-fill
/// the leavers: the population and removal list the move must match.
fn seed_first_move(sim: &FemPic, overlay: &StructuredOverlay) -> (ParticleDats, Vec<usize>) {
    let mut ps = sim.ps.clone();
    let mut removed = Vec::new();
    for i in 0..ps.len() {
        let p = Vec3::from_slice(ps.el(sim.pos, i));
        match walk(sim, overlay.locate(p), p).0 {
            Some((cell, w)) => {
                ps.cells_mut()[i] = cell as i32;
                ps.el_mut(sim.lc, i).copy_from_slice(&w);
            }
            None => removed.push(i),
        }
    }
    ps.remove_fill(&removed);
    (ps, removed)
}

/// The direct-hop rule's counts for the pre-move population: the
/// particles that neither the probe of their current cell nor the one
/// `c2c` hop from it places (each reads the overlay once), and the
/// visits of all particles: probes, hops and those particles'
/// seed-first walks.
fn probe_hop_seed(sim: &FemPic, overlay: &StructuredOverlay) -> (u64, u64) {
    let (mut seeded, mut visits) = (0, 0);
    for (i, &c) in sim.ps.cells().iter().enumerate() {
        let p = Vec3::from_slice(sim.ps.el(sim.pos, i));
        visits += 1;
        let Verdict::NeedMove(next) = visit(sim, c as usize, p).0 else {
            continue;
        };
        visits += 1;
        if let Verdict::NeedMove(_) = visit(sim, next, p).0 {
            seeded += 1;
            visits += walk(sim, overlay.locate(p), p).1;
        }
    }
    (seeded, visits)
}

#[test]
fn probe_then_seed_matches_the_seed_first_walk() {
    for policy in [ExecPolicy::Seq, ExecPolicy::pool(2)] {
        let label = format!("{policy:?}");
        let mut sim = FemPic::new(fempic_small(policy));
        let overlay = StructuredOverlay::build(&sim.mesh, [OVERLAY_RES; 3]);
        let mut seeded_total = 0;
        for step in 1..=60 {
            // The stages of `FemPic::step` for this configuration (no
            // gather sort, collisions or numeric guard).
            sim.inject();
            sim.calc_pos_vel();
            let (reference, ref_removed) = seed_first_move(&sim, &overlay);
            let (seeded, visits) = probe_hop_seed(&sim, &overlay);
            sim.move_particles();

            let r = &sim.last_move;
            let at = format!("{label} step {step}");
            assert_eq!(r.removed, ref_removed, "{at}: removal list");
            assert_eq!(sim.ps.cells(), reference.cells(), "{at}: cells");
            let bits = |ps: &ParticleDats| -> Vec<u64> {
                ps.col(sim.lc).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&sim.ps), bits(&reference), "{at}: lc bits");
            assert_eq!(r.seeded, seeded, "{at}: seeded");
            assert_eq!(r.total_visits, visits, "{at}: visits");
            seeded_total += r.seeded;

            sim.deposit_charge();
            sim.field_solve();
        }
        assert!(sim.ps.len() > 10_000, "{label}: the duct fills up");
        assert!(
            seeded_total > 0,
            "{label}: some particles need more than one hop"
        );
    }
}
