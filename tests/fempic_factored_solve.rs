//! Oracle for the factored FemPIC field solve.
//!
//! `FemSolver::assemble` factors the Dirichlet-reduced stiffness matrix
//! once and every step's solve is two triangular sweeps. Over 50 steps
//! of the small duct, every step's potential must equal a tight
//! Jacobi-PCG solve (relative residual 1e-13, cold start) of the same
//! load vector to 1e-10 relative, must be reproduced bit for bit by a
//! fresh solver from that load vector under `Seq` and under a 2-thread
//! pool, and the deposit feeding it must conserve charge. With no charge, the potential obeys the discrete
//! maximum principle between the grounded inlet and the wall.

use op_pic::core::{DepositMethod, ExecPolicy};
use op_pic::fempic::{FemPic, FemPicConfig, FemSolver, MoveStrategy};
use op_pic::linalg::{cg_solve, CgConfig};
use op_pic::mesh::TetMesh;

const STEPS: usize = 50;
const REL_TOL: f64 = 1e-10;

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

/// The reduced system `fem` factors, solved by cold-started Jacobi-PCG
/// to a relative residual of 1e-13.
fn tight_cg(fem: &FemSolver, node_charge: &[f64], epsilon0: f64) -> Vec<f64> {
    let rhs = fem.build_rhs(node_charge, epsilon0);
    let mut x = vec![0.0; rhs.len()];
    let cfg = CgConfig {
        rtol: 1e-13,
        atol: 0.0,
        max_iters: 20_000,
        ..CgConfig::default()
    };
    let out = cg_solve(fem.reduced_matrix(), &rhs, &mut x, cfg);
    assert!(out.converged, "reference CG did not converge: {out:?}");
    x
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn factored_potential_matches_a_tight_cg_solve_every_step() {
    let mut seq = FemPic::new(fempic_small(ExecPolicy::Seq));
    let mut pool = FemPic::new(fempic_small(ExecPolicy::pool(2)));
    let mut replay = FemSolver::assemble(&seq.mesh, seq.cfg.wall_potential);
    for step in 1..=STEPS {
        for sim in [&mut seq, &mut pool] {
            sim.step();
            let label = format!("{:?} step {step}", sim.cfg.policy);

            let total: f64 = sim.node_charge.raw().iter().sum();
            let expect = sim.ps.len() as f64 * sim.cfg.charge;
            assert!(
                (total - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "{label}: deposited {total}, expected {expect}"
            );

            let phi = sim.fem.potential();
            let want = tight_cg(&sim.fem, sim.node_charge.raw(), sim.cfg.epsilon0);
            let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            let err = phi
                .iter()
                .zip(&want)
                .fold(0.0f64, |s, (p, w)| s.max((p - w).abs()));
            assert!(
                err <= REL_TOL * scale,
                "{label}: factored φ off the CG reference by {err:e} (scale {scale:e})"
            );
        }
        // The sweeps run on the calling thread in a fixed order and
        // read no state of earlier steps: a fresh solver, called from
        // this test's thread, reproduces each run's potential bit for
        // bit from its load vector, whatever policy the run uses.
        for sim in [&seq, &pool] {
            let phi = replay
                .solve(sim.node_charge.raw(), sim.cfg.epsilon0)
                .unwrap();
            assert_eq!(
                bits(phi),
                bits(sim.fem.potential()),
                "{:?} step {step}: the potential depends on more than this step's charge",
                sim.cfg.policy
            );
        }
    }
    assert!(seq.ps.len() > 10_000, "the duct fills up");
}

#[test]
fn zero_charge_potential_obeys_the_maximum_principle() {
    let cfg = fempic_small(ExecPolicy::Seq);
    let mesh = TetMesh::duct(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly, cfg.lz);
    let v = cfg.wall_potential;
    let mut fem = FemSolver::assemble(&mesh, v);
    let phi = fem
        .solve(&vec![0.0; mesh.n_nodes()], cfg.epsilon0)
        .unwrap()
        .to_vec();
    for (n, &p) in phi.iter().enumerate() {
        assert!(
            (-1e-12..=v + 1e-12).contains(&p),
            "node {n}: φ = {p} leaves [0, {v}]"
        );
        if mesh.wall_nodes[n] {
            assert_eq!(p, v, "wall node {n}");
        }
    }
    // Away from the walls the Laplace solution sits strictly inside.
    let interior = (0..mesh.n_nodes()).filter(|&n| !fem.is_fixed(n));
    assert!(interior.clone().count() > 0);
    for n in interior {
        assert!(phi[n] > 0.0 && phi[n] < v, "free node {n}: φ = {}", phi[n]);
    }
}
