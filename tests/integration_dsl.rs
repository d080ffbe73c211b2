//! Cross-crate integration: the DSL primitives composed over a real
//! mesh — declarations, loops, deposit strategies, the particle-move
//! loop, and the structured overlay, all working together.

use op_pic::core::decl::Registry;
use op_pic::core::{
    deposit_loop, move_loop, DepositMethod, ExecPolicy, MoveConfig, MoveResult, ParticleDats, Seed,
};
use op_pic::mesh::geometry::{bary_inside, bary_min_index, barycentric, sample_tet};
use op_pic::mesh::{StructuredOverlay, TetMesh, Vec3};

fn duct_with_particles(
    n_particles: usize,
    seed: u64,
) -> (TetMesh, ParticleDats, op_pic::core::ColId) {
    let mesh = TetMesh::duct(4, 3, 3, 2.0, 1.0, 1.0);
    let mut ps = ParticleDats::new();
    let pos = ps.decl_dat("pos", 3);
    ps.inject(n_particles, 0);
    let mut state = seed.max(1);
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n_particles {
        let c = (rnd() * mesh.n_cells() as f64) as usize % mesh.n_cells();
        let p = sample_tet(&mesh.cell_vertices(c), [rnd(), rnd(), rnd(), rnd()]);
        ps.el_mut(pos, i).copy_from_slice(&[p.x, p.y, p.z]);
        ps.cells_mut()[i] = c as i32;
    }
    (mesh, ps, pos)
}

/// The move used by several tests: barycentric walk with boundary
/// removal (the probe tests containment; the exit leaves through the
/// face opposite the most negative weight, `None` at the boundary).
fn walk(
    policy: &ExecPolicy,
    cells: &mut [i32],
    seed: Seed<'_>,
    mesh: &TetMesh,
    pos: &[f64],
) -> MoveResult {
    let weights = |i: usize, cell: usize| {
        barycentric(
            Vec3::from_slice(&pos[i * 3..i * 3 + 3]),
            &mesh.cell_vertices(cell),
        )
    };
    move_loop(
        policy,
        MoveConfig::default(),
        cells,
        seed,
        (),
        |i, cell, _| bary_inside(&weights(i, cell), 1e-10),
        |i, cell, _| match mesh.c2c[cell][bary_min_index(&weights(i, cell))] {
            -1 => None,
            next => Some(next as usize),
        },
    )
}

#[test]
fn registry_accepts_a_real_mesh() {
    let mesh = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
    let mut reg = Registry::new();
    reg.decl_set("nodes", mesh.n_nodes()).unwrap();
    reg.decl_set("cells", mesh.n_cells()).unwrap();
    reg.decl_particle_set("p", "cells", 0).unwrap();
    let c2n: Vec<i32> = mesh.c2n.iter().flatten().map(|&n| n as i32).collect();
    let c2c: Vec<i32> = mesh.c2c.iter().flatten().copied().collect();
    reg.decl_map("c2n", "cells", "nodes", 4, Some(&c2n))
        .unwrap();
    reg.decl_map("c2c", "cells", "cells", 4, Some(&c2c))
        .unwrap();
    reg.decl_map("p2c", "p", "cells", 1, None).unwrap();
    assert_eq!(reg.map("c2n").unwrap().arity, 4);
}

#[test]
fn scrambled_cells_recover_via_multihop() {
    // Assign every particle a wrong starting cell; the move loop must
    // walk each one back to its true containing cell.
    let (mesh, mut ps, pos) = duct_with_particles(2000, 99);
    let truth: Vec<i32> = ps.cells().to_vec();
    let n_cells = mesh.n_cells() as i32;
    for (i, c) in ps.cells_mut().iter_mut().enumerate() {
        *c = (*c + 1 + (i as i32 % 7)) % n_cells;
    }
    let (cells, pos_col) = ps.cells_mut_with_col(pos);
    let r = walk(&ExecPolicy::Par, cells, None, &mesh, pos_col);
    assert!(r.removed.is_empty(), "all particles are inside the mesh");
    // Each particle ends in a cell that contains it (could be the
    // twin across a shared face for boundary-exact points).
    for (i, t) in truth.iter().enumerate() {
        let p = Vec3::from_slice(ps.el(pos, i));
        let c = ps.cells()[i] as usize;
        let l = barycentric(p, &mesh.cell_vertices(c));
        assert!(bary_inside(&l, 1e-8), "particle {i}: truth {t}");
    }
}

#[test]
fn direct_hop_and_multi_hop_land_identically() {
    let (mesh, mut ps_a, pos) = duct_with_particles(1500, 7);
    let mut ps_b = ps_a.clone();
    let overlay = StructuredOverlay::build(&mesh, [16, 16, 16]);
    let n_cells = mesh.n_cells() as i32;

    for ps in [&mut ps_a, &mut ps_b] {
        for (i, c) in ps.cells_mut().iter_mut().enumerate() {
            *c = (*c + 3 + (i as i32 % 5)) % n_cells;
        }
    }

    let (cells_a, pos_a) = ps_a.cells_mut_with_col(pos);
    walk(&ExecPolicy::Seq, cells_a, None, &mesh, pos_a);

    let (cells_b, pos_b) = ps_b.cells_mut_with_col(pos);
    let seed = |i: usize| overlay.locate(Vec3::from_slice(&pos_b[i * 3..i * 3 + 3]));
    let r_dh = walk(&ExecPolicy::Seq, cells_b, Some(&seed), &mesh, pos_b);

    // Both strategies must produce containing cells; on shared faces
    // they may differ, so compare by containment, not equality.
    for i in 0..ps_a.len() {
        let p = Vec3::from_slice(ps_a.el(pos, i));
        for cells in [ps_a.cells(), ps_b.cells()] {
            let l = barycentric(p, &mesh.cell_vertices(cells[i] as usize));
            assert!(bary_inside(&l, 1e-8), "particle {i}");
        }
    }
    // DH from a good overlay does less search than scrambled MH.
    assert!(r_dh.mean_visits(ps_b.len()) < 4.0);
}

#[test]
fn all_deposit_methods_agree_on_a_real_mesh() {
    let (mesh, ps, pos) = duct_with_particles(4000, 1234);
    let q = 0.25;
    let deposit_with = |method: DepositMethod, policy: &ExecPolicy| -> Vec<f64> {
        let mut node_charge = vec![0.0; mesh.n_nodes()];
        let cells = ps.cells();
        let pos_col = ps.col(pos);
        deposit_loop(policy, method, ps.len(), &mut node_charge, |i| {
            let c = cells[i] as usize;
            let p = Vec3::from_slice(&pos_col[i * 3..i * 3 + 3]);
            let w = barycentric(p, &mesh.cell_vertices(c));
            (mesh.c2n[c], w.map(|wk| q * wk))
        });
        node_charge
    };
    let reference = deposit_with(DepositMethod::Serial, &ExecPolicy::Seq);
    let total: f64 = reference.iter().sum();
    assert!(
        (total - ps.len() as f64 * q).abs() < 1e-9,
        "partition of unity"
    );
    for method in [
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
        DepositMethod::UnsafeAtomics,
        DepositMethod::SegmentedReduction,
    ] {
        let got = deposit_with(method, &ExecPolicy::Par);
        for (n, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-9, "{method:?} node {n}: {a} vs {b}");
        }
    }
}

#[test]
fn hole_filling_composes_with_move_removal() {
    let (mesh, mut ps, pos) = duct_with_particles(800, 5);
    // Push everything towards +x so a band of particles exits.
    for i in 0..ps.len() {
        ps.el_mut(pos, i)[0] += 0.6;
    }
    let before = ps.len();
    let (cells, pos_col) = ps.cells_mut_with_col(pos);
    let r = walk(&ExecPolicy::Par, cells, None, &mesh, pos_col);
    let removed = r.removed.len();
    assert!(
        removed > 0,
        "some particles must exit a 2.0-long duct after +0.6"
    );
    ps.remove_fill(&r.removed);
    assert_eq!(ps.len(), before - removed);
    // Survivors all inside.
    for i in 0..ps.len() {
        let p = Vec3::from_slice(ps.el(pos, i));
        let l = barycentric(p, &mesh.cell_vertices(ps.cells()[i] as usize));
        assert!(bary_inside(&l, 1e-8));
    }
}
