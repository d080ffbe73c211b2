//! Property-based tests on the sparse-solver substrate.

use oppic_linalg::dense::DenseMatrix;
use oppic_linalg::{cg_solve, rcm_order, CgConfig, CsrBuilder, CsrMatrix, EnvelopeCholesky};
use oppic_mesh::TetMesh;
use proptest::prelude::*;

/// The P1 stiffness matrix of an `nx × ny × nz` duct, assembled the way
/// the FemPIC field solver assembles it.
fn duct_stiffness(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let mesh = TetMesh::duct(nx, ny, nz, 2.0, 1.0, 1.0);
    let nn = mesh.n_nodes();
    let mut b = CsrBuilder::new(nn, nn);
    for c in 0..mesh.n_cells() {
        let g = &mesh.shape_deriv[c];
        let nd = mesh.c2n[c];
        for i in 0..4 {
            for j in 0..4 {
                b.add(nd[i], nd[j], mesh.volume[c] * g[i].dot(g[j]));
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction (with random duplicate entries) matches a dense
    /// accumulation oracle, and SpMV matches dense matvec.
    #[test]
    fn csr_matches_dense_oracle(
        n in 1usize..12,
        triplets in prop::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 0..80),
    ) {
        let mut b = CsrBuilder::new(n, n);
        let mut dense = DenseMatrix::zeros(n, n);
        for &(r, c, v) in &triplets {
            let (r, c) = (r % n, c % n);
            b.add(r, c, v);
            dense.add(r, c, v);
        }
        let m = b.build();
        for r in 0..n {
            for c in 0..n {
                prop_assert!((m.get(r, c) - dense.get(r, c)).abs() < 1e-12);
            }
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; n];
        m.spmv(&x, &mut y);
        let y_dense = dense.matvec(&x);
        for (a, b) in y.iter().zip(&y_dense) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// Dirichlet elimination keeps the system symmetric and its
    /// solution honours the boundary values, vs a dense solve oracle.
    #[test]
    fn dirichlet_solution_matches_dense(
        n in 2usize..10,
        fixed_mask in prop::collection::vec(any::<bool>(), 2..10),
        seed in any::<u64>(),
    ) {
        let fixed: Vec<bool> = (0..n).map(|i| *fixed_mask.get(i).unwrap_or(&false)).collect();
        prop_assume!(fixed.iter().any(|&f| !f)); // at least one free unknown
        // SPD system: Laplacian + identity.
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 3.0);
            if i > 0 { b.add(i, i - 1, -1.0); }
            if i + 1 < n { b.add(i, i + 1, -1.0); }
        }
        let a = b.build();
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let g: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let mut rhs: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let rhs0 = rhs.clone();
        let ae = a.apply_dirichlet(&fixed, &g, &mut rhs);
        prop_assert!(ae.asymmetry() < 1e-12);
        let mut x = vec![0.0; n];
        let out = cg_solve(&ae, &rhs, &mut x, CgConfig::default());
        prop_assert!(out.converged);
        // Dirichlet values hold exactly.
        for i in 0..n {
            if fixed[i] {
                prop_assert!((x[i] - g[i]).abs() < 1e-8);
            }
        }
        // Free rows satisfy the ORIGINAL equations.
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        for i in 0..n {
            if !fixed[i] {
                prop_assert!((ax[i] - rhs0[i]).abs() < 1e-6, "row {i}");
            }
        }
    }

    /// Gaussian elimination (dense oracle itself) solves random
    /// well-conditioned systems: A * solve(A, b) == b.
    #[test]
    fn dense_solve_residual(
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, rnd() + if r == c { 4.0 } else { 0.0 }); // diagonally dominant
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = m.solve(&b).unwrap();
        let back = m.matvec(&x);
        for (p, q) in back.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-8);
        }
    }

    /// On random ducts with random non-empty Dirichlet sets, RCM
    /// orders exactly the free nodes, and the envelope-Cholesky solve
    /// of the reduced system matches pivoted Gaussian elimination of
    /// the dense free block to 1e-10 relative.
    #[test]
    fn envelope_cholesky_matches_dense_on_random_ducts(
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 2usize..6,
        fixed_share in 0.02f64..0.9,
        seed in any::<u64>(),
    ) {
        let raw = duct_stiffness(nx, ny, nz);
        let nn = raw.n_rows();
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut fixed: Vec<bool> = (0..nn).map(|_| rnd() < fixed_share).collect();
        fixed[(seed % nn as u64) as usize] = true;
        let free: Vec<bool> = fixed.iter().map(|&f| !f).collect();
        let free_ids: Vec<usize> = (0..nn).filter(|&i| free[i]).collect();
        prop_assume!(!free_ids.is_empty());
        let g: Vec<f64> = (0..nn).map(|_| rnd()).collect();
        let mut rhs: Vec<f64> = (0..nn).map(|_| rnd() - 0.5).collect();
        let reduced = raw.apply_dirichlet(&fixed, &g, &mut rhs);

        let mut order = rcm_order(&reduced, &free);
        order.sort_unstable();
        prop_assert_eq!(&order, &free_ids);

        let l = EnvelopeCholesky::factor(&reduced, &free).unwrap();
        let mut x = rhs.clone();
        l.solve_in_place(&mut x);
        for i in 0..nn {
            if fixed[i] {
                prop_assert_eq!(x[i].to_bits(), g[i].to_bits(), "fixed row {} moved", i);
            }
        }

        let m = free_ids.len();
        let mut dense = DenseMatrix::zeros(m, m);
        for (r, &i) in free_ids.iter().enumerate() {
            for (c, &j) in free_ids.iter().enumerate() {
                dense.set(r, c, reduced.get(i, j));
            }
        }
        let b: Vec<f64> = free_ids.iter().map(|&i| rhs[i]).collect();
        let want = dense.solve(&b).unwrap();
        let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        let err = free_ids
            .iter()
            .zip(&want)
            .fold(0.0f64, |s, (&i, w)| s.max((x[i] - w).abs()));
        prop_assert!(err <= 1e-10 * scale, "err {} scale {}", err, scale);
    }
}
