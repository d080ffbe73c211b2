//! Property-based tests on the sparse-solver substrate.

use oppic_core::ExecPolicy;
use oppic_linalg::dense::DenseMatrix;
use oppic_linalg::{cg_solve, CgConfig, CsrBuilder};
use proptest::prelude::*;

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
        m.spmv_serial(&x, &mut y);
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
        let out = cg_solve(&ExecPolicy::Par, &ae, &rhs, &mut x, CgConfig::default());
        prop_assert!(out.converged);
        // Dirichlet values hold exactly.
        for i in 0..n {
            if fixed[i] {
                prop_assert!((x[i] - g[i]).abs() < 1e-8);
            }
        }
        // Free rows satisfy the ORIGINAL equations.
        let mut ax = vec![0.0; n];
        a.spmv_serial(&x, &mut ax);
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
}
