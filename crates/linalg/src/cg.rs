//! Jacobi-preconditioned Conjugate Gradient.
//!
//! Mini-FEM-PIC's field solve is a Poisson problem: symmetric positive
//! definite after Dirichlet elimination. The paper delegates it to
//! PETSc's KSP. The field solve factors the matrix once
//! ([`crate::direct`]); CG with Jacobi preconditioning, the default KSP
//! configuration for this matrix class, solves the same system
//! iteratively and serves as the tests' oracle for the factor.

use crate::csr::CsrMatrix;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Relative residual tolerance `||r|| <= rtol * ||b||`.
    pub rtol: f64,
    /// Absolute residual tolerance.
    pub atol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Stagnation window: stop with [`CgStop::Stagnated`] after this
    /// many consecutive iterations without residual improvement
    /// (singular/inconsistent systems plateau instead of converging).
    /// `0` disables the detector.
    pub stagnation_window: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            rtol: 1e-10,
            atol: 1e-30,
            max_iters: 10_000,
            stagnation_window: 64,
        }
    }
}

/// Why the solver stopped — distinguishes honest convergence from the
/// three distinct failure modes that `converged: false` used to lump
/// together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgStop {
    /// Residual target reached.
    Converged,
    /// Iteration budget exhausted while still making progress.
    MaxIters,
    /// `p·Ap <= 0`: the matrix is not SPD (or exact breakdown).
    Breakdown,
    /// No residual improvement over a full stagnation window — the
    /// classic signature of a singular or inconsistent system.
    Stagnated,
    /// NaN/Inf encountered in the residual or iterates.
    NonFinite,
}

/// What the solver did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOutcome {
    pub converged: bool,
    /// Stop reason; `converged == (stop == CgStop::Converged)`.
    pub stop: CgStop,
    pub iterations: usize,
    /// Final (unpreconditioned) residual 2-norm.
    pub residual: f64,
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Solve `A x = b` with Jacobi-PCG, starting from the provided `x`
/// (warm starts matter: FEM-PIC solves a slowly varying system every
/// time step and the paper's PETSc setup does the same). The solve
/// runs on the calling thread.
pub fn cg_solve(a: &CsrMatrix, b: &[f64], x: &mut [f64], cfg: CgConfig) -> CgOutcome {
    let n = a.n_rows();
    assert_eq!(a.n_cols(), n, "CG needs a square matrix");
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);

    // Jacobi preconditioner: M^-1 = 1/diag(A). Zero diagonals (possible
    // for all-Dirichlet corner cases) fall back to 1.
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();

    let norm_b = dot(b, b).sqrt();
    let target = (cfg.rtol * norm_b).max(cfg.atol);

    let mut r = vec![0.0; n];
    a.spmv(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    let mut res = dot(&r, &r).sqrt();
    if !res.is_finite() {
        return CgOutcome {
            converged: false,
            stop: CgStop::NonFinite,
            iterations: 0,
            residual: res,
        };
    }
    if res <= target {
        return CgOutcome {
            converged: true,
            stop: CgStop::Converged,
            iterations: 0,
            residual: res,
        };
    }

    // Stagnation tracking: best residual seen, and how many
    // iterations have gone by without beating it.
    let mut best_res = res;
    let mut since_improved = 0usize;

    for it in 1..=cfg.max_iters {
        a.spmv(&p, &mut ap);
        let p_ap = dot(&p, &ap);
        if !p_ap.is_finite() {
            return CgOutcome {
                converged: false,
                stop: CgStop::NonFinite,
                iterations: it,
                residual: res,
            };
        }
        if p_ap <= 0.0 {
            // Matrix is not SPD (or we hit exact breakdown): stop and
            // report honestly rather than looping on NaNs.
            return CgOutcome {
                converged: false,
                stop: CgStop::Breakdown,
                iterations: it,
                residual: res,
            };
        }
        let alpha = rz / p_ap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        res = dot(&r, &r).sqrt();
        if !res.is_finite() {
            return CgOutcome {
                converged: false,
                stop: CgStop::NonFinite,
                iterations: it,
                residual: res,
            };
        }
        if res <= target {
            return CgOutcome {
                converged: true,
                stop: CgStop::Converged,
                iterations: it,
                residual: res,
            };
        }
        if res < best_res * (1.0 - 1e-12) {
            best_res = res;
            since_improved = 0;
        } else {
            since_improved += 1;
            if cfg.stagnation_window > 0 && since_improved >= cfg.stagnation_window {
                return CgOutcome {
                    converged: false,
                    stop: CgStop::Stagnated,
                    iterations: it,
                    residual: res,
                };
            }
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    CgOutcome {
        converged: false,
        stop: CgStop::MaxIters,
        iterations: cfg.max_iters,
        residual: res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// 1-D Laplacian (tridiagonal 2,-1) of size n.
    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn solves_identity() {
        let mut b = CsrBuilder::new(5, 5);
        for i in 0..5 {
            b.add(i, i, 1.0);
        }
        let a = b.build();
        let rhs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        let out = cg_solve(&a, &rhs, &mut x, CgConfig::default());
        assert!(out.converged);
        for i in 0..5 {
            assert!((x[i] - rhs[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn solves_laplacian() {
        let n = 64;
        let a = laplacian_1d(n);
        // Manufactured solution.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let mut x = vec![0.0; n];
        let out = cg_solve(&a, &rhs, &mut x, CgConfig::default());
        assert!(out.converged, "{out:?}");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "i={i}");
        }
    }

    #[test]
    fn zero_rhs_converges_immediately_from_zero() {
        let a = laplacian_1d(10);
        let rhs = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let out = cg_solve(&a, &rhs, &mut x, CgConfig::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn warm_start_takes_fewer_iterations() {
        let n = 128;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);

        let mut cold = vec![0.0; n];
        let out_cold = cg_solve(&a, &rhs, &mut cold, CgConfig::default());

        // Warm start from a slightly perturbed exact solution.
        let mut warm: Vec<f64> = x_true.iter().map(|v| v + 1e-6).collect();
        let out_warm = cg_solve(&a, &rhs, &mut warm, CgConfig::default());
        assert!(out_warm.converged && out_cold.converged);
        assert!(
            out_warm.iterations < out_cold.iterations,
            "warm {} vs cold {}",
            out_warm.iterations,
            out_cold.iterations
        );
    }

    #[test]
    fn reports_nonconvergence_within_budget() {
        let n = 256;
        let a = laplacian_1d(n);
        let rhs = vec![1.0; n];
        let mut x = vec![0.0; n];
        let out = cg_solve(
            &a,
            &rhs,
            &mut x,
            CgConfig {
                rtol: 1e-14,
                atol: 0.0,
                max_iters: 3,
                ..CgConfig::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(out.stop, CgStop::MaxIters);
        assert_eq!(out.iterations, 3);
        assert!(out.residual > 0.0);
    }

    #[test]
    fn detects_indefinite_matrix() {
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, -1.0);
        let a = b.build();
        let mut x = vec![0.0; 2];
        let out = cg_solve(&a, &[1.0, 1.0], &mut x, CgConfig::default());
        // Either converges by luck on the positive part or reports a
        // breakdown; must not produce NaNs.
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(out.residual.is_finite());
    }

    /// 1-D periodic Laplacian — singular (nullspace = constants).
    fn periodic_laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            b.add(i, (i + 1) % n, -1.0);
            b.add(i, (i + n - 1) % n, -1.0);
        }
        b.build()
    }

    /// Satellite regression: an inconsistent singular system used to
    /// spin silently to `max_iters`; the stagnation detector must now
    /// stop it early with a distinct verdict.
    #[test]
    fn singular_system_stops_before_max_iters_with_distinct_verdict() {
        let n = 32;
        let a = periodic_laplacian_1d(n);
        // rhs with a nonzero mean is outside range(A): no solution,
        // the residual plateaus at the nullspace projection.
        let mut rhs = vec![0.0; n];
        rhs[0] = 1.0;
        let mut x = vec![0.0; n];
        let cfg = CgConfig::default();
        let out = cg_solve(&a, &rhs, &mut x, cfg);
        assert!(!out.converged);
        assert!(
            out.iterations < cfg.max_iters,
            "expected early stop, ran all {} iterations",
            out.iterations
        );
        assert!(
            matches!(out.stop, CgStop::Stagnated | CgStop::Breakdown),
            "want Stagnated/Breakdown, got {:?}",
            out.stop
        );
        assert!(out.residual.is_finite());
        // With the detector disabled the old silent behaviour returns.
        let mut x2 = vec![0.0; n];
        let out2 = cg_solve(
            &a,
            &rhs,
            &mut x2,
            CgConfig {
                stagnation_window: 0,
                max_iters: 500,
                ..CgConfig::default()
            },
        );
        assert!(!out2.converged);
        assert!(matches!(out2.stop, CgStop::MaxIters | CgStop::Breakdown));
    }

    #[test]
    fn stop_reason_matches_converged_flag() {
        let a = laplacian_1d(24);
        let rhs = vec![1.0; 24];
        let mut x = vec![0.0; 24];
        let out = cg_solve(&a, &rhs, &mut x, CgConfig::default());
        assert!(out.converged);
        assert_eq!(out.stop, CgStop::Converged);
    }

    #[test]
    fn jacobi_helps_on_badly_scaled_system() {
        // diag(1, 1e6) — Jacobi equilibrates this instantly.
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1e6);
        let a = b.build();
        let mut x = vec![0.0; 2];
        let out = cg_solve(&a, &[1.0, 2e6], &mut x, CgConfig::default());
        assert!(out.converged);
        assert!(out.iterations <= 2);
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-8);
    }
}
