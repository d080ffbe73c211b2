//! The FEM field solver: Poisson's equation −∇·(∇φ) = ρ/ε₀ on the
//! tetrahedral duct with P1 elements.
//!
//! This is the paper's field-solver stage: `ComputeJMatrix` and
//! `ComputeF1Vector` "create the data structures required for a linear
//! solver, which is computed using a PETSc KSP solver" — here the
//! stiffness matrix is assembled once (the mesh is static), the RHS is
//! rebuilt from the deposited charge each step, and Dirichlet walls are
//! eliminated symmetrically. The reduced matrix never changes, so
//! `assemble` factors its free-node block once (RCM-ordered envelope
//! Cholesky from `oppic-linalg`) and every replicated solve is a
//! forward and a back sweep. Every rank of a distributed run holds the
//! whole mesh, so every rank runs this same replicated solve.

use oppic_linalg::{CsrBuilder, CsrMatrix, EnvelopeCholesky};
use oppic_mesh::{BoundaryKind, TetMesh};

/// Why [`FemSolver::solve`] kept the previous potential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The load vector held NaN or Inf: the deposit upstream is corrupt.
    NonFinite,
}

/// Assembled FEM machinery for one mesh.
#[derive(Debug, Clone)]
pub struct FemSolver {
    /// Stiffness matrix with Dirichlet rows/columns eliminated.
    matrix: CsrMatrix,
    /// Dirichlet mask per node.
    fixed: Vec<bool>,
    /// Per node, what the load vector needs besides the charge: on a
    /// free row the Dirichlet lift `Σ_{c fixed} K_raw[r, c]·g[c]` that
    /// symmetric elimination subtracts, on a fixed row its value `g[r]`.
    /// The mesh and the Dirichlet data are static, so `assemble`
    /// computes it once.
    lift: Vec<f64>,
    /// Cholesky factor of the free-node block of `matrix`.
    factor: EnvelopeCholesky,
    /// `(bytes, flops)` of one solve. Bytes: the RHS build (charge and
    /// lift in, load vector out) plus two sweeps over `L` (each value,
    /// and each row's envelope start and offset) with the permuted
    /// gather and scatter. Flops: a multiply and an add per `L` entry
    /// per sweep.
    solve_traffic: (u64, u64),
    /// The last solved potential (Dirichlet values on fixed nodes).
    potential: Vec<f64>,
}

impl FemSolver {
    /// `ComputeJMatrix`: assemble the P1 stiffness matrix
    /// `K[i][j] = Σ_cells vol · ∇φ_i · ∇φ_j` and apply boundary
    /// conditions: wall nodes fixed at `wall_potential`, inlet nodes
    /// grounded at 0 (the duct's reference), outlet natural. Then
    /// factor the free-node block of the reduced matrix.
    ///
    /// # Panics
    /// If the reduced matrix is not positive definite, i.e. some free
    /// node has no path to a Dirichlet node.
    pub fn assemble(mesh: &TetMesh, wall_potential: f64) -> Self {
        let nn = mesh.n_nodes();
        let mut b = CsrBuilder::new(nn, nn);
        for c in 0..mesh.n_cells() {
            let g = &mesh.shape_deriv[c];
            let vol = mesh.volume[c];
            let nd = mesh.c2n[c];
            for i in 0..4 {
                for j in 0..4 {
                    b.add(nd[i], nd[j], vol * g[i].dot(g[j]));
                }
            }
        }
        let raw_matrix = b.build();

        // Dirichlet sets: walls at wall_potential, inlet plane at 0.
        let mut fixed = mesh.wall_nodes.clone();
        let mut fixed_values = vec![0.0; nn];
        for (n, &is_wall) in mesh.wall_nodes.iter().enumerate() {
            if is_wall {
                fixed_values[n] = wall_potential;
            }
        }
        for bf in &mesh.boundary {
            if bf.kind == BoundaryKind::Inlet {
                for n in bf.nodes {
                    if !fixed[n] {
                        fixed[n] = true;
                        fixed_values[n] = 0.0;
                    }
                }
            }
        }

        // Eliminate once with a zero RHS to get the reduced operator,
        // and the lift of the Dirichlet values (same algebra as
        // `CsrMatrix::apply_dirichlet`) for every step's RHS.
        let mut dummy_rhs = vec![0.0; nn];
        let matrix = raw_matrix.apply_dirichlet(&fixed, &fixed_values, &mut dummy_rhs);
        let lift: Vec<f64> = (0..nn)
            .map(|r| {
                if fixed[r] {
                    return fixed_values[r];
                }
                let (cols, vals) = raw_matrix.row(r);
                cols.iter()
                    .zip(vals)
                    .filter(|(c, _)| fixed[**c as usize])
                    .map(|(c, v)| v * fixed_values[*c as usize])
                    .sum()
            })
            .collect();

        let free: Vec<bool> = fixed.iter().map(|&f| !f).collect();
        let factor = EnvelopeCholesky::factor(&matrix, &free)
            .unwrap_or_else(|e| panic!("reduced stiffness matrix: {e}"));
        let (l_nnz, m) = (factor.nnz(), factor.n_active());
        let bytes = nn * 24 + 2 * (l_nnz * 8 + m * 12) + m * 32;
        let solve_traffic = (bytes as u64, (4 * l_nnz) as u64);
        let potential = fixed_values;
        FemSolver {
            matrix,
            fixed,
            lift,
            factor,
            solve_traffic,
            potential,
        }
    }

    pub fn is_fixed(&self, node: usize) -> bool {
        self.fixed[node]
    }

    /// `ComputeF1Vector`: build the Dirichlet-corrected load vector
    /// from the lumped node charge (`f_i = q_i / ε₀`).
    /// [`FemSolver::solve`] runs it each step; the tests' CG oracle
    /// builds the same system from it.
    pub fn build_rhs(&self, node_charge: &[f64], epsilon0: f64) -> Vec<f64> {
        assert_eq!(
            node_charge.len(),
            self.fixed.len(),
            "charge vector shape mismatch"
        );
        // rhs_free = q/ε₀ − K_raw[free, fixed]·g;   rhs_fixed = g.
        node_charge
            .iter()
            .zip(&self.lift)
            .zip(&self.fixed)
            .map(|((&q, &lift), &fixed)| if fixed { lift } else { q / epsilon0 - lift })
            .collect()
    }

    /// `ComputeF1Vector` + `SolvePotential`: build the load vector,
    /// apply the Dirichlet correction, and solve by the forward and
    /// back sweeps of the setup-time factor. Returns the node
    /// potentials. A non-finite load vector is rejected before any
    /// sweep and the previous potential is kept.
    pub fn solve(&mut self, node_charge: &[f64], epsilon0: f64) -> Result<&[f64], SolveError> {
        let mut rhs = self.build_rhs(node_charge, epsilon0);
        if rhs.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite);
        }
        // Fixed rows of `rhs` already hold their Dirichlet values and
        // the sweeps touch only the free rows.
        self.factor.solve_in_place(&mut rhs);
        self.potential = rhs;
        Ok(&self.potential)
    }

    /// Traffic model of one [`FemSolver::solve`] as `(bytes, flops)`.
    pub fn solve_traffic(&self) -> (u64, u64) {
        self.solve_traffic
    }

    /// The Dirichlet-reduced operator, for solving the same system
    /// outside the factor (the tests' CG oracle).
    pub fn reduced_matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Overwrite the stored potential, e.g. with the one a checkpoint
    /// restore read back.
    pub fn set_potential(&mut self, phi: &[f64]) {
        assert_eq!(phi.len(), self.potential.len());
        self.potential.copy_from_slice(phi);
    }

    /// Current potential (without re-solving).
    pub fn potential(&self) -> &[f64] {
        &self.potential
    }

    /// `ComputeElectricField`: per-cell constant field
    /// `E_c = −Σ_n φ_n ∇φ_n` from the four cell nodes. Writes into a
    /// flat `n_cells*3` buffer.
    pub fn electric_field(&self, mesh: &TetMesh, ef: &mut [f64]) {
        assert_eq!(ef.len(), mesh.n_cells() * 3);
        for c in 0..mesh.n_cells() {
            let nd = mesh.c2n[c];
            let g = &mesh.shape_deriv[c];
            let mut e = [0.0f64; 3];
            for k in 0..4 {
                let phi = self.potential[nd[k]];
                e[0] -= phi * g[k].x;
                e[1] -= phi * g[k].y;
                e[2] -= phi * g[k].z;
            }
            ef[c * 3..c * 3 + 3].copy_from_slice(&e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_mesh::Vec3;

    #[test]
    fn zero_charge_gives_laplace_solution() {
        // With no charge, φ solves Laplace with walls at V and inlet at
        // 0: everything stays within [0, V] (discrete maximum
        // principle).
        let mesh = TetMesh::duct(4, 3, 3, 2.0, 1.0, 1.0);
        let mut fem = FemSolver::assemble(&mesh, 2.0);
        let charge = vec![0.0; mesh.n_nodes()];
        let phi = fem.solve(&charge, 1.0).unwrap().to_vec();
        for (n, &p) in phi.iter().enumerate() {
            assert!(
                (-1e-9..=2.0 + 1e-9).contains(&p),
                "node {n}: {p} violates the maximum principle"
            );
        }
        // Wall nodes exactly at the wall potential.
        for (n, &w) in mesh.wall_nodes.iter().enumerate() {
            if w {
                assert!((phi[n] - 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn positive_charge_raises_potential() {
        let mesh = TetMesh::duct(4, 4, 4, 1.0, 1.0, 1.0);
        let mut fem = FemSolver::assemble(&mesh, 0.0);
        // All boundaries effectively grounded (wall V = 0, inlet 0).
        let mut charge = vec![0.0; mesh.n_nodes()];
        // Point charge at the interior node nearest the centre.
        let centre = Vec3::new(0.5, 0.5, 0.5);
        let star = (0..mesh.n_nodes())
            .filter(|&n| !fem.is_fixed(n))
            .min_by(|&a, &b| {
                let da = (mesh.node_pos[a] - centre).norm2();
                let db = (mesh.node_pos[b] - centre).norm2();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        charge[star] = 1.0;
        let phi = fem.solve(&charge, 1.0).unwrap().to_vec();
        assert!(phi[star] > 0.0, "potential at the charge must be positive");
        // And the peak should be at (or adjacent to) the charge.
        let max = phi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((phi[star] - max).abs() < 1e-9);
    }

    #[test]
    fn electric_field_of_linear_potential_is_constant() {
        // Force φ = x by fixing the solution and checking E = -∇φ = -x̂.
        let mesh = TetMesh::duct(3, 2, 2, 1.5, 1.0, 1.0);
        let mut fem = FemSolver::assemble(&mesh, 0.0);
        // Overwrite the stored potential directly with φ(x) = x.
        for (n, p) in mesh.node_pos.iter().enumerate() {
            fem.potential[n] = p.x;
        }
        let mut ef = vec![0.0; mesh.n_cells() * 3];
        fem.electric_field(&mesh, &mut ef);
        for c in 0..mesh.n_cells() {
            assert!((ef[c * 3] + 1.0).abs() < 1e-9, "Ex must be -1");
            assert!(ef[c * 3 + 1].abs() < 1e-9);
            assert!(ef[c * 3 + 2].abs() < 1e-9);
        }
    }

    #[test]
    fn solve_does_not_depend_on_the_stored_potential() {
        // No warm start: a poisoned stored φ cannot leak into the next
        // solve, and repeating the solve repeats its bits.
        let mesh = TetMesh::duct(4, 3, 3, 1.0, 1.0, 1.0);
        let mut fem = FemSolver::assemble(&mesh, 1.0);
        let charge: Vec<f64> = (0..mesh.n_nodes()).map(|n| 1e-3 * (n % 5) as f64).collect();
        fem.potential.fill(f64::NAN);
        let first = fem.solve(&charge, 1.0).unwrap().to_vec();
        assert!(first.iter().all(|p| p.is_finite()));
        let second = fem.solve(&charge, 1.0).unwrap().to_vec();
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn solve_rejects_a_nonfinite_rhs_and_keeps_the_potential() {
        let mesh = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let mut fem = FemSolver::assemble(&mesh, 1.0);
        let mut charge = vec![1e-3; mesh.n_nodes()];
        let before = fem.solve(&charge, 1.0).unwrap().to_vec();
        let free = (0..mesh.n_nodes()).find(|&n| !fem.is_fixed(n)).unwrap();
        charge[free] = f64::INFINITY;
        assert_eq!(fem.solve(&charge, 1.0), Err(SolveError::NonFinite));
        // φ untouched: the rejection must not smear NaNs into state.
        assert_eq!(fem.potential(), &before[..]);
    }

    #[test]
    fn dirichlet_counts() {
        let mesh = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let fem = FemSolver::assemble(&mesh, 1.0);
        // All wall + inlet nodes are fixed.
        let n_wall = mesh.wall_nodes.iter().filter(|&&w| w).count();
        let n_fixed = (0..mesh.n_nodes()).filter(|&n| fem.is_fixed(n)).count();
        assert!(n_fixed >= n_wall);
        assert!(n_fixed < mesh.n_nodes(), "interior must stay free");
    }
}
