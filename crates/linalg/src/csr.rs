//! Compressed-sparse-row matrices with a triplet-accumulating builder.
//!
//! FEM assembly scatters 4×4 element blocks into the global matrix;
//! [`CsrBuilder`] accepts duplicate `(row, col)` entries and sums them
//! on [`CsrBuilder::build`], which is exactly the `MatSetValues(...,
//! ADD_VALUES)` workflow Mini-FEM-PIC uses with PETSc.

/// Builder accumulating `(row, col, value)` triplets.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n_rows: usize,
    n_cols: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl CsrBuilder {
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        CsrBuilder {
            n_rows,
            n_cols,
            triplets: Vec::new(),
        }
    }

    /// Add `value` at `(row, col)`; duplicates accumulate.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        self.triplets.push((row as u32, col as u32, value));
    }

    /// Sort, merge duplicates, and freeze into a [`CsrMatrix`].
    pub fn build(mut self) -> CsrMatrix {
        self.triplets
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut row_count = vec![0usize; self.n_rows];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &self.triplets {
            if last == Some((r, c)) {
                *values.last_mut().expect("merge implies a previous entry") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_count[r as usize] += 1;
                last = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; self.n_rows + 1];
        for r in 0..self.n_rows {
            row_ptr[r + 1] = row_ptr[r] + row_count[r];
        }
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// An immutable CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` of one row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Entry lookup (O(row nnz)); test/assembly use.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        cols.iter()
            .position(|&cc| cc as usize == c)
            .map_or(0.0, |k| vals[k])
    }

    /// `y = A x`, each row the left fold `acc += v * x[c]`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            *yr = acc;
        }
    }

    /// The diagonal, for Jacobi preconditioning. Missing diagonal
    /// entries come back as 0.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n_rows.min(self.n_cols))
            .map(|r| self.get(r, r))
            .collect()
    }

    /// Symmetric Dirichlet elimination for boundary condition `x[i] =
    /// g[i]` on rows flagged in `fixed`: zero the row and column, put 1
    /// on the diagonal, and move the column's contribution to the RHS.
    /// Keeps the matrix symmetric so CG stays applicable — the standard
    /// FEM treatment (PETSc's `MatZeroRowsColumns`).
    pub fn apply_dirichlet(&self, fixed: &[bool], g: &[f64], rhs: &mut [f64]) -> CsrMatrix {
        assert_eq!(fixed.len(), self.n_rows);
        assert_eq!(self.n_rows, self.n_cols, "Dirichlet needs a square system");
        // RHS correction: rhs -= A[:, j] * g[j] for fixed j (over free rows).
        for r in 0..self.n_rows {
            if fixed[r] {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let c = *c as usize;
                if fixed[c] {
                    rhs[r] -= v * g[c];
                }
            }
        }
        for r in 0..self.n_rows {
            if fixed[r] {
                rhs[r] = g[r];
            }
        }
        // Rebuild with rows/cols eliminated.
        let mut b = CsrBuilder::new(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            if fixed[r] {
                b.add(r, r, 1.0);
                continue;
            }
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let c = *c as usize;
                if !fixed[c] {
                    b.add(r, c, *v);
                }
            }
        }
        b.build()
    }

    /// Frobenius-norm asymmetry `||A - A^T||_F`; tests use this to
    /// certify assembled stiffness matrices.
    pub fn asymmetry(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let d = v - self.get(*c as usize, r);
                s += d * d;
            }
        }
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 1 0]
        // [1 3 1]
        // [0 1 4]
        let mut b = CsrBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 3.0);
        b.add(1, 2, 1.0);
        b.add(2, 1, 1.0);
        b.add(2, 2, 4.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = small();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 0), 0.0);
        assert_eq!(m.get(1, 2), 1.0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, 1.0);
        b.add(0, 1, -1.0);
        b.add(0, 1, 1.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 3); // (0,0), (0,1) merged, (1,1)
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut b = CsrBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 2.0);
        let m = b.build();
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2).0.len(), 0);
        assert_eq!(m.get(3, 3), 2.0);
        let mut y = vec![0.0; 4];
        m.spmv(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn spmv_matches_serial_and_dense() {
        let m = small();
        let x = vec![1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        m.spmv(&x, &mut y1);
        // Dense oracle: every (r, c) entry, zeros included.
        for (r, y) in y1.iter().enumerate() {
            let want: f64 = (0..3).map(|c| m.get(r, c) * x[c]).sum();
            assert!((y - want).abs() < 1e-14);
        }
    }

    #[test]
    fn diagonal_extraction() {
        let m = small();
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn symmetry_check() {
        let m = small();
        assert!(m.asymmetry() < 1e-15);
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 1, 1.0);
        let n = b.build();
        assert!(n.asymmetry() > 0.5);
    }

    #[test]
    fn dirichlet_elimination() {
        let m = small();
        let fixed = vec![true, false, false];
        let g = vec![5.0, 0.0, 0.0];
        let mut rhs = vec![1.0, 2.0, 3.0];
        let me = m.apply_dirichlet(&fixed, &g, &mut rhs);
        // Row 0 becomes identity.
        assert_eq!(me.get(0, 0), 1.0);
        assert_eq!(me.get(0, 1), 0.0);
        assert_eq!(me.get(1, 0), 0.0);
        // rhs[0] = g, rhs[1] -= A[1,0]*g = 2 - 5.
        assert_eq!(rhs[0], 5.0);
        assert_eq!(rhs[1], -3.0);
        assert_eq!(rhs[2], 3.0);
        // Still symmetric.
        assert!(me.asymmetry() < 1e-15);
    }
}
