//! A small dense matrix with pivoted Gaussian elimination, the oracle
//! the sparse solvers' tests compare against.

/// Row-major dense matrix view helpers over a flat `Vec<f64>`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    pub n_rows: usize,
    pub n_cols: usize,
    pub data: Vec<f64>,
}

impl DenseMatrix {
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n_cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] = v;
    }

    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] += v;
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        (0..self.n_rows)
            .map(|r| (0..self.n_cols).map(|c| self.get(r, c) * x[c]).sum())
            .collect()
    }

    /// Solve `A x = b` by Gaussian elimination with partial pivoting.
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(b.len(), self.n_rows);
        let n = self.n_rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let piv = (col..n)
                .max_by(|&i, &j| {
                    a[i * n + col]
                        .abs()
                        .partial_cmp(&a[j * n + col].abs())
                        .unwrap()
                })
                .unwrap();
            if a[piv * n + col].abs() < 1e-300 {
                return None;
            }
            if piv != col {
                for k in 0..n {
                    a.swap(col * n + k, piv * n + k);
                }
                x.swap(col, piv);
            }
            let d = a[col * n + col];
            for row in (col + 1)..n {
                let f = a[row * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= f * a[col * n + k];
                }
                x[row] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for k in (col + 1)..n {
                s -= a[col * n + k] * x[k];
            }
            x[col] = s / a[col * n + col];
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 2×2 matrix with rows `[a, b]` and `[c, d]`.
    fn two_by_two(a: f64, b: f64, c: f64, d: f64) -> DenseMatrix {
        DenseMatrix {
            n_rows: 2,
            n_cols: 2,
            data: vec![a, b, c, d],
        }
    }

    #[test]
    fn matvec_basics() {
        let m = two_by_two(1.0, 2.0, 3.0, 4.0);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn solve_2x2() {
        let m = two_by_two(2.0, 1.0, 1.0, 3.0);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let m = two_by_two(0.0, 1.0, 1.0, 0.0);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_detects_singular() {
        let m = two_by_two(1.0, 2.0, 2.0, 4.0);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }
}
