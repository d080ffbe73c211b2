//! Sparse direct solve for a fixed SPD operator: reverse Cuthill–McKee
//! ordering, envelope (skyline) Cholesky, forward and back sweeps.
//!
//! Mini-FEM-PIC's Dirichlet-reduced stiffness matrix never changes
//! (static mesh, fixed Dirichlet set), so the field solve factors it
//! once at setup and each step costs two triangular sweeps over `L` —
//! the solve-only KSP with a Cholesky preconditioner that PETSc offers
//! for the same system. RCM keeps the profile narrow, and Cholesky fill
//! never leaves the envelope of the permuted matrix, so `L` is stored
//! row by row from each row's first nonzero column to its diagonal:
//! every inner loop runs over one contiguous slice.

use crate::csr::CsrMatrix;
use std::fmt;

/// Why a matrix could not be factored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorError {
    /// Pivot `pivot` of `row` (the caller's numbering) was not a
    /// positive finite number: the matrix is not symmetric positive
    /// definite.
    NotPositiveDefinite { row: usize, pivot: f64 },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { row, pivot } => {
                write!(f, "not positive definite: pivot {pivot} at row {row}")
            }
        }
    }
}

/// Reverse Cuthill–McKee order of the graph of `a` restricted to the
/// rows with `active[r]` (edges are the structural entries between two
/// active rows): `order[k]` is the row placed `k`-th. Each connected
/// component starts from a pseudo-peripheral node (George–Liu) and
/// visits neighbours by ascending degree, ties by index, so the order
/// is deterministic.
pub fn rcm_order(a: &CsrMatrix, active: &[bool]) -> Vec<usize> {
    let n = a.n_rows();
    assert_eq!(active.len(), n, "active mask shape mismatch");
    let neighbours = |r: usize| {
        let (cols, _) = a.row(r);
        cols.iter()
            .map(|&c| c as usize)
            .filter(move |&c| c != r && active[c])
    };
    let degree: Vec<usize> = (0..n)
        .map(|r| if active[r] { neighbours(r).count() } else { 0 })
        .collect();

    // Breadth-first level structure from `root`, neighbours by
    // ascending (degree, index): the visit order, the start of the
    // last level, and the number of levels. `mark` holds visit stamps.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut bfs = |root: usize| -> (Vec<usize>, usize, usize) {
        stamp += 1;
        mark[root] = stamp;
        let mut order = vec![root];
        let (mut lo, mut last, mut depth) = (0, 0, 0);
        let mut next = Vec::new();
        while lo < order.len() {
            let hi = order.len();
            (last, depth) = (lo, depth + 1);
            for k in lo..hi {
                next.clear();
                next.extend(neighbours(order[k]).filter(|&c| mark[c] != stamp));
                next.sort_unstable_by_key(|&c| (degree[c], c));
                for &c in &next {
                    mark[c] = stamp;
                    order.push(c);
                }
            }
            lo = hi;
        }
        (order, last, depth)
    };
    let min_degree = |nodes: &[usize]| *nodes.iter().min_by_key(|&&c| (degree[c], c)).unwrap();

    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for seed in 0..n {
        if !active[seed] || placed[seed] {
            continue;
        }
        // Start at the component's minimum-degree node, then George–Liu:
        // move to a minimum-degree node of the last level while that
        // makes the level structure deeper.
        let (comp, _, _) = bfs(seed);
        let (mut levels, mut last, mut depth) = bfs(min_degree(&comp));
        loop {
            let (l2, last2, d2) = bfs(min_degree(&levels[last..]));
            if d2 <= depth {
                break;
            }
            (levels, last, depth) = (l2, last2, d2);
        }
        for &c in &levels {
            placed[c] = true;
        }
        order.extend(levels);
    }
    order.reverse();
    order
}

/// Cholesky factor `A = L Lᵀ` of the active principal submatrix of a
/// symmetric matrix, in RCM order, stored as an envelope.
#[derive(Debug, Clone)]
pub struct EnvelopeCholesky {
    /// `perm[k]`: the caller's row index of unknown `k`.
    perm: Vec<u32>,
    /// First column of row `k`'s envelope.
    first: Vec<u32>,
    /// Row `k` of `L` is `vals[ptr[k]..ptr[k + 1]]`, columns
    /// `first[k]..=k`; the diagonal is the last entry.
    ptr: Vec<usize>,
    vals: Vec<f64>,
    /// Length of the vectors [`EnvelopeCholesky::solve_in_place`] takes.
    n: usize,
}

impl EnvelopeCholesky {
    /// Factor `A[active, active]`. `a` must be symmetric: each row is
    /// read only left of (and at) its diagonal in factor order.
    pub fn factor(a: &CsrMatrix, active: &[bool]) -> Result<Self, FactorError> {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n, "Cholesky needs a square matrix");
        let perm = rcm_order(a, active);
        let m = perm.len();
        let mut pos = vec![u32::MAX; n];
        for (k, &r) in perm.iter().enumerate() {
            pos[r] = k as u32;
        }

        let mut first: Vec<u32> = (0..m as u32).collect();
        for (k, f) in first.iter_mut().enumerate() {
            let (cols, _) = a.row(perm[k]);
            for &c in cols {
                let p = pos[c as usize];
                if p != u32::MAX {
                    *f = (*f).min(p);
                }
            }
        }
        let mut ptr = Vec::with_capacity(m + 1);
        ptr.push(0);
        for (k, &f) in first.iter().enumerate() {
            ptr.push(ptr[k] + k + 1 - f as usize);
        }
        let mut vals = vec![0.0; ptr[m]];
        for k in 0..m {
            let (cols, vs) = a.row(perm[k]);
            for (&c, &v) in cols.iter().zip(vs) {
                let p = pos[c as usize] as usize;
                if p <= k {
                    vals[ptr[k] + p - first[k] as usize] += v;
                }
            }
        }

        // Row-by-row (bordering) Cholesky: row i against every earlier
        // row j of its envelope, over the columns both rows hold.
        for i in 0..m {
            let fi = first[i] as usize;
            let (done, rest) = vals.split_at_mut(ptr[i]);
            let row_i = &mut rest[..ptr[i + 1] - ptr[i]];
            for j in fi..i {
                let fj = first[j] as usize;
                let row_j = &done[ptr[j]..ptr[j + 1]];
                let lo = fi.max(fj);
                let s = dot(&row_i[lo - fi..j - fi], &row_j[lo - fj..j - fj]);
                row_i[j - fi] = (row_i[j - fi] - s) / row_j[j - fj];
            }
            let (off, diag) = row_i.split_at_mut(i - fi);
            let d = diag[0] - dot(off, off);
            if !(d > 0.0 && d.is_finite()) {
                return Err(FactorError::NotPositiveDefinite {
                    row: perm[i],
                    pivot: d,
                });
            }
            diag[0] = d.sqrt();
        }

        Ok(EnvelopeCholesky {
            perm: perm.into_iter().map(|r| r as u32).collect(),
            first,
            ptr,
            vals,
            n,
        })
    }

    /// Number of factored unknowns (the active rows).
    pub fn n_active(&self) -> usize {
        self.perm.len()
    }

    /// Stored entries of `L`, diagonal included.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Solve `A[active, active] x = b` in place: on entry `x` holds `b`
    /// on the active rows, on exit the solution there. Inactive rows
    /// are neither read nor written.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "solve vector shape mismatch");
        let mut y: Vec<f64> = self.perm.iter().map(|&r| x[r as usize]).collect();
        // Forward sweep L y = b, a dot product per row.
        for k in 0..y.len() {
            let f = self.first[k] as usize;
            let (off, diag) = self.row(k);
            let s = dot(off, &y[f..k]);
            y[k] = (y[k] - s) / diag;
        }
        // Back sweep Lᵀ x = y, an axpy per row of L (a column of Lᵀ).
        for k in (0..y.len()).rev() {
            let f = self.first[k] as usize;
            let (off, diag) = self.row(k);
            let (head, tail) = y.split_at_mut(k);
            let xk = tail[0] / diag;
            tail[0] = xk;
            for (yj, l) in head[f..].iter_mut().zip(off) {
                *yj -= l * xk;
            }
        }
        for (&r, &v) in self.perm.iter().zip(&y) {
            x[r as usize] = v;
        }
    }

    /// Row `k` of `L`: its off-diagonal envelope and its diagonal.
    #[inline]
    fn row(&self, k: usize) -> (&[f64], f64) {
        let row = &self.vals[self.ptr[k]..self.ptr[k + 1]];
        let (off, diag) = row.split_at(row.len() - 1);
        (off, diag[0])
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// Tridiagonal (2, -1) matrix of size n, rows scrambled by a
    /// stride so the natural order is not already banded.
    fn scrambled_tridiagonal(n: usize) -> CsrMatrix {
        let label = |i: usize| (i * 7) % n;
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(label(i), label(i), 2.0);
            if i + 1 < n {
                b.add(label(i), label(i + 1), -1.0);
                b.add(label(i + 1), label(i), -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn tridiagonal_envelope_is_the_bandwidth_one_profile() {
        let n = 30;
        let a = scrambled_tridiagonal(n);
        let l = EnvelopeCholesky::factor(&a, &vec![true; n]).unwrap();
        let first: Vec<usize> = l.first.iter().map(|&f| f as usize).collect();
        let band: Vec<usize> = (0..n).map(|k| k.saturating_sub(1)).collect();
        assert_eq!(first, band);
        assert_eq!(l.nnz(), 2 * n - 1);
        // And the factor solves the system.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = vec![0.0; n];
        a.spmv_serial(&x_true, &mut x);
        l.solve_in_place(&mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn non_spd_matrix_is_a_typed_error() {
        // Symmetric but indefinite: eigenvalues 3 and -1.
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 2.0);
        b.add(1, 0, 2.0);
        b.add(1, 1, 1.0);
        let err = EnvelopeCholesky::factor(&b.build(), &[true, true]).unwrap_err();
        let FactorError::NotPositiveDefinite { pivot, .. } = err;
        assert!(pivot <= 0.0, "{err}");
        // A NaN entry is rejected the same way, not factored into NaN.
        let mut b = CsrBuilder::new(1, 1);
        b.add(0, 0, f64::NAN);
        assert!(EnvelopeCholesky::factor(&b.build(), &[true]).is_err());
    }

    #[test]
    fn inactive_rows_are_neither_read_nor_written() {
        let n = 12;
        let a = scrambled_tridiagonal(n);
        let active: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let l = EnvelopeCholesky::factor(&a, &active).unwrap();
        assert_eq!(l.n_active(), 8);
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for (i, v) in x.iter_mut().enumerate() {
            if !active[i] {
                *v = f64::NAN;
            }
        }
        l.solve_in_place(&mut x);
        for i in 0..n {
            assert_eq!(x[i].is_nan(), !active[i], "row {i}");
        }
    }
}
