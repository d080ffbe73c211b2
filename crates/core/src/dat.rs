//! `Dat` — data declared on a mesh set (the `opp_decl_dat` of the
//! paper, Figure 4 lines 20–30).
//!
//! A `Dat` is a flat `Vec<f64>` of `len * dim` values; element `i`
//! owns the contiguous slice `[i*dim, (i+1)*dim)`. Mesh dats are
//! owned by the application (the "science source"); particle dats live
//! inside [`crate::particles::ParticleDats`] because the particle-move
//! machinery must relocate *all* particle columns together.

/// Data on a mesh set: `len` elements × `dim` components.
///
/// ```
/// use oppic_core::Dat;
/// let mut ef = Dat::zeros("electric field", 100, 3);
/// ef.el_mut(7)[0] = 1.5;
/// assert_eq!(ef.el(7), &[1.5, 0.0, 0.0]);
/// assert_eq!(ef.len(), 100);
/// assert_eq!(ef.dim(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dat {
    name: String,
    dim: usize,
    data: Vec<f64>,
}

impl Dat {
    /// A zero-initialised dat.
    pub fn zeros(name: impl Into<String>, len: usize, dim: usize) -> Self {
        assert!(dim > 0, "dat dimension must be positive");
        Dat {
            name: name.into(),
            dim,
            data: vec![0.0; len * dim],
        }
    }

    /// Wrap existing raw data (must be `len * dim` long).
    pub fn from_vec(name: impl Into<String>, dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dat dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        Dat {
            name: name.into(),
            dim,
            data,
        }
    }

    /// Build per-element from a function.
    pub fn from_fn(
        name: impl Into<String>,
        len: usize,
        dim: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(len * dim);
        for i in 0..len {
            for d in 0..dim {
                data.push(f(i, d));
            }
        }
        Dat::from_vec(name, dim, data)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of set elements.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element `i` as a slice of `dim` components.
    #[inline]
    pub fn el(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Element `i` of an `N`-wide dat as an array: the width is a
    /// compile-time constant, so reading its components needs no
    /// bounds check. Panics unless `dim == N`.
    #[inline]
    pub fn el_fixed<const N: usize>(&self, i: usize) -> &[f64; N] {
        assert_eq!(self.dim, N, "dat {:?} has dim {}", self.name, self.dim);
        &self.data.as_chunks::<N>().0[i]
    }

    #[inline]
    pub fn el_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Scalar accessor for `dim == 1` dats.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        debug_assert_eq!(self.dim, 1, "Dat::get is for dim-1 dats");
        self.data[i]
    }

    /// The whole flat buffer.
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The flat buffer as a `(dim, data)` column of
    /// [`crate::parloop::par_loop`].
    #[inline]
    pub fn col_mut(&mut self) -> (usize, &mut [f64]) {
        (self.dim, &mut self.data)
    }

    /// The flat buffer as a [`crate::parloop::Fixed`] column of
    /// `N`-wide elements. Panics unless `dim == N`.
    #[inline]
    pub fn col_fixed<const N: usize>(&mut self) -> crate::parloop::Fixed<'_, N> {
        assert_eq!(self.dim, N, "dat {:?} has dim {}", self.name, self.dim);
        crate::parloop::Fixed(&mut self.data)
    }

    /// Set every value to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Total bytes held (roofline accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Sum of all components — handy for conservation checks.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Resize to a new element count, zero-filling growth.
    pub fn resize(&mut self, len: usize) {
        self.data.resize(len * self.dim, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let d = Dat::zeros("ef", 10, 3);
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.name(), "ef");
        assert_eq!(d.el(4), &[0.0, 0.0, 0.0]);
        assert_eq!(d.bytes(), 240);
        assert!(!d.is_empty());
    }

    #[test]
    fn from_vec_checks_shape() {
        let d = Dat::from_vec("x", 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.el(1), &[3.0, 4.0]);
        assert_eq!(d.el_fixed::<2>(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "has dim 2")]
    fn fixed_read_checks_the_width() {
        let d = Dat::from_vec("x", 2, vec![1.0, 2.0, 3.0, 4.0]);
        let _ = d.el_fixed::<4>(0);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_vec_rejects_ragged() {
        let _ = Dat::from_vec("x", 3, vec![1.0, 2.0]);
    }

    #[test]
    fn from_fn_orders_components() {
        let d = Dat::from_fn("x", 3, 2, |i, c| (i * 10 + c) as f64);
        assert_eq!(d.el(0), &[0.0, 1.0]);
        assert_eq!(d.el(2), &[20.0, 21.0]);
    }

    #[test]
    fn mutation_and_sum() {
        let mut d = Dat::zeros("q", 4, 1);
        d.el_mut(2)[0] = 2.5;
        d.el_mut(0)[0] = 1.0;
        assert_eq!(d.get(2), 2.5);
        assert!((d.sum() - 3.5).abs() < 1e-15);
        d.fill(1.0);
        assert_eq!(d.sum(), 4.0);
    }

    #[test]
    fn resize_zero_fills() {
        let mut d = Dat::from_vec("x", 2, vec![1.0, 2.0]);
        d.resize(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.el(0), &[1.0, 2.0]);
        assert_eq!(d.el(2), &[0.0, 0.0]);
        d.resize(1);
        assert_eq!(d.len(), 1);
    }
}
