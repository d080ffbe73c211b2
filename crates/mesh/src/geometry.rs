//! Small geometric primitives used throughout the mesh and the PIC apps.
//!
//! Everything here is deliberately plain `f64` / fixed-size-array code:
//! these routines sit on the hot path of the particle move kernel, so we
//! keep them inline-friendly and allocation-free.

/// A 3-component vector. Thin wrapper over `[f64; 3]` so the particle
/// columns can be reinterpreted as flat `f64` slices with `dim = 3`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        Vec3 {
            x: s[0],
            y: s[1],
            z: s[2],
        }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3 {
            x: self.x * s,
            y: self.y * s,
            z: self.z * s,
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.min(o.x),
            y: self.y.min(o.y),
            z: self.z.min(o.z),
        }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.max(o.x),
            y: self.y.max(o.y),
            z: self.z.max(o.z),
        }
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        self.scale(s)
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl std::ops::Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl std::ops::IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl BoundingBox {
    /// The empty box: `lo = +inf`, `hi = -inf`; absorbs any point on
    /// [`BoundingBox::expand`].
    pub fn empty() -> Self {
        BoundingBox {
            lo: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            hi: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    pub fn of_points<'a, I: IntoIterator<Item = &'a Vec3>>(pts: I) -> Self {
        let mut b = Self::empty();
        for p in pts {
            b.expand(*p);
        }
        b
    }

    #[inline]
    pub fn expand(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    /// Grow symmetrically by `eps` in every direction.
    pub fn inflated(&self, eps: f64) -> Self {
        let d = Vec3::new(eps, eps, eps);
        BoundingBox {
            lo: self.lo - d,
            hi: self.hi + d,
        }
    }

    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }
}

/// Signed volume of the tetrahedron `(a, b, c, d)`.
///
/// Positive when `(b-a, c-a, d-a)` is a right-handed frame. The duct
/// generator orients all tets positively, which the barycentric routine
/// below relies on.
#[inline]
pub fn tet_signed_volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Barycentric coordinates of point `p` in tetrahedron `(v0..v3)`.
///
/// `lambda[i]` is the (signed) sub-volume ratio associated with vertex
/// `i`: replace vertex `i` by `p` and divide by the total volume. The
/// four coordinates always sum to exactly `1.0` up to round-off; the
/// point is inside the tet iff all four are `>= 0`.
#[inline]
pub fn barycentric(p: Vec3, v: &[Vec3; 4]) -> [f64; 4] {
    let vol = tet_signed_volume(v[0], v[1], v[2], v[3]);
    let inv = 1.0 / vol;
    [
        tet_signed_volume(p, v[1], v[2], v[3]) * inv,
        tet_signed_volume(v[0], p, v[2], v[3]) * inv,
        tet_signed_volume(v[0], v[1], p, v[3]) * inv,
        tet_signed_volume(v[0], v[1], v[2], p) * inv,
    ]
}

/// Returns `true` when every barycentric coordinate is non-negative
/// (within `-tol`), i.e. the point lies in the closed tetrahedron.
/// All four compares are evaluated (no early exit), so the test is
/// branch-free in the move's probe.
#[inline]
pub fn bary_inside(lambda: &[f64; 4], tol: f64) -> bool {
    lambda.iter().fold(true, |inside, &l| inside & (l >= -tol))
}

/// Index of the most negative barycentric coordinate — the face to exit
/// through when hopping towards a point outside the tet (the paper's
/// "next most probable cell" rule, Section 3.1.3).
#[inline]
pub fn bary_min_index(lambda: &[f64; 4]) -> usize {
    let mut k = 0;
    for i in 1..4 {
        if lambda[i] < lambda[k] {
            k = i;
        }
    }
    k
}

/// Gradients of the four linear (P1) basis functions on a tetrahedron.
///
/// `grad[i]` is constant over the element and satisfies
/// `grad[i] . (v[j] - v[i]) = -1 for j != i` scaled appropriately;
/// these are the "shape derivatives" Mini-FEM-PIC stores per cell.
pub fn p1_gradients(v: &[Vec3; 4]) -> [Vec3; 4] {
    let vol6 = 6.0 * tet_signed_volume(v[0], v[1], v[2], v[3]);
    // Gradient of lambda_i = (opposite face normal) / (6 * volume),
    // oriented so that lambda_i = 1 at v[i].
    let mut g = [Vec3::ZERO; 4];
    // Opposite faces, ordered so the normal points away from vertex i.
    const F: [[usize; 3]; 4] = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]];
    for i in 0..4 {
        let [a, b, c] = F[i];
        let n = (v[b] - v[a]).cross(v[c] - v[a]);
        g[i] = n.scale(1.0 / vol6);
    }
    g
}

/// The affine map of a tetrahedron's barycentric coordinates,
/// `λ = A·[1, x, y, z]`, as 16 lane-major coefficients: coefficient
/// `j` of `λ_k` is `map[4j + k]`, so `map[0..4]` holds the four
/// constant terms and `map[4..8]`, `map[8..12]`, `map[12..16]` the `x`,
/// `y` and `z` terms of `λ_0..λ_3`. Built from the tet's
/// [`p1_gradients`] `g` about its centroid `c`
/// (`λ_k(p) = 1/4 + g_k·(p − c)`), so evaluating it with
/// [`barycentric_from_map`] replaces the five tet volumes of
/// [`barycentric`] with three 4-wide multiply-adds.
pub fn barycentric_map(g: &[Vec3; 4], c: Vec3) -> [f64; 16] {
    let mut map = [0.0; 16];
    for (k, g) in g.iter().enumerate() {
        for (j, a) in [0.25 - g.dot(c), g.x, g.y, g.z].into_iter().enumerate() {
            map[4 * j + k] = a;
        }
    }
    map
}

/// Barycentric coordinates of `p` through a [`barycentric_map`]: each
/// `λ_k` is `a0 + a1·x + a2·y + a3·z`, evaluated in that order, over
/// contiguous lanes `k`.
#[inline]
pub fn barycentric_from_map(map: &[f64; 16], p: Vec3) -> [f64; 4] {
    std::array::from_fn(|k| map[k] + map[4 + k] * p.x + map[8 + k] * p.y + map[12 + k] * p.z)
}

/// Centroid of a tetrahedron.
#[inline]
pub fn tet_centroid(v: &[Vec3; 4]) -> Vec3 {
    (v[0] + v[1] + v[2] + v[3]).scale(0.25)
}

/// Sample a uniformly distributed point inside a tetrahedron from four
/// unit-interval random numbers, using the folding method of Rocchini &
/// Cignoni. Exact (no rejection), which matters for deterministic tests.
pub fn sample_tet(v: &[Vec3; 4], r: [f64; 4]) -> Vec3 {
    let (mut s, mut t, mut u) = (r[0], r[1], r[2]);
    if s + t > 1.0 {
        s = 1.0 - s;
        t = 1.0 - t;
    }
    if t + u > 1.0 {
        let tmp = u;
        u = 1.0 - s - t;
        t = 1.0 - tmp;
    } else if s + t + u > 1.0 {
        let tmp = u;
        u = s + t + u - 1.0;
        s = 1.0 - t - tmp;
    }
    let a = 1.0 - s - t - u;
    v[0].scale(a) + v[1].scale(s) + v[2].scale(t) + v[3].scale(u)
}

/// Sample a uniform point on a triangle from two unit-interval randoms.
pub fn sample_triangle(a: Vec3, b: Vec3, c: Vec3, r: [f64; 2]) -> Vec3 {
    let (mut u, mut v) = (r[0], r[1]);
    if u + v > 1.0 {
        u = 1.0 - u;
        v = 1.0 - v;
    }
    a + (b - a).scale(u) + (c - a).scale(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tet() -> [Vec3; 4] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert!((a.dot(b) - (-1.0 + 1.0 + 6.0)).abs() < 1e-15);
        let c = a.cross(b);
        // Cross product is orthogonal to both inputs.
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn vec3_indexing() {
        let mut a = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[2], 3.0);
        a[1] = 9.0;
        assert_eq!(a.y, 9.0);
    }

    #[test]
    #[should_panic]
    fn vec3_index_out_of_range_panics() {
        let a = Vec3::ZERO;
        let _ = a[3];
    }

    #[test]
    fn unit_tet_volume() {
        let v = unit_tet();
        let vol = tet_signed_volume(v[0], v[1], v[2], v[3]);
        assert!((vol - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn barycentric_at_vertices() {
        let v = unit_tet();
        for i in 0..4 {
            let l = barycentric(v[i], &v);
            for (j, &lj) in l.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((lj - expect).abs() < 1e-12, "vertex {i} coord {j}");
            }
        }
    }

    #[test]
    fn barycentric_centroid() {
        let v = unit_tet();
        let l = barycentric(tet_centroid(&v), &v);
        for lj in l {
            assert!((lj - 0.25).abs() < 1e-12);
        }
        assert!(bary_inside(&l, 0.0));
    }

    #[test]
    fn barycentric_outside_detects_exit_face() {
        let v = unit_tet();
        // Point beyond the face opposite vertex 0 (the x+y+z=1 plane).
        let p = Vec3::new(1.0, 1.0, 1.0);
        let l = barycentric(p, &v);
        assert!(!bary_inside(&l, 1e-12));
        assert_eq!(bary_min_index(&l), 0);
    }

    #[test]
    fn p1_gradients_partition_of_unity() {
        let v = [
            Vec3::new(0.1, 0.2, 0.0),
            Vec3::new(1.3, 0.1, 0.2),
            Vec3::new(0.2, 1.1, -0.1),
            Vec3::new(0.3, 0.4, 1.2),
        ];
        let g = p1_gradients(&v);
        // Gradients of a partition of unity sum to zero.
        let s = g[0] + g[1] + g[2] + g[3];
        assert!(s.norm() < 1e-12);
        // grad(lambda_i) . (v_i - v_j) should be 1 for any j != i.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let d = g[i].dot(v[i] - v[j]);
                    assert!((d - 1.0).abs() < 1e-9, "i={i} j={j} d={d}");
                }
            }
        }
    }

    #[test]
    fn barycentric_map_matches_the_volume_ratios() {
        let v = [
            Vec3::new(0.1, 0.2, 0.0),
            Vec3::new(1.3, 0.1, 0.2),
            Vec3::new(0.2, 1.1, -0.1),
            Vec3::new(0.3, 0.4, 1.2),
        ];
        let map = barycentric_map(&p1_gradients(&v), tet_centroid(&v));
        let probes = [
            v[0],
            v[3],
            tet_centroid(&v),
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(-2.0, 3.0, 1.5),
        ];
        for p in probes {
            let (a, b) = (barycentric_from_map(&map, p), barycentric(p, &v));
            for k in 0..4 {
                assert!((a[k] - b[k]).abs() < 1e-12, "{p:?} k={k}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn sample_tet_inside() {
        let v = unit_tet();
        let mut state = 123456789u64;
        let mut nextf = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..500 {
            let p = sample_tet(&v, [nextf(), nextf(), nextf(), nextf()]);
            let l = barycentric(p, &v);
            assert!(bary_inside(&l, 1e-12), "sample escaped: {l:?}");
        }
    }

    #[test]
    fn sample_triangle_inside() {
        let (a, b, c) = (
            Vec3::ZERO,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
        );
        for i in 0..50 {
            for j in 0..50 {
                let p = sample_triangle(a, b, c, [i as f64 / 49.0, j as f64 / 49.0]);
                assert!(p.x >= -1e-12 && p.y >= -1e-12);
                assert!(p.x / 2.0 + p.y / 3.0 <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn bbox_basics() {
        let mut b = BoundingBox::empty();
        assert!(!b.contains(Vec3::ZERO));
        b.expand(Vec3::new(1.0, 2.0, 3.0));
        b.expand(Vec3::new(-1.0, 0.0, 5.0));
        assert!(b.contains(Vec3::new(0.0, 1.0, 4.0)));
        assert!(!b.contains(Vec3::new(0.0, 3.0, 4.0)));
        assert_eq!(b.extent(), Vec3::new(2.0, 2.0, 2.0));
        let bi = b.inflated(0.5);
        assert!(bi.contains(Vec3::new(1.4, 2.4, 3.0)));
    }
}
