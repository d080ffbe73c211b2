//! The structured overlay used by the *direct-hop* particle move.
//!
//! Section 3.2.2 of the paper: "OP-PIC creates two structured meshes,
//! overlaid over the unstructured mesh: (1) mapping from structured-mesh
//! cell to unstructured-mesh cells (cell-map), (2) mapping from
//! structured-mesh cell to MPI rank of which the unstructured-mesh cell
//! belongs to (rank-map)." Only the cell-map is built here: every rank
//! holds the whole mesh, so a direct-hop move always finishes on the
//! local rank and a rank-map would have no reader (DESIGN.md §2).
//!
//! A particle that has moved far from its cell first jumps *directly*
//! to the overlay's best-guess cell for its new position and only then
//! falls back to multi-hop to reach the exact destination. The overlay
//! trades memory for hop count — the trade-off the paper calls out.
//!
//! # Building the cell-map
//!
//! [`StructuredOverlay::build`] rasterises each tet once, cell-major
//! (DESIGN.md §5, "Overlay build"). Cells are walked in ascending
//! order; each visits the still-unresolved voxels of its clamped
//! bounding-box range, row by row. A row only tests the voxels whose
//! centres satisfy the cell's four barycentric half-spaces
//! `λ_k ≥ −1e-6`, read off the tet's affine [`barycentric_map`] (of its
//! `shape_deriv` about its centroid: the 16 coefficients FemPIC's move
//! reads) as one bound on the voxel index each. The margin is a
//! prefilter, not a verdict. The map's round-off grows like `ε·R/h`
//! for a mesh `R` from the origin with cells of size `h`: about 2e-13,
//! six orders below the margin, within 1e3 cell sizes of the origin,
//! and the margin is used up near 1e9. Short of that it never drops a
//! voxel that the exact test `bary_inside(barycentric(centre, verts),
//! 1e-12)` would accept (the oracle checks ducts up to 1e6 cell sizes
//! out). That exact test alone decides, and the first cell (lowest
//! index) to pass claims the voxel — the same tie rule as a
//! voxel-major scan of ascending candidates, which matters on the
//! duct, whose voxel centres often lie on shared diagonal faces. A voxel no cell
//! contains takes the first-minimum centroid distance among the cells
//! whose bounding box covers it, else among all cells. The voxel-major
//! scan is kept as the oracle of `tests/overlay_oracle.rs`.

use crate::geometry::{bary_inside, barycentric, barycentric_map, tet_centroid};
use crate::geometry::{BoundingBox, Vec3};
use crate::tet::TetMesh;
use std::ops::RangeInclusive;

/// Half-space margin of the row prefilter (see the module docs).
const PREFILTER_MARGIN: f64 = 1e-6;

/// `cell_map` entry of a voxel no cell has claimed yet.
const UNRESOLVED: u32 = u32::MAX;

/// A regular grid over the mesh bounding box mapping points to a good
/// starting unstructured cell (the *cell-map*).
#[derive(Debug, Clone)]
pub struct StructuredOverlay {
    pub bbox: BoundingBox,
    pub dims: [usize; 3],
    cell_size: Vec3,
    /// For each overlay voxel: an unstructured cell whose interior
    /// intersects (or is nearest to) the voxel centre.
    pub cell_map: Vec<u32>,
}

impl StructuredOverlay {
    /// Build an overlay with roughly `res_per_axis` voxels per axis
    /// over a tetrahedral mesh. Every voxel centre is located exactly
    /// (the lowest-index tet containing it, nearest-centroid fallback
    /// for voxels outside the mesh), so `locate` always returns a
    /// *valid* starting cell.
    pub fn build(mesh: &TetMesh, res_per_axis: [usize; 3]) -> Self {
        let bbox = mesh.bounding_box().inflated(1e-9);
        let dims = [
            res_per_axis[0].max(1),
            res_per_axis[1].max(1),
            res_per_axis[2].max(1),
        ];
        let ext = bbox.extent();
        let cell_size = Vec3::new(
            ext.x / dims[0] as f64,
            ext.y / dims[1] as f64,
            ext.z / dims[2] as f64,
        );
        let mut ov = StructuredOverlay {
            bbox,
            dims,
            cell_size,
            cell_map: vec![UNRESOLVED; dims[0] * dims[1] * dims[2]],
        };

        for c in 0..mesh.n_cells() {
            let verts = mesh.cell_vertices(c);
            let map = barycentric_map(&mesh.shape_deriv[c], tet_centroid(&verts));
            let (lo, hi) = ov.voxel_range(&verts);
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    let row = ov.row_centre(j, k);
                    let Some(span) = ov.row_span(&map, row, lo[0], hi[0]) else {
                        continue;
                    };
                    for i in span {
                        let v = ov.voxel_index(i, j, k);
                        if ov.cell_map[v] == UNRESOLVED
                            && bary_inside(&barycentric(ov.centre(i, row), &verts), 1e-12)
                        {
                            ov.cell_map[v] = c as u32;
                        }
                    }
                }
            }
        }

        if ov.cell_map.contains(&UNRESOLVED) {
            ov.resolve_outside(mesh);
        }
        ov
    }

    /// Fallback for the voxels no cell contains: the nearest centroid
    /// (first minimum in ascending cell order) among the cells whose
    /// bounding-box range covers the voxel, else among all cells.
    fn resolve_outside(&mut self, mesh: &TetMesh) {
        let open: Vec<bool> = self.cell_map.iter().map(|&c| c == UNRESOLVED).collect();
        let mut best = vec![f64::INFINITY; open.len()];
        for c in 0..mesh.n_cells() {
            let verts = mesh.cell_vertices(c);
            let centroid = mesh.cell_centroid(c);
            let (lo, hi) = self.voxel_range(&verts);
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    let row = self.row_centre(j, k);
                    for i in lo[0]..=hi[0] {
                        let v = self.voxel_index(i, j, k);
                        if !open[v] {
                            continue;
                        }
                        let d = (centroid - self.centre(i, row)).norm2();
                        if self.cell_map[v] == UNRESOLVED || d < best[v] {
                            (self.cell_map[v], best[v]) = (c as u32, d);
                        }
                    }
                }
            }
        }
        for v in 0..open.len() {
            if self.cell_map[v] != UNRESOLVED {
                continue;
            }
            let [i, j, k] = [
                v % self.dims[0],
                (v / self.dims[0]) % self.dims[1],
                v / (self.dims[0] * self.dims[1]),
            ];
            let centre = self.centre(i, self.row_centre(j, k));
            self.cell_map[v] = (0..mesh.n_cells() as u32)
                .min_by(|&a, &b| {
                    let da = (mesh.cell_centroid(a as usize) - centre).norm2();
                    let db = (mesh.cell_centroid(b as usize) - centre).norm2();
                    da.partial_cmp(&db).unwrap()
                })
                .expect("mesh has no cells");
        }
    }

    /// Clamped voxel index range covered by a tet's bounding box.
    fn voxel_range(&self, verts: &[Vec3; 4]) -> ([usize; 3], [usize; 3]) {
        let tb = BoundingBox::of_points(verts.iter());
        (
            Self::clamp_index(&self.bbox, self.cell_size, self.dims, tb.lo),
            Self::clamp_index(&self.bbox, self.cell_size, self.dims, tb.hi),
        )
    }

    #[inline]
    fn voxel_index(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// The `y` and `z` of the centres of voxel row `(j, k)`.
    #[inline]
    fn row_centre(&self, j: usize, k: usize) -> (f64, f64) {
        (
            self.bbox.lo.y + (j as f64 + 0.5) * self.cell_size.y,
            self.bbox.lo.z + (k as f64 + 0.5) * self.cell_size.z,
        )
    }

    /// Centre of voxel `i` of a row.
    #[inline]
    fn centre(&self, i: usize, (y, z): (f64, f64)) -> Vec3 {
        Vec3::new(self.bbox.lo.x + (i as f64 + 0.5) * self.cell_size.x, y, z)
    }

    /// The voxels of `lo..=hi` in a row whose centres lie in every
    /// half-space `λ_k ≥ −PREFILTER_MARGIN` of a tet's barycentric
    /// `map`, or `None` when there are none. Along the row `λ_k` is
    /// affine in `i`, `λ_k(i) = a + b·i`, so each half-space bounds `i`
    /// on one side. A NaN coefficient (a degenerate tet) bounds
    /// nothing, and the exact test decides.
    fn row_span(
        &self,
        map: &[f64; 16],
        (y, z): (f64, f64),
        lo: usize,
        hi: usize,
    ) -> Option<RangeInclusive<usize>> {
        let (sx, x0) = (self.cell_size.x, self.bbox.lo.x + 0.5 * self.cell_size.x);
        let (mut t0, mut t1) = (lo as f64, hi as f64);
        for k in 0..4 {
            let a = map[k] + map[4 + k] * x0 + map[8 + k] * y + map[12 + k] * z;
            let b = map[4 + k] * sx;
            let t = (-PREFILTER_MARGIN - a) / b;
            if b > 0.0 {
                t0 = t0.max(t);
            } else if b < 0.0 {
                t1 = t1.min(t);
            } else if a < -PREFILTER_MARGIN {
                return None;
            }
        }
        // `lo <= t0` and `t1 <= hi`, so a non-empty span casts exactly.
        let (t0, t1) = (t0.ceil(), t1.floor());
        (t0 <= t1).then_some(t0 as usize..=t1 as usize)
    }

    fn clamp_index(bbox: &BoundingBox, cell_size: Vec3, dims: [usize; 3], p: Vec3) -> [usize; 3] {
        let rel = p - bbox.lo;
        [
            axis_index(rel.x, cell_size.x, dims[0]),
            axis_index(rel.y, cell_size.y, dims[1]),
            axis_index(rel.z, cell_size.z, dims[2]),
        ]
    }

    /// Voxel index of a point (clamped into the grid).
    #[inline]
    pub fn voxel_of(&self, p: Vec3) -> usize {
        let [i, j, k] = Self::clamp_index(&self.bbox, self.cell_size, self.dims, p);
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// Direct-hop seed: the unstructured cell to start the multi-hop
    /// search from for a particle at `p`.
    #[inline]
    pub fn locate(&self, p: Vec3) -> usize {
        self.cell_map[self.voxel_of(p)] as usize
    }

    /// Memory footprint of the overlay book-keeping in bytes — the
    /// "higher memory footprint required for bookkeeping" the paper
    /// attributes to direct-hop.
    pub fn memory_bytes(&self) -> usize {
        self.cell_map.len() * std::mem::size_of::<u32>()
    }
}

/// Voxel index along one axis of `n` voxels of size `s`, for offset
/// `x` from the grid's low corner, clamped into `0..n`. No `floor`: on
/// `x / s >= 0` truncation is floor, `max` sends negatives, NaN and
/// −∞ to 0, and the cast saturates +∞.
#[inline]
fn axis_index(x: f64, s: f64, n: usize) -> usize {
    if s <= 0.0 {
        return 0;
    }
    ((x / s).max(0.0) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_index_equals_the_floor_formula() {
        let floor = |x: f64, s: f64, n: usize| ((x / s).floor().max(0.0) as usize).min(n - 1);
        let s = 0.0625;
        let mut xs = vec![
            -1.0,
            -0.5 * s,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            1e300,
            -1e300,
            (u64::MAX as f64) * s,
        ];
        // Exact voxel boundaries and their neighbours on both sides.
        for k in 0..=40 {
            let b = k as f64 * s;
            xs.extend([b, b.next_down(), b.next_up(), -b, -b.next_up()]);
        }
        for n in [1, 2, 32] {
            for &x in &xs {
                assert_eq!(axis_index(x, s, n), floor(x, s, n), "x={x:e} n={n}");
            }
        }
    }

    #[test]
    fn overlay_seeds_are_valid_cells() {
        let mesh = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let ov = StructuredOverlay::build(&mesh, [6, 6, 6]);
        for &c in &ov.cell_map {
            assert!((c as usize) < mesh.n_cells());
        }
    }

    #[test]
    fn overlay_locates_interior_points_exactly_or_nearby() {
        let mesh = TetMesh::duct(4, 4, 4, 1.0, 1.0, 1.0);
        let ov = StructuredOverlay::build(&mesh, [12, 12, 12]);
        // Using resolution >= mesh resolution, a voxel-centre query for
        // a point *at* a voxel centre must return the containing cell.
        for k in 0..12 {
            for j in 0..12 {
                for i in 0..12 {
                    let p = Vec3::new(
                        (i as f64 + 0.5) / 12.0,
                        (j as f64 + 0.5) / 12.0,
                        (k as f64 + 0.5) / 12.0,
                    );
                    let seed = ov.locate(p);
                    // The seed must *contain* the point (points on
                    // shared faces may legitimately resolve to either
                    // incident cell).
                    let l = crate::geometry::barycentric(p, &mesh.cell_vertices(seed));
                    assert!(
                        crate::geometry::bary_inside(&l, 1e-9),
                        "point {p:?} not inside seed cell {seed}: {l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlay_out_of_box_clamps() {
        let mesh = TetMesh::duct(2, 2, 2, 1.0, 1.0, 1.0);
        let ov = StructuredOverlay::build(&mesh, [4, 4, 4]);
        // Far outside points clamp to boundary voxels and still return
        // a valid cell.
        let c = ov.locate(Vec3::new(55.0, -3.0, 0.5));
        assert!(c < mesh.n_cells());
    }

    #[test]
    fn memory_accounting() {
        let mesh = TetMesh::duct(2, 2, 2, 1.0, 1.0, 1.0);
        let ov = StructuredOverlay::build(&mesh, [10, 10, 10]);
        assert_eq!(ov.memory_bytes(), 1000 * 4);
    }
}
