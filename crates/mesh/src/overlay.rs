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

use crate::geometry::{bary_inside, barycentric, BoundingBox, Vec3};
use crate::tet::TetMesh;

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
    /// (containment test against candidate tets rasterised into the
    /// voxel grid, nearest-centroid fallback for voxels outside the
    /// mesh), so `locate` always returns a *valid* starting cell.
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
        let nvox = dims[0] * dims[1] * dims[2];

        // Rasterise each tet's bounding box into the voxel grid,
        // recording candidate cells per voxel; then resolve each voxel
        // centre by containment, falling back to nearest centroid.
        let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); nvox];
        for c in 0..mesh.n_cells() {
            let verts = mesh.cell_vertices(c);
            let tb = BoundingBox::of_points(verts.iter());
            let (lo, hi) = (
                Self::clamp_index(&bbox, cell_size, dims, tb.lo),
                Self::clamp_index(&bbox, cell_size, dims, tb.hi),
            );
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    for i in lo[0]..=hi[0] {
                        candidates[i + dims[0] * (j + dims[1] * k)].push(c as u32);
                    }
                }
            }
        }

        let mut cell_map = vec![u32::MAX; nvox];
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let v = i + dims[0] * (j + dims[1] * k);
                    let centre = Vec3::new(
                        bbox.lo.x + (i as f64 + 0.5) * cell_size.x,
                        bbox.lo.y + (j as f64 + 0.5) * cell_size.y,
                        bbox.lo.z + (k as f64 + 0.5) * cell_size.z,
                    );
                    // Exact containment among candidates.
                    let mut chosen = None;
                    for &c in &candidates[v] {
                        let l = barycentric(centre, &mesh.cell_vertices(c as usize));
                        if bary_inside(&l, 1e-12) {
                            chosen = Some(c);
                            break;
                        }
                    }
                    // Fallback: nearest candidate centroid, else global
                    // nearest (voxel fully outside the mesh).
                    let chosen = chosen.unwrap_or_else(|| {
                        let pool: Box<dyn Iterator<Item = u32>> = if candidates[v].is_empty() {
                            Box::new(0..mesh.n_cells() as u32)
                        } else {
                            Box::new(candidates[v].iter().copied())
                        };
                        pool.min_by(|&a, &b| {
                            let da = (mesh.cell_centroid(a as usize) - centre).norm2();
                            let db = (mesh.cell_centroid(b as usize) - centre).norm2();
                            da.partial_cmp(&db).unwrap()
                        })
                        .expect("mesh has no cells")
                    });
                    cell_map[v] = chosen;
                }
            }
        }

        StructuredOverlay {
            bbox,
            dims,
            cell_size,
            cell_map,
        }
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
