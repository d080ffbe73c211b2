//! The cell-major overlay build against a voxel-major reference scan.
//!
//! The reference below is the straightforward build: gather every tet
//! whose bounding box covers each voxel, then resolve each voxel
//! centre by the first candidate (ascending) that contains it, falling
//! back to the nearest candidate centroid, else the nearest centroid
//! of all. [`StructuredOverlay::build`] must produce the same
//! `cell_map` bit for bit, ties on shared faces included.

use oppic_mesh::geometry::{bary_inside, barycentric, BoundingBox, Vec3};
use oppic_mesh::{StructuredOverlay, TetMesh};
use proptest::prelude::*;

/// How the reference resolved its voxels.
#[derive(Debug, Default)]
struct Paths {
    contained: usize,
    nearest_candidate: usize,
    nearest_global: usize,
}

fn axis_index(x: f64, s: f64, n: usize) -> usize {
    if s <= 0.0 {
        return 0;
    }
    ((x / s).max(0.0) as usize).min(n - 1)
}

/// The voxel-major reference scan.
fn reference_cell_map(mesh: &TetMesh, res: [usize; 3]) -> (Vec<u32>, Paths) {
    let bbox = mesh.bounding_box().inflated(1e-9);
    let dims = res.map(|r| r.max(1));
    let ext = bbox.extent();
    let size = Vec3::new(
        ext.x / dims[0] as f64,
        ext.y / dims[1] as f64,
        ext.z / dims[2] as f64,
    );
    let index = |p: Vec3| {
        let rel = p - bbox.lo;
        [
            axis_index(rel.x, size.x, dims[0]),
            axis_index(rel.y, size.y, dims[1]),
            axis_index(rel.z, size.z, dims[2]),
        ]
    };
    let nvox = dims[0] * dims[1] * dims[2];
    let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); nvox];
    for c in 0..mesh.n_cells() {
        let tb = BoundingBox::of_points(mesh.cell_vertices(c).iter());
        let (lo, hi) = (index(tb.lo), index(tb.hi));
        for k in lo[2]..=hi[2] {
            for j in lo[1]..=hi[1] {
                for i in lo[0]..=hi[0] {
                    candidates[i + dims[0] * (j + dims[1] * k)].push(c as u32);
                }
            }
        }
    }
    let nearest = |pool: &mut dyn Iterator<Item = u32>, centre: Vec3| {
        pool.min_by(|&a, &b| {
            let da = (mesh.cell_centroid(a as usize) - centre).norm2();
            let db = (mesh.cell_centroid(b as usize) - centre).norm2();
            da.partial_cmp(&db).unwrap()
        })
        .expect("mesh has no cells")
    };
    let mut paths = Paths::default();
    let mut cell_map = vec![u32::MAX; nvox];
    for k in 0..dims[2] {
        for j in 0..dims[1] {
            for i in 0..dims[0] {
                let v = i + dims[0] * (j + dims[1] * k);
                let centre = Vec3::new(
                    bbox.lo.x + (i as f64 + 0.5) * size.x,
                    bbox.lo.y + (j as f64 + 0.5) * size.y,
                    bbox.lo.z + (k as f64 + 0.5) * size.z,
                );
                let inside = candidates[v].iter().copied().find(|&c| {
                    bary_inside(&barycentric(centre, &mesh.cell_vertices(c as usize)), 1e-12)
                });
                cell_map[v] = match inside {
                    Some(c) => {
                        paths.contained += 1;
                        c
                    }
                    None if candidates[v].is_empty() => {
                        paths.nearest_global += 1;
                        nearest(&mut (0..mesh.n_cells() as u32), centre)
                    }
                    None => {
                        paths.nearest_candidate += 1;
                        nearest(&mut candidates[v].iter().copied(), centre)
                    }
                };
            }
        }
    }
    (cell_map, paths)
}

/// Build both ways, assert the same `cell_map`, and return the
/// reference's resolution paths.
fn assert_same_cell_map(mesh: &TetMesh, res: [usize; 3]) -> Paths {
    let ov = StructuredOverlay::build(mesh, res);
    let (want, paths) = reference_cell_map(mesh, res);
    assert_eq!(ov.cell_map.len(), want.len());
    let diff = ov.cell_map.iter().zip(&want).position(|(a, b)| a != b);
    assert!(
        diff.is_none(),
        "cell_map differs at voxel {diff:?} of {res:?} ({} cells)",
        mesh.n_cells()
    );
    paths
}

/// A small deterministic generator (SplitMix64) in `[0, 1)`.
fn unit_stream(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A duct whose interior nodes are moved by up to `amp` of the node
/// spacing along each axis; boundary nodes stay on the box.
fn jittered_duct(n: [usize; 3], len: [f64; 3], amp: f64, seed: u64) -> TetMesh {
    let base = TetMesh::duct(n[0], n[1], n[2], len[0], len[1], len[2]);
    let mut next = unit_stream(seed);
    let mut nodes = base.node_pos.clone();
    for p in &mut nodes {
        for a in 0..3 {
            let h = len[a] / n[a] as f64;
            let on_wall = p[a].abs() < 1e-12 || (p[a] - len[a]).abs() < 1e-12;
            if !on_wall {
                p[a] += amp * h * (2.0 * next() - 1.0);
            }
        }
    }
    let mesh = TetMesh::from_cells(nodes, base.c2n.clone(), base.dims, base.lengths);
    assert!(
        mesh.volume.iter().all(|&v| v > 0.0),
        "jitter inverted a tet"
    );
    mesh
}

/// The benchmark duct moved by `offset`, every node alike.
fn translated_duct(offset: Vec3) -> TetMesh {
    let base = TetMesh::duct(8, 8, 8, 2.0, 1.0, 1.0);
    let nodes = base.node_pos.iter().map(|&p| p + offset).collect();
    TetMesh::from_cells(nodes, base.c2n.clone(), base.dims, base.lengths)
}

/// A unit duct keeping only the tets whose centroid has `x + y < 1`:
/// a staircase of tets along the diagonal, whose bounding boxes reach
/// past the cut, and an empty half-box beyond them.
fn halved_duct(n: usize) -> TetMesh {
    let base = TetMesh::duct(n, n, n, 1.0, 1.0, 1.0);
    let keep: Vec<[usize; 4]> = (0..base.n_cells())
        .filter(|&c| {
            let m = base.cell_centroid(c);
            m.x + m.y < 1.0
        })
        .map(|c| base.c2n[c])
        .collect();
    TetMesh::from_cells(base.node_pos.clone(), keep, base.dims, base.lengths)
}

#[test]
fn benchmark_duct_at_32_cubed() {
    let mesh = TetMesh::duct(8, 8, 8, 2.0, 1.0, 1.0);
    let paths = assert_same_cell_map(&mesh, [32; 3]);
    assert_eq!(paths.contained, 32 * 32 * 32, "the duct fills its box");
}

#[test]
fn non_cubic_resolutions() {
    let mesh = TetMesh::duct(8, 8, 8, 2.0, 1.0, 1.0);
    for res in [[17, 9, 40], [1, 1, 1], [3, 64, 5], [40, 2, 17]] {
        assert_same_cell_map(&mesh, res);
    }
    let mesh = TetMesh::duct(3, 4, 2, 1.5, 0.7, 2.3);
    for res in [[40, 40, 40], [7, 11, 13]] {
        assert_same_cell_map(&mesh, res);
    }
}

#[test]
fn jittered_interior_nodes() {
    for (seed, res) in [(1, [24, 24, 24]), (2, [17, 9, 40]), (3, [11, 30, 7])] {
        let mesh = jittered_duct([6, 5, 7], [2.0, 1.0, 1.3], 0.2, seed);
        assert_same_cell_map(&mesh, res);
    }
}

/// Far from the origin the barycentric map's round-off grows with the
/// coordinates, so the prefilter margin is what keeps the build equal
/// to the reference there.
#[test]
fn ducts_far_from_the_origin() {
    let h = 0.25; // the duct's largest node spacing
    for (cells_out, res) in [(1e4, [32; 3]), (1e5, [17, 9, 40]), (1e6, [32; 3])] {
        let d = cells_out * h;
        let mesh = translated_duct(Vec3::new(d, -0.7 * d, 0.3 * d));
        let paths = assert_same_cell_map(&mesh, res);
        assert_eq!(paths.contained, res.iter().product::<usize>());
    }
}

#[test]
fn cells_that_do_not_fill_their_box_take_both_fallbacks() {
    let mesh = halved_duct(7);
    for res in [[32, 32, 32], [17, 9, 40]] {
        let paths = assert_same_cell_map(&mesh, res);
        assert!(paths.contained > 0, "{res:?}: {paths:?}");
        assert!(paths.nearest_candidate > 0, "{res:?}: {paths:?}");
        assert!(paths.nearest_global > 0, "{res:?}: {paths:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small ducts, optionally jittered, at any resolution: the same
    /// `cell_map` as the reference.
    #[test]
    fn cell_map_matches_the_reference(
        n in prop::array::uniform3(1usize..5),
        len in prop::array::uniform3(0.2f64..3.0),
        res in prop::array::uniform3(1usize..24),
        jitter in any::<bool>(),
        amp in 0.0f64..0.25,
        seed in any::<u64>(),
    ) {
        let mesh = jittered_duct(n, len, if jitter { amp } else { 0.0 }, seed);
        assert_same_cell_map(&mesh, res);
    }
}
