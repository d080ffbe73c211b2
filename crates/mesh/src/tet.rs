//! Tetrahedral duct mesh generator — the Mini-FEM-PIC domain.
//!
//! The paper's Mini-FEM-PIC runs on a tetrahedral mesh "forming a duct":
//! inlet faces on one end, a fixed-potential outer wall, particles
//! injected at the inlet and removed at the outlet. The reference
//! artifact ships these as HDF5/ASCII files; here we generate them
//! programmatically at any resolution (a documented substitution in
//! DESIGN.md) by laying down an `nx × ny × nz` grid of hexahedra over a
//! box and splitting every hexahedron into six conforming tetrahedra
//! (the Kuhn / Freudenthal subdivision, all six tets sharing the main
//! diagonal, which guarantees matching faces across hexahedron
//! boundaries).

use crate::connectivity::{build_c2c_from_faces, tet_faces};
use crate::geometry::{p1_gradients, tet_centroid, tet_signed_volume, BoundingBox, Vec3};

/// Classification of a boundary face of the duct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// `x == 0` plane: particles are injected here.
    Inlet,
    /// `x == Lx` plane: particles leaving through here are removed.
    Outlet,
    /// The four lateral walls, held at a fixed potential.
    Wall,
}

/// A boundary face record: owning cell, the local face index within
/// that cell (0..4, the face opposite local vertex `face`), and its
/// classification.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryFace {
    pub cell: usize,
    pub face: usize,
    pub nodes: [usize; 3],
    pub kind: BoundaryKind,
}

/// An unstructured tetrahedral mesh of a rectangular duct.
///
/// Connectivity follows the OP-PIC conventions: `c2n` is the
/// cells→nodes map (arity 4) and `c2c` the cells→cells map (arity 4,
/// `-1` marking a domain boundary), exactly the `opp_decl_map` payloads
/// of Figure 4 in the paper.
#[derive(Debug, Clone)]
pub struct TetMesh {
    /// Number of hex cells per axis used by the generator.
    pub dims: [usize; 3],
    /// Physical box extents.
    pub lengths: [f64; 3],
    /// Node coordinates.
    pub node_pos: Vec<Vec3>,
    /// Cells→nodes map, arity 4.
    pub c2n: Vec<[usize; 4]>,
    /// Cells→cells map, arity 4; entry `f` is the neighbour across the
    /// face opposite local vertex `f`, or `-1` on the boundary.
    pub c2c: Vec<[i32; 4]>,
    /// Classified boundary faces.
    pub boundary: Vec<BoundaryFace>,
    /// Signed volume per cell (all positive by construction).
    pub volume: Vec<f64>,
    /// Gradients of the four P1 basis functions per cell
    /// ("shape derivatives" in Mini-FEM-PIC, 4 × 3 values per cell).
    pub shape_deriv: Vec<[Vec3; 4]>,
    /// Nodes lying on the fixed-potential wall (Dirichlet set).
    pub wall_nodes: Vec<bool>,
    /// Node "volume" (sum of 1/4 of each adjacent tet volume) used to
    /// convert deposited charge to charge density.
    pub node_volume: Vec<f64>,
}

/// The six Kuhn tetrahedra of the unit cube, as corner indices into the
/// cube's 8 corners (bit k of the corner index = offset along axis k).
/// Every tet contains the main diagonal 0 → 7, making the subdivision
/// conforming across neighbouring cubes.
const KUHN_TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

impl TetMesh {
    /// Generate a duct mesh of `nx × ny × nz` hexahedra (so
    /// `6 * nx * ny * nz` tetrahedra) over the box
    /// `[0, lx] × [0, ly] × [0, lz]`.
    ///
    /// The paper's single-node runs use a 48 000-cell mesh; that is
    /// `TetMesh::duct(20, 20, 20, ...)` (6·8000 = 48 000 tets).
    pub fn duct(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "duct dims must be positive");
        let (px, py, pz) = (nx + 1, ny + 1, nz + 1);
        let node_id = |i: usize, j: usize, k: usize| i + px * (j + py * k);

        let mut node_pos = Vec::with_capacity(px * py * pz);
        for k in 0..pz {
            for j in 0..py {
                for i in 0..px {
                    node_pos.push(Vec3::new(
                        lx * i as f64 / nx as f64,
                        ly * j as f64 / ny as f64,
                        lz * k as f64 / nz as f64,
                    ));
                }
            }
        }
        // Note: node_id uses i-fastest ordering; the push order above is
        // also i-fastest, so the two agree.

        let mut c2n: Vec<[usize; 4]> = Vec::with_capacity(6 * nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    // Cube corner node ids; bit 0 → x, bit 1 → y, bit 2 → z.
                    let corner =
                        |c: usize| node_id(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
                    for tet in KUHN_TETS {
                        let mut nd = [
                            corner(tet[0]),
                            corner(tet[1]),
                            corner(tet[2]),
                            corner(tet[3]),
                        ];
                        // Orient positively.
                        let v = [
                            node_pos[nd[0]],
                            node_pos[nd[1]],
                            node_pos[nd[2]],
                            node_pos[nd[3]],
                        ];
                        if tet_signed_volume(v[0], v[1], v[2], v[3]) < 0.0 {
                            nd.swap(2, 3);
                        }
                        c2n.push(nd);
                    }
                }
            }
        }

        Self::from_cells(node_pos, c2n, [nx, ny, nz], [lx, ly, lz])
    }

    /// Build the full mesh (adjacency, boundary classification, geometry)
    /// from raw node positions and cell→node connectivity.
    pub fn from_cells(
        node_pos: Vec<Vec3>,
        c2n: Vec<[usize; 4]>,
        dims: [usize; 3],
        lengths: [f64; 3],
    ) -> Self {
        let ncells = c2n.len();
        let nnodes = node_pos.len();

        let (c2c, boundary_faces) = build_c2c_from_faces(&c2n);

        // Geometry.
        let mut volume = Vec::with_capacity(ncells);
        let mut shape_deriv = Vec::with_capacity(ncells);
        for nd in &c2n {
            let v = [
                node_pos[nd[0]],
                node_pos[nd[1]],
                node_pos[nd[2]],
                node_pos[nd[3]],
            ];
            let vol = tet_signed_volume(v[0], v[1], v[2], v[3]);
            debug_assert!(vol > 0.0, "negatively oriented tet");
            volume.push(vol);
            shape_deriv.push(p1_gradients(&v));
        }

        // Classify boundary faces by their centroid position.
        let [lx, _ly, _lz] = lengths;
        let eps = 1e-9 * lx.max(1.0);
        let mut boundary = Vec::with_capacity(boundary_faces.len());
        let mut wall_nodes = vec![false; nnodes];
        for (cell, face) in boundary_faces {
            let fnodes = tet_faces(&c2n[cell])[face];
            let cen =
                (node_pos[fnodes[0]] + node_pos[fnodes[1]] + node_pos[fnodes[2]]).scale(1.0 / 3.0);
            let kind = if cen.x.abs() < eps {
                BoundaryKind::Inlet
            } else if (cen.x - lx).abs() < eps {
                BoundaryKind::Outlet
            } else {
                BoundaryKind::Wall
            };
            if kind == BoundaryKind::Wall {
                for n in fnodes {
                    wall_nodes[n] = true;
                }
            }
            boundary.push(BoundaryFace {
                cell,
                face,
                nodes: fnodes,
                kind,
            });
        }

        // Lumped node volumes.
        let mut node_volume = vec![0.0; nnodes];
        for (c, nd) in c2n.iter().enumerate() {
            let q = volume[c] * 0.25;
            for &n in nd {
                node_volume[n] += q;
            }
        }

        TetMesh {
            dims,
            lengths,
            node_pos,
            c2n,
            c2c,
            boundary,
            volume,
            shape_deriv,
            wall_nodes,
            node_volume,
        }
    }

    pub fn n_cells(&self) -> usize {
        self.c2n.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.node_pos.len()
    }

    /// Vertex positions of cell `c`.
    #[inline]
    pub fn cell_vertices(&self, c: usize) -> [Vec3; 4] {
        let nd = self.c2n[c];
        [
            self.node_pos[nd[0]],
            self.node_pos[nd[1]],
            self.node_pos[nd[2]],
            self.node_pos[nd[3]],
        ]
    }

    /// Centroid of cell `c`.
    pub fn cell_centroid(&self, c: usize) -> Vec3 {
        tet_centroid(&self.cell_vertices(c))
    }

    /// Bounding box of the whole mesh.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of_points(self.node_pos.iter())
    }

    /// All inlet faces (for particle injection).
    pub fn inlet_faces(&self) -> impl Iterator<Item = &BoundaryFace> {
        self.boundary
            .iter()
            .filter(|f| f.kind == BoundaryKind::Inlet)
    }

    /// Consistency checks used by tests and by `io` after reading a
    /// mesh from disk. Returns a list of human-readable violations.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let nn = self.n_nodes();
        for (c, nd) in self.c2n.iter().enumerate() {
            for &n in nd {
                if n >= nn {
                    errs.push(format!("cell {c} references node {n} >= {nn}"));
                }
            }
            if self.volume[c] <= 0.0 {
                errs.push(format!(
                    "cell {c} has non-positive volume {}",
                    self.volume[c]
                ));
            }
        }
        // c2c symmetry: if a says b is a neighbour, b must list a.
        for (c, nb) in self.c2c.iter().enumerate() {
            for &m in nb {
                if m >= 0 {
                    let m = m as usize;
                    if !self.c2c[m].contains(&(c as i32)) {
                        errs.push(format!("c2c asymmetry: {c} -> {m} but not {m} -> {c}"));
                    }
                }
            }
        }
        // Every boundary face must belong to a cell with a -1 in c2c.
        for bf in &self.boundary {
            if self.c2c[bf.cell][bf.face] != -1 {
                errs.push(format!(
                    "boundary face of cell {} face {} has neighbour {}",
                    bf.cell, bf.face, self.c2c[bf.cell][bf.face]
                ));
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{bary_inside, barycentric};

    #[test]
    fn duct_counts() {
        let m = TetMesh::duct(3, 2, 2, 3.0, 2.0, 2.0);
        assert_eq!(m.n_cells(), 6 * 3 * 2 * 2);
        assert_eq!(m.n_nodes(), 4 * 3 * 3);
        assert!(m.validate().is_empty(), "{:?}", m.validate());
    }

    #[test]
    fn duct_volume_sums_to_box() {
        let m = TetMesh::duct(4, 3, 5, 2.0, 1.5, 2.5);
        let total: f64 = m.volume.iter().sum();
        assert!((total - 2.0 * 1.5 * 2.5).abs() < 1e-10, "total={total}");
    }

    #[test]
    fn duct_node_volume_sums_to_box() {
        let m = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let total: f64 = m.node_volume.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kuhn_subdivision_is_conforming() {
        // In a conforming mesh every interior face is shared by exactly
        // two tets, so for an n³ duct: #boundary faces = surface area
        // triangles = 2 faces/quad * (6n²) quads... just check via c2c:
        // each cell has 4 faces, boundary count must equal total faces
        // minus 2*interior.
        let m = TetMesh::duct(3, 3, 3, 1.0, 1.0, 1.0);
        let nbound = m.c2c.iter().flatten().filter(|&&x| x == -1).count();
        assert_eq!(nbound, m.boundary.len());
        // Surface of the cube: 6 faces * 9 quads * 2 triangles = 108.
        assert_eq!(nbound, 108);
    }

    #[test]
    fn boundary_classification() {
        let m = TetMesh::duct(4, 2, 2, 4.0, 1.0, 1.0);
        let inlets = m.inlet_faces().count();
        let outlets = m
            .boundary
            .iter()
            .filter(|f| f.kind == BoundaryKind::Outlet)
            .count();
        let walls = m
            .boundary
            .iter()
            .filter(|f| f.kind == BoundaryKind::Wall)
            .count();
        // x faces: ny*nz quads * 2 tris each per end.
        assert_eq!(inlets, 2 * 2 * 2);
        assert_eq!(outlets, 2 * 2 * 2);
        assert_eq!(walls, m.boundary.len() - inlets - outlets);
        // Inlet faces truly lie on x = 0.
        for f in m.inlet_faces() {
            for n in f.nodes {
                assert!(m.node_pos[n].x.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wall_nodes_marked() {
        let m = TetMesh::duct(2, 2, 2, 1.0, 1.0, 1.0);
        // A node in the middle of a lateral wall must be marked; an
        // interior node must not be.
        let wall_count = m.wall_nodes.iter().filter(|&&w| w).count();
        assert!(wall_count > 0);
        // Find the interior node (0.5, 0.5, 0.5).
        let interior = m
            .node_pos
            .iter()
            .position(|p| {
                (p.x - 0.5).abs() < 1e-12 && (p.y - 0.5).abs() < 1e-12 && (p.z - 0.5).abs() < 1e-12
            })
            .unwrap();
        assert!(!m.wall_nodes[interior]);
    }

    #[test]
    fn centroids_inside_their_cells() {
        let m = TetMesh::duct(2, 3, 2, 1.0, 1.0, 1.0);
        for c in 0..m.n_cells() {
            let l = barycentric(m.cell_centroid(c), &m.cell_vertices(c));
            assert!(bary_inside(&l, 1e-12));
        }
    }

    #[test]
    fn paper_mesh_size_formula() {
        // The paper's 48k-cell mesh: 20x20x20 hexes * 6 tets.
        let m = TetMesh::duct(4, 4, 4, 1.0, 1.0, 1.0); // scaled-down check
        assert_eq!(m.n_cells(), 6 * 64);
    }
}
