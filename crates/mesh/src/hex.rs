//! Cuboid-cell mesh expressed through unstructured maps — the CabanaPIC
//! domain.
//!
//! The original CabanaPIC is a structured-mesh code; the paper ports it
//! to OP-PIC by *expressing* the structured topology through explicit
//! integer neighbour maps ("implemented with unstructured-mesh mappings
//! solving the same physics as the original", Section 4). This module
//! builds exactly those maps: a periodic box of `nx × ny × nz` cuboid
//! cells with
//!
//! * `c2c6` — the face-neighbour map (arity 6, order `[-x,+x,-y,+y,-z,+z]`),
//!   used by the FDTD field update (`AdvanceE` needs the `-` side,
//!   `AdvanceB` the `+` side), and
//! * `c2c27` — the full 3×3×3 neighbourhood (arity 27), used by the
//!   current accumulation step which gathers the accumulator from the
//!   cells a particle touched.
//!
//! Because the box is fully periodic there are no `-1` entries: the
//! maps are total.

use crate::geometry::{BoundingBox, Vec3};

/// Face-neighbour directions for [`HexMesh::c2c6`].
pub const XM: usize = 0;
pub const XP: usize = 1;
pub const YM: usize = 2;
pub const YP: usize = 3;
pub const ZM: usize = 4;
pub const ZP: usize = 5;

/// A periodic cuboid mesh with explicit (unstructured-style) maps.
#[derive(Debug, Clone)]
pub struct HexMesh {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Physical cell sizes.
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
    /// Face-neighbour map, arity 6, order `[-x,+x,-y,+y,-z,+z]`.
    pub c2c6: Vec<[i32; 6]>,
    /// Full 3×3×3 neighbourhood, arity 27; index
    /// `(di+1) + 3*(dj+1) + 9*(dk+1)` for offsets `di,dj,dk ∈ {-1,0,1}`.
    pub c2c27: Vec<[i32; 27]>,
}

impl HexMesh {
    /// Build the periodic box. The paper's CabanaPIC single-node runs
    /// use `nx=40, ny=40, nz=60` → 96 000 cells.
    pub fn periodic_box(nx: usize, ny: usize, nz: usize, dx: f64, dy: f64, dz: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "box dims must be positive");
        let n = nx * ny * nz;
        let mut c2c6 = vec![[0i32; 6]; n];
        let mut c2c27 = vec![[0i32; 27]; n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = i + nx * (j + ny * k);
                    let idx = |ii: isize, jj: isize, kk: isize| -> i32 {
                        let ii = ii.rem_euclid(nx as isize) as usize;
                        let jj = jj.rem_euclid(ny as isize) as usize;
                        let kk = kk.rem_euclid(nz as isize) as usize;
                        (ii + nx * (jj + ny * kk)) as i32
                    };
                    let (i, j, k) = (i as isize, j as isize, k as isize);
                    c2c6[c] = [
                        idx(i - 1, j, k),
                        idx(i + 1, j, k),
                        idx(i, j - 1, k),
                        idx(i, j + 1, k),
                        idx(i, j, k - 1),
                        idx(i, j, k + 1),
                    ];
                    for dk in -1isize..=1 {
                        for dj in -1isize..=1 {
                            for di in -1isize..=1 {
                                let slot = ((di + 1) + 3 * (dj + 1) + 9 * (dk + 1)) as usize;
                                c2c27[c][slot] = idx(i + di, j + dj, k + dk);
                            }
                        }
                    }
                }
            }
        }
        HexMesh {
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
            c2c6,
            c2c27,
        }
    }

    #[inline]
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Domain extents.
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        ]
    }

    pub fn bounding_box(&self) -> BoundingBox {
        let [lx, ly, lz] = self.lengths();
        BoundingBox {
            lo: Vec3::ZERO,
            hi: Vec3::new(lx, ly, lz),
        }
    }

    /// Linear cell id from (i, j, k).
    #[inline]
    pub fn cell_id(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// (i, j, k) from a linear cell id.
    #[inline]
    pub fn cell_ijk(&self, c: usize) -> (usize, usize, usize) {
        let i = c % self.nx;
        let j = (c / self.nx) % self.ny;
        let k = c / (self.nx * self.ny);
        (i, j, k)
    }

    /// Neighbour at offset `(di, dj, dk)` via the 27-map.
    #[inline]
    pub fn neighbor(&self, c: usize, di: isize, dj: isize, dk: isize) -> usize {
        debug_assert!((-1..=1).contains(&di) && (-1..=1).contains(&dj) && (-1..=1).contains(&dk));
        let slot = ((di + 1) + 3 * (dj + 1) + 9 * (dk + 1)) as usize;
        self.c2c27[c][slot] as usize
    }

    /// Low corner of cell `c`.
    #[inline]
    pub fn cell_origin(&self, c: usize) -> Vec3 {
        let (i, j, k) = self.cell_ijk(c);
        Vec3::new(i as f64 * self.dx, j as f64 * self.dy, k as f64 * self.dz)
    }

    /// Centroid of cell `c`.
    #[inline]
    pub fn cell_centroid(&self, c: usize) -> Vec3 {
        self.cell_origin(c) + Vec3::new(self.dx * 0.5, self.dy * 0.5, self.dz * 0.5)
    }

    /// The cell containing a (periodically wrapped) point.
    #[inline]
    pub fn locate(&self, p: Vec3) -> usize {
        let [lx, ly, lz] = self.lengths();
        let wrap = |x: f64, l: f64| x.rem_euclid(l);
        let i = ((wrap(p.x, lx) / self.dx) as usize).min(self.nx - 1);
        let j = ((wrap(p.y, ly) / self.dy) as usize).min(self.ny - 1);
        let k = ((wrap(p.z, lz) / self.dz) as usize).min(self.nz - 1);
        self.cell_id(i, j, k)
    }

    /// Validation used by tests: maps must be total, periodic and
    /// mutually inverse (`+x` of `-x` is identity).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let n = self.n_cells() as i32;
        for (c, nb) in self.c2c6.iter().enumerate() {
            for (d, &m) in nb.iter().enumerate() {
                if m < 0 || m >= n {
                    errs.push(format!("cell {c} dir {d}: neighbour {m} out of range"));
                }
            }
            // +x then -x returns to c.
            let xp = self.c2c6[c][XP] as usize;
            if self.c2c6[xp][XM] as usize != c {
                errs.push(format!("cell {c}: +x/-x not inverse"));
            }
            let yp = self.c2c6[c][YP] as usize;
            if self.c2c6[yp][YM] as usize != c {
                errs.push(format!("cell {c}: +y/-y not inverse"));
            }
            let zp = self.c2c6[c][ZP] as usize;
            if self.c2c6[zp][ZM] as usize != c {
                errs.push(format!("cell {c}: +z/-z not inverse"));
            }
            // Central entry of the 27-map is the cell itself.
            if self.c2c27[c][13] as usize != c {
                errs.push(format!("cell {c}: 27-map centre is not self"));
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_counts_and_valid() {
        let m = HexMesh::periodic_box(4, 3, 5, 1.0, 1.0, 1.0);
        assert_eq!(m.n_cells(), 60);
        assert!(m.validate().is_empty(), "{:?}", m.validate());
    }

    #[test]
    fn id_ijk_round_trip() {
        let m = HexMesh::periodic_box(4, 3, 5, 1.0, 1.0, 1.0);
        for c in 0..m.n_cells() {
            let (i, j, k) = m.cell_ijk(c);
            assert_eq!(m.cell_id(i, j, k), c);
        }
    }

    #[test]
    fn periodic_wraparound() {
        let m = HexMesh::periodic_box(4, 3, 5, 1.0, 1.0, 1.0);
        // -x neighbour of the i=0 column is the i=nx-1 column.
        let c = m.cell_id(0, 1, 2);
        assert_eq!(m.c2c6[c][XM] as usize, m.cell_id(3, 1, 2));
        let c = m.cell_id(3, 2, 4);
        assert_eq!(m.c2c6[c][XP] as usize, m.cell_id(0, 2, 4));
        assert_eq!(m.c2c6[c][YP] as usize, m.cell_id(3, 0, 4));
        assert_eq!(m.c2c6[c][ZP] as usize, m.cell_id(3, 2, 0));
    }

    #[test]
    fn c2c27_matches_neighbor_arithmetic() {
        let m = HexMesh::periodic_box(3, 3, 3, 1.0, 1.0, 1.0);
        for c in 0..m.n_cells() {
            let (i, j, k) = m.cell_ijk(c);
            for dk in -1isize..=1 {
                for dj in -1isize..=1 {
                    for di in -1isize..=1 {
                        let nb = m.neighbor(c, di, dj, dk);
                        let ii = (i as isize + di).rem_euclid(3) as usize;
                        let jj = (j as isize + dj).rem_euclid(3) as usize;
                        let kk = (k as isize + dk).rem_euclid(3) as usize;
                        assert_eq!(nb, m.cell_id(ii, jj, kk));
                    }
                }
            }
        }
    }

    #[test]
    fn locate_and_wrap() {
        let m = HexMesh::periodic_box(4, 4, 4, 0.5, 0.5, 0.5);
        assert_eq!(m.locate(Vec3::new(0.1, 0.1, 0.1)), m.cell_id(0, 0, 0));
        assert_eq!(m.locate(Vec3::new(1.9, 0.1, 0.1)), m.cell_id(3, 0, 0));
        // Outside the box wraps around.
        assert_eq!(m.locate(Vec3::new(2.1, 0.1, 0.1)), m.cell_id(0, 0, 0));
        assert_eq!(m.locate(Vec3::new(-0.1, 0.1, 0.1)), m.cell_id(3, 0, 0));
    }

    #[test]
    fn locate_centroids() {
        let m = HexMesh::periodic_box(5, 4, 3, 0.3, 0.7, 1.1);
        for c in 0..m.n_cells() {
            assert_eq!(m.locate(m.cell_centroid(c)), c);
        }
    }

    #[test]
    fn paper_mesh_size() {
        // nx=40, ny=40, nz=60 -> 96 000 cells (Section 4.1.1).
        let m = HexMesh::periodic_box(40, 40, 60, 1.0, 1.0, 1.0);
        assert_eq!(m.n_cells(), 96_000);
    }
}
