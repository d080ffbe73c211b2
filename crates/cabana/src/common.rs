//! Shared elemental kernels for both CabanaPIC implementations.
//!
//! Everything numerically meaningful lives here as pure functions
//! parameterised over *accessor closures* (neighbour lookup, field
//! read). The DSL version instantiates the accessors with explicit
//! integer-map lookups, the structured version with `(i,j,k)` index
//! arithmetic — the floating-point work is byte-for-byte identical, so
//! the two codes validate against each other to machine precision,
//! reproducing the paper's 1e-15 agreement with the original CabanaPIC.
//! The trilinear gather (`ShapeRow`) reads setup-time tables instead:
//! per-cell `CellGeo` and the [`stencil27`] rows, which the engine
//! builds once through the same neighbour accessor.

/// Grid geometry shared by both versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeom {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
}

impl GridGeom {
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        ]
    }

    #[inline]
    pub fn deltas(&self) -> [f64; 3] {
        [self.dx, self.dy, self.dz]
    }

    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    #[inline]
    pub fn cell_ijk(&self, c: usize) -> [usize; 3] {
        [
            c % self.nx,
            (c / self.nx) % self.ny,
            c / (self.nx * self.ny),
        ]
    }

    #[inline]
    pub fn cell_id(&self, ijk: [usize; 3]) -> usize {
        ijk[0] + self.nx * (ijk[1] + self.ny * ijk[2])
    }

    #[inline]
    pub fn cell_volume(&self) -> f64 {
        self.dx * self.dy * self.dz
    }

    /// Cell low corner along each axis.
    #[inline]
    pub fn cell_lo(&self, ijk: [usize; 3]) -> [f64; 3] {
        [
            ijk[0] as f64 * self.dx,
            ijk[1] as f64 * self.dy,
            ijk[2] as f64 * self.dz,
        ]
    }

    /// [`CellGeo`] of every cell, in cell order.
    pub(crate) fn cell_geo_table(&self) -> Vec<CellGeo> {
        (0..self.n_cells())
            .map(|c| {
                let ijk = self.cell_ijk(c);
                CellGeo {
                    ijk,
                    lo: self.cell_lo(ijk),
                }
            })
            .collect()
    }
}

/// Setup-time geometry of one cell: the values [`GridGeom::cell_ijk`]
/// and [`GridGeom::cell_lo`] return for it, stored so the mover does
/// no integer division per particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellGeo {
    pub(crate) ijk: [usize; 3],
    pub(crate) lo: [f64; 3],
}

/// Classical Boris rotation: advance velocity one full step under E
/// and B. `qm_half_dt = (q/m)·(dt/2)`.
#[inline]
pub fn boris_push(v: [f64; 3], e: [f64; 3], b: [f64; 3], qm_half_dt: f64) -> [f64; 3] {
    // Half electric kick.
    let vm = [
        v[0] + qm_half_dt * e[0],
        v[1] + qm_half_dt * e[1],
        v[2] + qm_half_dt * e[2],
    ];
    // Magnetic rotation.
    let t = [qm_half_dt * b[0], qm_half_dt * b[1], qm_half_dt * b[2]];
    let t2 = t[0] * t[0] + t[1] * t[1] + t[2] * t[2];
    let s = [
        2.0 * t[0] / (1.0 + t2),
        2.0 * t[1] / (1.0 + t2),
        2.0 * t[2] / (1.0 + t2),
    ];
    let vprime = [
        vm[0] + vm[1] * t[2] - vm[2] * t[1],
        vm[1] + vm[2] * t[0] - vm[0] * t[2],
        vm[2] + vm[0] * t[1] - vm[1] * t[0],
    ];
    let vp = [
        vm[0] + vprime[1] * s[2] - vprime[2] * s[1],
        vm[1] + vprime[2] * s[0] - vprime[0] * s[2],
        vm[2] + vprime[0] * s[1] - vprime[1] * s[0],
    ];
    // Second half electric kick.
    [
        vp[0] + qm_half_dt * e[0],
        vp[1] + qm_half_dt * e[1],
        vp[2] + qm_half_dt * e[2],
    ]
}

/// The 3×3×3 neighbourhood of `cell` (axis offsets −1/0/+1, index
/// `(sx+1) + 3(sy+1) + 9(sz+1)`), resolved by chained face-neighbour
/// hops in axis order x→y→z. The engine builds its `c2c27` stencil map
/// from this once at setup, so a trilinear corner reached by up to
/// three hops is one table read per particle.
pub fn stencil27<NB>(cell: usize, neighbor: NB) -> [usize; 27]
where
    NB: Fn(usize, usize, i32) -> usize,
{
    let mut out = [0usize; 27];
    for sz in -1i32..=1 {
        for sy in -1i32..=1 {
            for sx in -1i32..=1 {
                let mut c = cell;
                if sx != 0 {
                    c = neighbor(c, 0, sx);
                }
                if sy != 0 {
                    c = neighbor(c, 1, sy);
                }
                if sz != 0 {
                    c = neighbor(c, 2, sz);
                }
                out[((sx + 1) + 3 * (sy + 1) + 9 * (sz + 1)) as usize] = c;
            }
        }
    }
    out
}

/// One particle's trilinear (cloud-in-cell) shape row: the 8 corner
/// weights and the cells they read. Corner `k` moves one cell towards
/// the particle along every axis whose bit is set in `k`; its weight
/// is the product over x, y, z of `w` (bit set) or `1 − w`, `w` being
/// the particle's offset from the cell centre in cell units.
pub(crate) struct ShapeRow {
    pub(crate) weights: [f64; 8],
    pub(crate) cells: [usize; 8],
}

impl ShapeRow {
    /// The row of a particle at `pos` in the cell with geometry `home`
    /// and 3×3×3 stencil row `stencil` (see [`stencil27`]).
    #[inline]
    pub(crate) fn new(geom: &GridGeom, pos: [f64; 3], home: &CellGeo, stencil: &[u32; 27]) -> Self {
        let d = geom.deltas();
        // Offset from the cell centre in units of the cell size, in
        // [-0.5, 0.5]; the stencil index steps towards the particle.
        const STRIDE: [i32; 3] = [1, 3, 9];
        let mut w = [0.0f64; 3];
        let mut step = [0i32; 3];
        for a in 0..3 {
            let frac = (pos[a] - home.lo[a]) / d[a] - 0.5;
            step[a] = if frac >= 0.0 { STRIDE[a] } else { -STRIDE[a] };
            w[a] = frac.abs().min(1.0);
        }
        let mut weights = [0.0f64; 8];
        let mut cells = [0usize; 8];
        for (corner, (weight_out, cell_out)) in weights.iter_mut().zip(cells.iter_mut()).enumerate()
        {
            let mut idx = 13i32; // the centre of the stencil
            let mut weight = 1.0;
            for a in 0..3 {
                if corner >> a & 1 == 1 {
                    idx += step[a];
                    weight *= w[a];
                } else {
                    weight *= 1.0 - w[a];
                }
            }
            *weight_out = weight;
            *cell_out = stencil[idx as usize] as usize;
        }
        ShapeRow { weights, cells }
    }

    /// Apply the row to two cell-centred vector fields stored side by
    /// side (`[E, B]`, 6 values per cell; see [`pack_fields`]) in one
    /// corner loop: `Σ_corner w·field[cell]`, corners ascending. Each
    /// corner is one 48-byte row, and the six sums are independent
    /// lanes.
    #[inline]
    pub(crate) fn gather(&self, eb: &[[f64; 6]]) -> [[f64; 3]; 2] {
        let mut o = [0.0f64; 6];
        for (&weight, &c) in self.weights.iter().zip(&self.cells) {
            for (sum, f) in o.iter_mut().zip(&eb[c]) {
                *sum += weight * f;
            }
        }
        [[o[0], o[1], o[2]], [o[3], o[4], o[5]]]
    }
}

/// Pack two flat 3-vector cell fields into the side-by-side table
/// [`ShapeRow::gather`] reads: `eb[c] = [e[c], b[c]]`.
pub(crate) fn pack_fields(e: &[f64], b: &[f64], eb: &mut [[f64; 6]]) {
    for ((row, e), b) in eb.iter_mut().zip(e.chunks_exact(3)).zip(b.chunks_exact(3)) {
        row[..3].copy_from_slice(e);
        row[3..].copy_from_slice(b);
    }
}

/// Path-splitting move + per-cell residence fractions — the core of
/// `Move_Deposit` (Section 2, step 4: "in electromagnetic simulations,
/// the fields are generally assessed on each cell along the particle's
/// path of movement").
///
/// Advances `pos` by `vel·dt` through the periodic grid, calling
/// `deposit(cell, frac)` with the fraction of the step spent in each
/// visited cell (fractions sum to 1), and returning the final cell and
/// the number of cells visited. `ijk` is `cell`'s `(i,j,k)` (the
/// engine reads it from its setup-time cell table); `neighbor` supplies
/// periodic face-neighbours — the map lookup in the DSL version, index
/// arithmetic in the structured one.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn move_deposit_particle<NB, DEP>(
    geom: &GridGeom,
    pos: &mut [f64],
    vel: &[f64],
    cell: usize,
    mut ijk: [usize; 3],
    dt: f64,
    neighbor: NB,
    mut deposit: DEP,
) -> (usize, u32)
where
    NB: Fn(usize, usize, i32) -> usize,
    DEP: FnMut(usize, f64),
{
    let disp = [vel[0] * dt, vel[1] * dt, vel[2] * dt];
    let d = geom.deltas();
    let dims = geom.dims();
    let lengths = geom.lengths();
    let mut c = cell;
    let mut remaining = 1.0f64;
    let mut visited = 0u32;
    // A particle respecting CFL crosses at most ~2 faces per axis per
    // step; 64 guards against degenerate inputs.
    const MAX_SEGMENTS: u32 = 64;

    loop {
        visited += 1;
        // Fraction of the *whole* step until the first face crossing:
        // per axis the time to the face ahead, the earliest picked with
        // selects rather than branches. A zero or NaN displacement
        // never wins (its `t` is +∞ or NaN), as when it was skipped.
        let lo = geom.cell_lo(ijk);
        let mut t_exit = f64::INFINITY;
        let mut axis = usize::MAX;
        for a in 0..3 {
            let face = if disp[a] > 0.0 { lo[a] + d[a] } else { lo[a] };
            let t = (face - pos[a]) / disp[a];
            let t = if disp[a] == 0.0 { f64::INFINITY } else { t };
            let earlier = t < t_exit;
            t_exit = if earlier { t } else { t_exit };
            axis = if earlier { a } else { axis };
        }
        let t_exit = t_exit.max(0.0);

        if t_exit >= remaining || axis == usize::MAX || visited >= MAX_SEGMENTS {
            // Finish inside this cell.
            deposit(c, remaining);
            pos[0] += disp[0] * remaining;
            pos[1] += disp[1] * remaining;
            pos[2] += disp[2] * remaining;
            break;
        }

        // Spend `t_exit` here, then cross `axis`.
        deposit(c, t_exit);
        pos[0] += disp[0] * t_exit;
        pos[1] += disp[1] * t_exit;
        pos[2] += disp[2] * t_exit;
        remaining -= t_exit;

        let dir = if disp[axis] > 0.0 { 1i32 } else { -1i32 };
        c = neighbor(c, axis, dir);
        if dir > 0 {
            // Snap exactly onto the face; wrap if we left the domain.
            pos[axis] = lo[axis] + d[axis];
            ijk[axis] += 1;
            if ijk[axis] == dims[axis] {
                ijk[axis] = 0;
                pos[axis] -= lengths[axis];
            }
        } else {
            pos[axis] = lo[axis];
            if ijk[axis] == 0 {
                ijk[axis] = dims[axis] - 1;
                pos[axis] += lengths[axis];
            } else {
                ijk[axis] -= 1;
            }
        }
        debug_assert_eq!(geom.cell_id(ijk), c, "map and geometry disagree");
    }

    (c, visited)
}

/// Forward-difference curl component update for `AdvanceB`:
/// `B ← B − dt·∇×E` with `∂/∂a` as `(E[a+1] − E[c]) / d_a`.
#[inline]
pub fn advance_b_cell<NB, G>(geom: &GridGeom, c: usize, neighbor: NB, get_e: G, dt: f64) -> [f64; 3]
where
    NB: Fn(usize, usize, i32) -> usize,
    G: Fn(usize) -> [f64; 3],
{
    let e = get_e(c);
    let exp = get_e(neighbor(c, 0, 1));
    let eyp = get_e(neighbor(c, 1, 1));
    let ezp = get_e(neighbor(c, 2, 1));
    let inv = [1.0 / geom.dx, 1.0 / geom.dy, 1.0 / geom.dz];
    // curl(E)_x = dEz/dy - dEy/dz, etc., forward differences.
    let curl = [
        (eyp[2] - e[2]) * inv[1] - (ezp[1] - e[1]) * inv[2],
        (ezp[0] - e[0]) * inv[2] - (exp[2] - e[2]) * inv[0],
        (exp[1] - e[1]) * inv[0] - (eyp[0] - e[0]) * inv[1],
    ];
    [-dt * curl[0], -dt * curl[1], -dt * curl[2]]
}

/// Backward-difference curl update for `AdvanceE`:
/// `E ← E + dt·(∇×B − J)` with `∂/∂a` as `(B[c] − B[a−1]) / d_a`.
#[inline]
pub fn advance_e_cell<NB, G>(
    geom: &GridGeom,
    c: usize,
    neighbor: NB,
    get_b: G,
    j: [f64; 3],
    dt: f64,
) -> [f64; 3]
where
    NB: Fn(usize, usize, i32) -> usize,
    G: Fn(usize) -> [f64; 3],
{
    let b = get_b(c);
    let bxm = get_b(neighbor(c, 0, -1));
    let bym = get_b(neighbor(c, 1, -1));
    let bzm = get_b(neighbor(c, 2, -1));
    let inv = [1.0 / geom.dx, 1.0 / geom.dy, 1.0 / geom.dz];
    let curl = [
        (b[2] - bym[2]) * inv[1] - (b[1] - bzm[1]) * inv[2],
        (b[0] - bzm[0]) * inv[2] - (b[2] - bxm[2]) * inv[0],
        (b[1] - bxm[1]) * inv[0] - (b[0] - bym[0]) * inv[1],
    ];
    [
        dt * (curl[0] - j[0]),
        dt * (curl[1] - j[1]),
        dt * (curl[2] - j[2]),
    ]
}

/// Deterministic two-stream initial condition, identical for both
/// versions: `ppc` particles per cell on a low-discrepancy lattice,
/// alternating beam direction ±v0 along x, with a sinusoidal velocity
/// perturbation seeding `modes` wavelengths across the box. Returns
/// `(pos, vel, cell, weight)`.
pub fn init_two_stream(
    geom: &GridGeom,
    ppc: usize,
    v0: f64,
    perturbation: f64,
    modes: usize,
) -> (Vec<f64>, Vec<f64>, Vec<i32>, f64) {
    assert!(
        ppc >= 2 && ppc.is_multiple_of(2),
        "ppc must be even (two beams)"
    );
    let n_cells = geom.n_cells();
    let n = n_cells * ppc;
    let mut pos = Vec::with_capacity(n * 3);
    let mut vel = Vec::with_capacity(n * 3);
    let mut cell = Vec::with_capacity(n);
    let lx = geom.lengths()[0];
    let k = 2.0 * std::f64::consts::PI * modes as f64 / lx;
    // Unit density: each macro-particle carries cell_volume/ppc of
    // charge-mass weight.
    let weight = geom.cell_volume() / ppc as f64;

    // Golden-ratio lattice fractions (deterministic, well spread).
    const PHI1: f64 = 0.754_877_666_246_693;
    const PHI2: f64 = 0.569_840_290_998_053_3;
    const PHI3: f64 = 0.401_861_864_295_503_7;

    for c in 0..n_cells {
        let ijk = geom.cell_ijk(c);
        let lo = geom.cell_lo(ijk);
        for p in 0..ppc {
            let s = (c * ppc + p) as f64;
            let fx = (s * PHI1).fract();
            let fy = (s * PHI2 + 0.5).fract();
            let fz = (s * PHI3 + 0.25).fract();
            let x = lo[0] + fx * geom.dx;
            let y = lo[1] + fy * geom.dy;
            let z = lo[2] + fz * geom.dz;
            pos.extend_from_slice(&[x, y, z]);
            let beam = if p % 2 == 0 { 1.0 } else { -1.0 };
            let vx = beam * v0 + perturbation * v0 * (k * x).sin();
            vel.extend_from_slice(&[vx, 0.0, 0.0]);
            cell.push(c as i32);
        }
    }
    (pos, vel, cell, weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> GridGeom {
        GridGeom {
            nx: 4,
            ny: 3,
            nz: 5,
            dx: 0.25,
            dy: 0.5,
            dz: 0.2,
        }
    }

    /// Arithmetic periodic neighbour (oracle).
    fn arith_neighbor(g: &GridGeom) -> impl Fn(usize, usize, i32) -> usize + '_ {
        move |c, axis, dir| {
            let mut ijk = g.cell_ijk(c);
            let n = g.dims()[axis] as i64;
            ijk[axis] = ((ijk[axis] as i64 + dir as i64).rem_euclid(n)) as usize;
            g.cell_id(ijk)
        }
    }

    /// Reference trilinear (cloud-in-cell) gather of a cell-centred
    /// vector field at a particle position, resolving every corner by
    /// chained face-neighbour hops.
    ///
    /// `neighbor(cell, axis, dir)` must return the periodic face neighbour
    /// (`dir = ±1`); `get(cell)` the field triple of a cell.
    fn gather_trilinear<NB, G>(
        geom: &GridGeom,
        pos: [f64; 3],
        cell: usize,
        neighbor: NB,
        get: G,
    ) -> [f64; 3]
    where
        NB: Fn(usize, usize, i32) -> usize,
        G: Fn(usize) -> [f64; 3],
    {
        let ijk = geom.cell_ijk(cell);
        let lo = geom.cell_lo(ijk);
        let d = geom.deltas();
        // Offset from the cell centre in units of the cell size, in
        // [-0.5, 0.5].
        let mut w = [0.0f64; 3];
        let mut dir = [1i32; 3];
        for a in 0..3 {
            let frac = (pos[a] - lo[a]) / d[a] - 0.5;
            dir[a] = if frac >= 0.0 { 1 } else { -1 };
            w[a] = frac.abs().min(1.0);
        }
        let mut out = [0.0f64; 3];
        for corner in 0..8usize {
            let mut c = cell;
            let mut weight = 1.0;
            for a in 0..3 {
                if corner >> a & 1 == 1 {
                    c = neighbor(c, a, dir[a]);
                    weight *= w[a];
                } else {
                    weight *= 1.0 - w[a];
                }
            }
            let f = get(c);
            out[0] += weight * f[0];
            out[1] += weight * f[1];
            out[2] += weight * f[2];
        }
        out
    }

    #[test]
    fn boris_zero_fields_is_identity() {
        let v = [0.3, -0.2, 0.1];
        let out = boris_push(v, [0.0; 3], [0.0; 3], 0.05);
        assert_eq!(out, v);
    }

    #[test]
    fn boris_pure_e_is_linear_acceleration() {
        let out = boris_push([0.0; 3], [2.0, 0.0, 0.0], [0.0; 3], 0.25);
        // Two half kicks: Δv = 2 * qm_half_dt * E.
        assert!((out[0] - 1.0).abs() < 1e-15);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn boris_pure_b_conserves_speed() {
        let v = [0.3, 0.1, -0.2];
        let speed2 = v.iter().map(|x| x * x).sum::<f64>();
        let out = boris_push(v, [0.0; 3], [0.0, 0.0, 1.5], 0.3);
        let speed2_out = out.iter().map(|x| x * x).sum::<f64>();
        assert!((speed2 - speed2_out).abs() < 1e-14, "|v| must be conserved");
        assert!(out != v, "rotation must actually rotate");
    }

    #[test]
    fn gather_uniform_field_is_exact() {
        let g = geom();
        let nb = arith_neighbor(&g);
        let f = gather_trilinear(&g, [0.13, 0.71, 0.59], 0, &nb, |_| [3.0, -1.0, 0.5]);
        for (a, want) in f.iter().zip([3.0, -1.0, 0.5]) {
            assert!((a - want).abs() < 1e-14);
        }
    }

    #[test]
    fn gather_at_cell_centre_reads_only_that_cell() {
        let g = geom();
        let nb = arith_neighbor(&g);
        let centre = [0.125, 0.25, 0.1]; // centre of cell 0
        let f = gather_trilinear(&g, centre, 0, &nb, |c| {
            if c == 0 {
                [7.0, 7.0, 7.0]
            } else {
                [100.0, 100.0, 100.0]
            }
        });
        for a in f {
            assert!((a - 7.0).abs() < 1e-12, "{a}");
        }
    }

    #[test]
    fn gather_weights_sum_to_one() {
        let g = geom();
        let nb = arith_neighbor(&g);
        // Linear-in-x field: gather must reproduce linear interpolation
        // between neighbouring centres.
        let get = |c: usize| {
            let ijk = g.cell_ijk(c);
            [ijk[0] as f64, 0.0, 0.0]
        };
        // Point 3/4 through cell 1 along x: between centres of cell 1
        // (x idx 1) and cell 2 -> expect 1.25.
        let p = [0.25 + 0.75 * 0.25, 0.25, 0.1];
        let f = gather_trilinear(&g, p, 1, &nb, get);
        assert!((f[0] - 1.25).abs() < 1e-12, "{}", f[0]);
    }

    #[test]
    fn move_within_cell_deposits_everything_there() {
        let g = geom();
        let nb = arith_neighbor(&g);
        let mut pos = [0.05, 0.05, 0.05];
        let vel = [0.1, 0.0, 0.0];
        let mut deposits = Vec::new();
        let (c, visited) = move_deposit_particle(
            &g,
            &mut pos,
            &vel,
            0,
            g.cell_ijk(0),
            0.5,
            &nb,
            |cell, frac| {
                deposits.push((cell, frac));
            },
        );
        assert_eq!(c, 0);
        assert_eq!(visited, 1);
        assert_eq!(deposits, vec![(0, 1.0)]);
        assert!((pos[0] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn move_across_cells_splits_fractions() {
        let g = geom();
        let nb = arith_neighbor(&g);
        // Start mid cell 0, move exactly one cell width along +x.
        let mut pos = [0.125, 0.25, 0.1];
        let vel = [0.25, 0.0, 0.0];
        let mut deposits = Vec::new();
        let (c, visited) = move_deposit_particle(
            &g,
            &mut pos,
            &vel,
            0,
            g.cell_ijk(0),
            1.0,
            &nb,
            |cell, frac| {
                deposits.push((cell, frac));
            },
        );
        assert_eq!(c, 1);
        assert_eq!(visited, 2);
        // Half the step in cell 0, half in cell 1.
        assert_eq!(deposits.len(), 2);
        assert!((deposits[0].1 - 0.5).abs() < 1e-12);
        assert!((deposits[1].1 - 0.5).abs() < 1e-12);
        let total: f64 = deposits.iter().map(|d| d.1).sum();
        assert!((total - 1.0).abs() < 1e-12, "fractions sum to 1");
    }

    #[test]
    fn move_wraps_periodically() {
        let g = geom();
        let nb = arith_neighbor(&g);
        // Start near the +x end moving right: wraps into cell 0 column.
        let mut pos = [0.95, 0.25, 0.1];
        let vel = [0.2, 0.0, 0.0];
        let (c, _) =
            move_deposit_particle(&g, &mut pos, &vel, 3, g.cell_ijk(3), 1.0, &nb, |_, _| {});
        assert_eq!(g.cell_ijk(c)[0], 0);
        assert!(pos[0] >= 0.0 && pos[0] < 0.25, "wrapped x: {}", pos[0]);
        // And backwards through zero.
        let mut pos = [0.05, 0.25, 0.1];
        let vel = [-0.2, 0.0, 0.0];
        let (c, _) =
            move_deposit_particle(&g, &mut pos, &vel, 0, g.cell_ijk(0), 1.0, &nb, |_, _| {});
        assert_eq!(g.cell_ijk(c)[0], 3);
        assert!(pos[0] > 0.7, "wrapped x: {}", pos[0]);
    }

    #[test]
    fn move_diagonal_fraction_conservation() {
        let g = geom();
        let nb = arith_neighbor(&g);
        let mut pos = [0.24, 0.49, 0.19];
        let vel = [0.3, 0.3, 0.3];
        let mut total = 0.0;
        let (_, visited) = move_deposit_particle(
            &g,
            &mut pos,
            &vel,
            g.cell_id([0, 0, 0]),
            [0, 0, 0],
            0.5,
            &nb,
            |_, f| {
                total += f;
            },
        );
        assert!(visited >= 3, "diagonal crossing visits several cells");
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn curl_updates_cancel_for_uniform_fields() {
        let g = geom();
        let nb = arith_neighbor(&g);
        for c in 0..g.n_cells() {
            let db = advance_b_cell(&g, c, &nb, |_| [1.0, 2.0, 3.0], 0.1);
            assert_eq!(db, [0.0, 0.0, 0.0]);
            let de = advance_e_cell(&g, c, &nb, |_| [1.0, 2.0, 3.0], [0.0; 3], 0.1);
            assert_eq!(de, [0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn advance_e_applies_current() {
        let g = geom();
        let nb = arith_neighbor(&g);
        let de = advance_e_cell(&g, 0, &nb, |_| [0.0; 3], [2.0, 0.0, -1.0], 0.5);
        assert_eq!(de, [-1.0, 0.0, 0.5]);
    }

    #[test]
    fn init_two_stream_is_balanced() {
        let g = geom();
        let (pos, vel, cell, weight) = init_two_stream(&g, 8, 0.2, 0.0, 1);
        let n = g.n_cells() * 8;
        assert_eq!(pos.len(), n * 3);
        assert_eq!(vel.len(), n * 3);
        assert_eq!(cell.len(), n);
        assert!(weight > 0.0);
        // Zero net momentum without perturbation.
        let px: f64 = vel.chunks(3).map(|v| v[0]).sum();
        assert!(px.abs() < 1e-10 * n as f64);
        // Every particle inside its cell.
        for (i, ch) in pos.chunks(3).enumerate() {
            let ijk = g.cell_ijk(cell[i] as usize);
            let lo = g.cell_lo(ijk);
            assert!(ch[0] >= lo[0] && ch[0] < lo[0] + g.dx);
            assert!(ch[1] >= lo[1] && ch[1] < lo[1] + g.dy);
            assert!(ch[2] >= lo[2] && ch[2] < lo[2] + g.dz);
        }
    }

    /// The table gather (one [`ShapeRow`] over the [`stencil27`] rows,
    /// applied to two fields at once) against the chained
    /// [`gather_trilinear`] of each field, bit for bit — on every cell
    /// of a 4×3×5 box and of a box whose 1-wide and 2-wide axes make
    /// the ±1 neighbours coincide.
    #[test]
    fn table_gather_is_bit_identical_to_chained_gather() {
        let shapes = [
            geom(),
            GridGeom {
                nx: 1,
                ny: 2,
                nz: 3,
                dx: 0.5,
                dy: 1.0 / 3.0,
                dz: 0.2,
            },
        ];
        // Two deterministic fields distinguishing every cell.
        let fe = |c: usize| [c as f64, (c * c) as f64 * 0.125, -(c as f64) * 3.5];
        let fb = |c: usize| [c as f64 * 0.5, -(c as f64), (c * 7 % 11) as f64];
        for g in shapes {
            let nb = arith_neighbor(&g);
            let flat = |f: &dyn Fn(usize) -> [f64; 3]| -> Vec<f64> {
                (0..g.n_cells()).flat_map(f).collect()
            };
            let (e, b) = (flat(&fe), flat(&fb));
            let mut eb = vec![[0.0; 6]; g.n_cells()];
            pack_fields(&e, &b, &mut eb);
            for (cell, home) in g.cell_geo_table().iter().enumerate() {
                let stencil = stencil27(cell, &nb).map(|c| c as u32);
                let lo = home.lo;
                assert_eq!(home.ijk, g.cell_ijk(cell));
                assert_eq!(lo, g.cell_lo(g.cell_ijk(cell)));
                // Positions in all 8 octants of the cell plus the centre.
                for (fx, fy, fz) in [
                    (0.5, 0.5, 0.5),
                    (0.1, 0.2, 0.3),
                    (0.9, 0.8, 0.7),
                    (0.05, 0.95, 0.5),
                    (0.66, 0.01, 0.99),
                    (0.07, 0.93, 0.41),
                ] {
                    let p = [lo[0] + fx * g.dx, lo[1] + fy * g.dy, lo[2] + fz * g.dz];
                    let row = ShapeRow::new(&g, p, home, &stencil);
                    assert!(
                        (row.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12,
                        "partition of unity"
                    );
                    let [ge, gb] = row.gather(&eb);
                    assert_eq!(
                        ge,
                        gather_trilinear(&g, p, cell, &nb, fe),
                        "E: cell {cell} pos {p:?}"
                    );
                    assert_eq!(
                        gb,
                        gather_trilinear(&g, p, cell, &nb, fb),
                        "B: cell {cell} pos {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn init_perturbation_seeds_momentum_modulation() {
        let g = GridGeom {
            nx: 32,
            ny: 2,
            nz: 2,
            dx: 1.0 / 32.0,
            dy: 0.5,
            dz: 0.5,
        };
        let (pos, vel, _, _) = init_two_stream(&g, 4, 0.2, 0.1, 1);
        // Correlation between sin(kx) and vx perturbation must be
        // positive.
        let lx = 1.0;
        let k = 2.0 * std::f64::consts::PI / lx;
        let mut corr = 0.0;
        for (p, v) in pos.chunks(3).zip(vel.chunks(3)) {
            let beam_mean = 0.0; // beams cancel
            corr += (k * p[0]).sin() * (v[0] - beam_mean);
        }
        assert!(corr > 0.0);
    }
}
