//! The shared CabanaPIC step engine.
//!
//! Both the DSL version ([`crate::dsl::CabanaPic`]) and the structured
//! baseline ([`crate::structured::StructuredCabana`]) are this engine
//! instantiated with a different [`Topology`]: the DSL resolves
//! neighbours by "reading an int mapping, whereas the Kokkos version
//! computes the next cell index directly" (the paper's own description
//! of the Figure 12 comparison). All floating-point work is shared, so
//! the two versions agree bit-for-bit under sequential execution.
//!
//! Both versions read the same setup-time tables in the `Move_Deposit`
//! gather: the 3×3×3 stencil map `c2c27` and the per-cell `(i,j,k)` and
//! low corner, built once in [`CabanaEngine::new`] through the
//! topology. The structured version keeps its index arithmetic in the
//! move's face crossings, the field updates and that setup.

use crate::common::{
    advance_b_cell, advance_e_cell, boris_push, init_two_stream, move_deposit_particle,
    pack_fields, stencil27, CellGeo, GridGeom, ShapeRow,
};
use crate::config::CabanaConfig;
use oppic_core::parloop::{par_loop, par_loop_scatter, Fixed, Space};
use oppic_core::{
    ColId, Dat, ExchangeDir, KernelClass, ParticleDats, Profiler, Tally, Telemetry, ThreadBinding,
};
use oppic_mpi::{Local, MigrationStats, Transport};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// How a version resolves periodic face-neighbours.
pub trait Topology: Sync {
    fn neighbor(&self, cell: usize, axis: usize, dir: i32) -> usize;
    fn name(&self) -> &'static str;
}

/// Per-step energy/diagnostic record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDiagnostics {
    pub step: usize,
    pub e_field: f64,
    pub b_field: f64,
    pub kinetic: f64,
    /// Mean cells visited per particle in Move_Deposit.
    pub mean_visited: f64,
}

impl EnergyDiagnostics {
    pub fn total(&self) -> f64 {
        self.e_field + self.b_field + self.kinetic
    }
}

/// Per-piece tallies of `Move_Deposit`, merged once per loop.
#[derive(Default)]
struct MoveTally {
    /// Cells visited (≥ 1 per particle).
    visited: u64,
    /// Particles whose final cell differs from their start cell.
    moved: u64,
}

impl Tally for MoveTally {
    fn merge(&mut self, other: MoveTally) {
        self.visited += other.visited;
        self.moved += other.moved;
    }
}

/// The CabanaPIC engine, generic over neighbour resolution.
pub struct CabanaEngine<T: Topology> {
    pub cfg: CabanaConfig,
    pub geom: GridGeom,
    pub topo: T,
    /// The 3×3×3 neighbourhood of every cell (index
    /// `(sx+1) + 3(sy+1) + 9(sz+1)`), resolved once at setup by
    /// [`stencil27`] through `topo`: the `Move_Deposit` gather reads
    /// each trilinear corner here instead of chaining up to three
    /// face-neighbour hops per particle.
    pub(crate) c2c27: Vec<[u32; 27]>,
    /// Per-cell `(i,j,k)` and low corner (see [`CellGeo`]).
    pub(crate) cell_geo: Vec<CellGeo>,
    /// Cell fields, dim 3 each — with the current accumulator that is
    /// the paper's "9 DOFs per cell".
    pub e: Dat,
    pub b: Dat,
    pub j: Dat,
    /// Interpolator copies (CabanaPIC's `Interpolate` stage stores
    /// field derivatives as interpolator values within cell data).
    interp_e: Dat,
    interp_b: Dat,
    /// `interp E` and `interp B` side by side, repacked by
    /// `Move_Deposit` so each gather corner is one row (see
    /// [`pack_fields`]); `Interpolate` keeps its two declared loops.
    interp_eb: Vec<[f64; 6]>,
    /// Current accumulator, 3 per cell. `Move_Deposit` increments it
    /// through the DSL's scatter-array strategy
    /// ([`oppic_core::scatter_pieces`]): exclusively in particle order
    /// on one piece, via private arrays reduced in piece order on
    /// several.
    acc: Vec<f64>,
    pub ps: ParticleDats,
    pub pos: ColId,
    pub vel: ColId,
    /// Macro-particle statistical weight.
    pub weight: f64,
    pub profiler: Profiler,
    /// When set (`--record-schedule`), every stage records its loop
    /// event here for the whole-step dataflow audit.
    pub schedule: Option<oppic_core::ScheduleRecorder>,
    step_no: usize,
    /// Last step's migration tally (all zero on one rank).
    pub last_migration: MigrationStats,
    /// Per-particle visited-cell counts from the last `Move_Deposit`
    /// (empty unless [`CabanaConfig::record_visits`] is set).
    pub last_visited: Vec<u32>,
    /// Persistent particle-thread binding (DESIGN.md §12): built on
    /// first use when `cfg.binding`, kept across steps, rebuilt only
    /// on [`oppic_core::RebalancePolicy`] triggers.
    pub binding: Option<ThreadBinding>,
}

impl<T: Topology> CabanaEngine<T> {
    pub fn new(cfg: CabanaConfig, topo: T) -> Self {
        let geom = GridGeom {
            nx: cfg.nx,
            ny: cfg.ny,
            nz: cfg.nz,
            dx: cfg.dx,
            dy: cfg.dy,
            dz: cfg.dz,
        };
        let n_cells = geom.n_cells();
        assert!(
            u32::try_from(n_cells).is_ok(),
            "{n_cells} cells do not fit the u32 stencil map"
        );
        let c2c27 = (0..n_cells)
            .map(|c| stencil27(c, |cc, a, d| topo.neighbor(cc, a, d)).map(|n| n as u32))
            .collect();
        let (pos_v, vel_v, cell_v, weight) =
            init_two_stream(&geom, cfg.ppc, cfg.v0, cfg.perturbation, cfg.modes);

        let mut ps = ParticleDats::new();
        let pos = ps.decl_dat("pos", 3);
        let vel = ps.decl_dat("vel", 3);
        // The 7th particle DOF of the paper: the statistical weight
        // (uniform here, still declared for layout parity).
        let w_col = ps.decl_dat("weight", 1);
        ps.inject_into(&cell_v);
        ps.col_mut(pos).copy_from_slice(&pos_v);
        ps.col_mut(vel).copy_from_slice(&vel_v);
        ps.col_mut(w_col).fill(weight);

        CabanaEngine {
            geom,
            topo,
            c2c27,
            cell_geo: geom.cell_geo_table(),
            e: Dat::zeros("E", n_cells, 3),
            b: Dat::zeros("B", n_cells, 3),
            j: Dat::zeros("J", n_cells, 3),
            interp_e: Dat::zeros("interp E", n_cells, 3),
            interp_b: Dat::zeros("interp B", n_cells, 3),
            interp_eb: vec![[0.0; 6]; n_cells],
            acc: vec![0.0; n_cells * 3],
            ps,
            pos,
            vel,
            weight,
            profiler: Profiler::default(),
            schedule: None,
            step_no: 0,
            last_migration: MigrationStats::default(),
            last_visited: Vec::new(),
            binding: None,
            cfg,
        }
    }

    /// Rebalance gate for the persistent binding: build on first use,
    /// afterwards only when [`CabanaConfig::rebalance`] fires on the
    /// drift estimate. A fresh CSR index yields cell-block-aligned
    /// spans; otherwise the split is uniform. No-op unless
    /// `cfg.binding`.
    fn rebalance_binding(&mut self) {
        if !self.cfg.binding {
            self.binding = None;
            return;
        }
        let len = self.ps.len();
        let rebuild = match &self.binding {
            None => true,
            Some(b) => self.cfg.rebalance.should_rebalance(
                self.step_no,
                b.drifted(len, self.ps.dirty_count()),
                len,
            ),
        };
        if rebuild {
            let workers = self.cfg.policy.threads().max(1);
            self.binding = Some(match self.ps.cell_index() {
                Some(cs) => ThreadBinding::from_cell_index(cs, workers),
                None => ThreadBinding::uniform(workers, len),
            });
        }
    }

    fn record_loop(&self, name: &str) {
        if let Some(rec) = &self.schedule {
            rec.record_loop(name);
        }
    }

    /// `Interpolate`: refresh the per-cell interpolator data from the
    /// live fields (a bandwidth-shaped copy, as in the original).
    pub fn interpolate(&mut self) {
        self.record_loop("Interpolate");
        let e = &self.e;
        par_loop(
            &self.cfg.policy,
            Space::Range,
            self.interp_e.col_fixed::<3>(),
            |win| win.each(|c, w| *w = *e.el_fixed(c)),
        );
        let b = &self.b;
        par_loop(
            &self.cfg.policy,
            Space::Range,
            self.interp_b.col_fixed::<3>(),
            |win| win.each(|c, w| *w = *b.el_fixed(c)),
        );
        let bytes = (self.geom.n_cells() * 6 * 8 * 2) as u64;
        self.profiler
            .telemetry()
            .add_traffic("Interpolate", bytes, 0);
    }

    /// `Move_Deposit`: gather fields at the particle (trilinear), Boris
    /// push, path-splitting move with per-cell current deposition —
    /// the single fused routine the paper describes.
    ///
    /// Each particle builds one trilinear shape row from its cell's
    /// setup-time `c2c27` row and geometry and applies it to both
    /// interpolator fields in one corner loop. The loop runs over the
    /// persistent binding or plain ranges.
    /// Relocations are counted and reported to
    /// [`ParticleDats::refine_dirty`], so dirty-fraction sort policies
    /// see the measured churn rather than the worst case.
    pub fn move_deposit(&mut self) -> u64 {
        self.record_loop("Move_Deposit");
        let geom = self.geom;
        let topo = &self.topo;
        let c2c27 = &self.c2c27;
        let cell_geo = &self.cell_geo;
        let dt = self.cfg.dt;
        let qm_half_dt = self.cfg.charge / self.cfg.mass * dt * 0.5;
        let q_w = self.cfg.charge * self.weight;
        pack_fields(
            self.interp_e.raw(),
            self.interp_b.raw(),
            &mut self.interp_eb,
        );
        let eb = &self.interp_eb;
        let acc = &mut self.acc;
        let visit_log: Vec<AtomicU32> = if self.cfg.record_visits {
            (0..self.ps.len()).map(|_| AtomicU32::new(0)).collect()
        } else {
            Vec::new()
        };

        // Gather, Boris push and path-splitting move of one particle.
        // Current goes into the piece's scatter array, the tallies into
        // the piece's own counters.
        let kernel = |target: &mut [f64],
                      tally: &mut MoveTally,
                      i: usize,
                      x: &mut [f64; 3],
                      v: &mut [f64; 3],
                      cl: &mut i32| {
            let c = *cl as usize;
            let home = &cell_geo[c];
            let row = ShapeRow::new(&geom, *x, home, &c2c27[c]);
            let [ef, bf] = row.gather(eb);
            let nv = boris_push(*v, ef, bf, qm_half_dt);
            *v = nv;
            let nb = |cc: usize, a: usize, d: i32| topo.neighbor(cc, a, d);
            let (final_cell, visited) =
                move_deposit_particle(&geom, x, &nv, c, home.ijk, dt, nb, |cell, frac| {
                    let a = &mut target[cell * 3..cell * 3 + 3];
                    a[0] += q_w * nv[0] * frac;
                    a[1] += q_w * nv[1] * frac;
                    a[2] += q_w * nv[2] * frac;
                });
            if final_cell != c {
                tally.moved += 1;
            }
            *cl = final_cell as i32;
            tally.visited += visited as u64;
            if let Some(slot) = visit_log.get(i) {
                slot.store(visited, Ordering::Relaxed);
            }
        };

        // The iteration space only cuts scatter pieces: the persistent
        // binding (the same worker moves the same particles step after
        // step) or plain ranges. Particle writes are element-local, so
        // pos/vel/cells are independent of the cut; the current is
        // reduced in piece order.
        let space = self.binding.as_ref().map_or(Space::Range, Space::Binding);
        let (pos, vel, cells) = self.ps.cols_mut2_with_cells_mut(self.pos, self.vel);
        let tally = par_loop_scatter(
            &self.cfg.policy,
            space,
            (Fixed::<3>(pos), Fixed::<3>(vel), cells),
            acc,
            |target, tally, w| w.each(|i, (x, v, cl)| kernel(target, tally, i, x, v, cl)),
        );
        self.ps.refine_dirty(tally.moved as usize);
        self.last_visited = visit_log.into_iter().map(AtomicU32::into_inner).collect();

        let n = self.ps.len() as u64;
        // pos/vel rw + deposit, plus the gather: 8 corners × 2 fields
        // × 24 B and one 108 B `c2c27` row per particle.
        let gather = n * (8 * 2 * 24 + 108);
        self.profiler.telemetry().add_traffic(
            "Move_Deposit",
            gather + n * (12 * 8 + 3 * 16 + 4),
            n * 230,
        );
        tally.visited
    }

    /// `AccumulateCurrent`: accumulator → current density
    /// (`J = Σ q·w·v·frac / V_cell`), then clear the accumulator.
    pub fn accumulate_current(&mut self) {
        self.record_loop("AccumulateCurrent");
        let inv_vol = 1.0 / self.geom.cell_volume();
        let acc = &self.acc;
        let col = self.j.col_fixed::<3>();
        par_loop(&self.cfg.policy, Space::Range, col, |win| {
            win.each(|c, w| {
                w[0] = acc[c * 3] * inv_vol;
                w[1] = acc[c * 3 + 1] * inv_vol;
                w[2] = acc[c * 3 + 2] * inv_vol;
            });
        });
        self.acc.fill(0.0);
        let bytes = (self.geom.n_cells() * 6 * 8) as u64;
        self.profiler.telemetry().add_traffic(
            "AccumulateCurrent",
            bytes,
            (self.geom.n_cells() * 3) as u64,
        );
    }

    /// `AdvanceB`: `B ← B − dt·∇×E` (forward differences).
    pub fn advance_b(&mut self) {
        self.record_loop("AdvanceB");
        let geom = self.geom;
        let topo = &self.topo;
        let e = &self.e;
        let dt = self.cfg.dt;
        let col = self.b.col_fixed::<3>();
        par_loop(&self.cfg.policy, Space::Range, col, |win| {
            win.each(|c, w| {
                let nb = |cc: usize, a: usize, d: i32| topo.neighbor(cc, a, d);
                let db = advance_b_cell(&geom, c, nb, |cc| *e.el_fixed(cc), dt);
                w[0] += db[0];
                w[1] += db[1];
                w[2] += db[2];
            });
        });
        let nc = self.geom.n_cells() as u64;
        self.profiler
            .telemetry()
            .add_traffic("AdvanceB", nc * (4 * 24 + 48), nc * 18);
    }

    /// `AdvanceE`: `E ← E + dt·(∇×B − J)` (backward differences).
    pub fn advance_e(&mut self) {
        self.record_loop("AdvanceE");
        let geom = self.geom;
        let topo = &self.topo;
        let b = &self.b;
        let j = &self.j;
        let dt = self.cfg.dt;
        let col = self.e.col_fixed::<3>();
        par_loop(&self.cfg.policy, Space::Range, col, |win| {
            win.each(|c, w| {
                let nb = |cc: usize, a: usize, d: i32| topo.neighbor(cc, a, d);
                let jj = j.el_fixed(c);
                let de = advance_e_cell(&geom, c, nb, |cc| *b.el_fixed(cc), *jj, dt);
                w[0] += de[0];
                w[1] += de[1];
                w[2] += de[2];
            });
        });
        let nc = self.geom.n_cells() as u64;
        self.profiler
            .telemetry()
            .add_traffic("AdvanceE", nc * (4 * 24 + 24 + 48), nc * 21);
    }

    /// `Update_Ghosts` on one rank: the periodic maps close the torus,
    /// so the span only keeps the breakdown's row.
    pub fn update_ghosts(&mut self) {
        let Ok(()) = self.ghost_update(&mut Local);
    }

    /// `Update_Ghosts` over `net`: sum the current accumulator over all
    /// ranks, the stand-in for the ghost exchange.
    fn ghost_update<N: Transport>(&mut self, net: &mut N) -> Result<(), N::Error> {
        let tel = self.profiler.telemetry();
        let _s = tel.span_class("Update_Ghosts", KernelClass::Comm);
        if let Some(rec) = &self.schedule {
            rec.record_exchange("acc", ExchangeDir::ReduceSum, "cabana/acc");
        }
        net.allreduce_sum(&mut self.acc)
    }

    /// One full leap-frog step on one rank. Returns diagnostics.
    pub fn step(&mut self) -> EnergyDiagnostics {
        let Ok(d) = self.step_over(&mut Local);
        d
    }

    /// One Figure 9(b) step over `net`: the one step body, for one rank
    /// ([`CabanaEngine::step`]) or many (DESIGN.md §7). Each stage is a
    /// `step>...` span; the step span closes with alive/energy gauges
    /// and counter deltas. Collective. On a transport error the step
    /// ends and the error returns mid-step.
    pub fn step_over<N: Transport>(&mut self, net: &mut N) -> Result<EnergyDiagnostics, N::Error> {
        self.step_no += 1;
        if let Some(rec) = &self.schedule {
            rec.begin_step();
        }
        let tel = self.profiler.telemetry().clone();
        let _cur = tel.make_current();
        tel.begin_step(self.step_no as u64);
        let diag = self.stages(&tel, net);
        match &diag {
            Ok(d) => tel.end_step(&[("alive", self.ps.len() as f64), ("total_energy", d.total())]),
            Err(_) => tel.end_step(&[]),
        }
        diag
    }

    /// The stages of [`CabanaEngine::step_over`], each under its span.
    fn stages<N: Transport>(
        &mut self,
        tel: &Arc<Telemetry>,
        net: &mut N,
    ) -> Result<EnergyDiagnostics, N::Error> {
        // Rebuild the CSR cell index when the policy says so, grouping
        // each cell's particles for this step's Move_Deposit.
        if self
            .cfg
            .sort_policy
            .should_sort(self.step_no, self.ps.dirty_count(), self.ps.len())
        {
            let _s = tel.span("SortParticles");
            self.ps.sort_by_cell(self.geom.n_cells());
        }

        // Binding rebalance gate: placed after the sort so a
        // just-rebuilt CSR index yields cell-block-aligned spans.
        self.rebalance_binding();

        {
            let _s = tel.span_class("Interpolate", KernelClass::WeightFields);
            self.interpolate();
        }

        let visited = {
            let _s = tel.span_class("Move_Deposit", KernelClass::Move);
            self.move_deposit()
        };
        self.ghost_update(net)?;

        {
            let _s = tel.span_class("AccumulateCurrent", KernelClass::Deposit);
            self.accumulate_current();
        }

        {
            let _s = tel.span_class("AdvanceB", KernelClass::FieldSolve);
            self.advance_b();
        }

        {
            let _s = tel.span_class("AdvanceE", KernelClass::FieldSolve);
            self.advance_e();
        }

        // On the y-slab partition the x-streaming beams rarely leave
        // their rank; the migration runs under the step span.
        if let Some(rec) = &self.schedule {
            rec.record_exchange("particles", ExchangeDir::Migrate, "cabana/migrate");
        }
        self.last_migration = net.migrate(&mut self.ps)?;

        let mut d = self.energies();
        d.mean_visited = visited as f64 / self.ps.len().max(1) as f64;
        Ok(d)
    }

    /// Run `n` steps, returning all diagnostics.
    pub fn run(&mut self, n: usize) -> Vec<EnergyDiagnostics> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Field and kinetic energies — the per-iteration validation
    /// quantity of Section 4 ("we validate the electric and magnetic
    /// field energy per iteration against ... the original").
    pub fn energies(&self) -> EnergyDiagnostics {
        let vol = self.geom.cell_volume();
        let quad = |d: &Dat| 0.5 * vol * d.raw().iter().map(|x| x * x).sum::<f64>();
        let kin = 0.5
            * self.cfg.mass
            * self.weight
            * self
                .ps
                .col(self.vel)
                .chunks(3)
                .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                .sum::<f64>();
        EnergyDiagnostics {
            step: self.step_no,
            e_field: quad(&self.e),
            b_field: quad(&self.b),
            kinetic: kin,
            mean_visited: 0.0,
        }
    }

    /// Every particle must sit inside its recorded cell and inside the
    /// periodic box.
    pub fn check_invariants(&self) -> Result<(), String> {
        let [lx, ly, lz] = self.geom.lengths();
        for i in 0..self.ps.len() {
            let p = self.ps.el(self.pos, i);
            if !(0.0..=lx).contains(&p[0])
                || !(0.0..=ly).contains(&p[1])
                || !(0.0..=lz).contains(&p[2])
            {
                return Err(format!("particle {i} out of box: {p:?}"));
            }
            let c = self.ps.cells()[i];
            if c < 0 || c as usize >= self.geom.n_cells() {
                return Err(format!("particle {i} invalid cell {c}"));
            }
            let ijk = self.geom.cell_ijk(c as usize);
            let lo = self.geom.cell_lo(ijk);
            let d = self.geom.deltas();
            for a in 0..3 {
                let tol = 1e-9 * d[a];
                if p[a] < lo[a] - tol || p[a] > lo[a] + d[a] + tol {
                    return Err(format!(
                        "particle {i} axis {a}: {p:?} not in cell {c} [{}, {}]",
                        lo[a],
                        lo[a] + d[a]
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn step_count(&self) -> usize {
        self.step_no
    }

    /// Write a restartable snapshot: step counter, fields, and the
    /// particle store. (The topology and initial condition are rebuilt
    /// from the config; the accumulator is transient — always empty
    /// between steps.)
    pub fn save_checkpoint<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let mut bw = oppic_core::BinWriter::new(w)?;
        bw.u64(self.step_no as u64)?;
        self.e.write_checkpoint(&mut bw)?;
        self.b.write_checkpoint(&mut bw)?;
        self.j.write_checkpoint(&mut bw)?;
        self.ps.write_checkpoint(&mut bw)?;
        bw.finish()?;
        Ok(())
    }

    /// Restore a snapshot written by
    /// [`CabanaEngine::save_checkpoint`] into an engine built with the
    /// same configuration.
    pub fn restore_checkpoint<R: std::io::Read>(&mut self, r: R) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let mut br = oppic_core::BinReader::new(r)?;
        let step_no = br.u64()? as usize;
        let e = Dat::read_checkpoint(&mut br)?;
        let b = Dat::read_checkpoint(&mut br)?;
        let j = Dat::read_checkpoint(&mut br)?;
        if e.len() != self.geom.n_cells() {
            return Err(Error::new(ErrorKind::InvalidData, "cell count mismatch"));
        }
        let ps = ParticleDats::read_checkpoint(&mut br)?;
        if ps.dofs() != self.ps.dofs() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "particle schema mismatch",
            ));
        }
        // Integrity gate: reject truncated or bit-flipped snapshots
        // before any engine state is touched.
        br.verify_footer()?;
        self.step_no = step_no;
        self.e = e;
        self.b = b;
        self.j = j;
        self.ps = ps;
        Ok(())
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use crate::config::CabanaConfig;
    use crate::structured::StructuredCabana;

    #[test]
    fn restart_is_bit_exact() {
        let cfg = CabanaConfig::tiny();
        let mut full = StructuredCabana::new_structured(cfg.clone());
        let full_diags = full.run(12);

        let mut first = StructuredCabana::new_structured(cfg.clone());
        first.run(7);
        let mut snap = Vec::new();
        first.save_checkpoint(&mut snap).unwrap();

        let mut resumed = StructuredCabana::new_structured(cfg);
        resumed.restore_checkpoint(snap.as_slice()).unwrap();
        assert_eq!(resumed.step_count(), 7);
        let tail = resumed.run(5);

        let d_full = full_diags.last().unwrap();
        let d_res = tail.last().unwrap();
        assert_eq!(
            d_full.e_field, d_res.e_field,
            "field energy bit-exact after restart"
        );
        assert_eq!(full.ps.col(full.pos), resumed.ps.col(resumed.pos));
        assert_eq!(full.e.raw(), resumed.e.raw());
    }

    #[test]
    fn restore_rejects_wrong_mesh() {
        let mut a = StructuredCabana::new_structured(CabanaConfig::tiny());
        a.run(2);
        let mut snap = Vec::new();
        a.save_checkpoint(&mut snap).unwrap();
        let mut other = CabanaConfig::tiny();
        other.nx *= 2;
        let mut b = StructuredCabana::new_structured(other);
        assert!(b.restore_checkpoint(snap.as_slice()).is_err());
    }
}

#[cfg(test)]
mod binding_tests {
    use crate::config::CabanaConfig;
    use crate::structured::StructuredCabana;
    use oppic_core::ExecPolicy;

    #[test]
    fn binding_mover_is_bit_identical_for_particle_state() {
        // Warm both engines up sequentially (bit-identical state),
        // then run one parallel step with and without the binding.
        // Particle writes are element-local, so pos/vel/cells must
        // agree bit for bit; the current is reduced over differently
        // cut scatter pieces and is not compared.
        let cfg = CabanaConfig::tiny(); // ExecPolicy::Seq
        let mut a = StructuredCabana::new_structured(cfg.clone());
        let mut b = StructuredCabana::new_structured(cfg);
        a.run(3);
        b.run(3);
        assert_eq!(a.ps.col(a.pos), b.ps.col(b.pos), "warmup in lockstep");
        a.cfg.policy = ExecPolicy::Par;
        b.cfg.policy = ExecPolicy::Par;
        b.cfg.binding = true;
        a.step();
        b.step();
        assert!(b.binding.is_some(), "binding must be built");
        assert!(a.binding.is_none());
        assert_eq!(a.ps.col(a.pos), b.ps.col(b.pos), "positions bit-exact");
        assert_eq!(a.ps.col(a.vel), b.ps.col(b.vel), "velocities bit-exact");
        assert_eq!(a.ps.cells(), b.ps.cells());
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn binding_survives_steps_and_rebalances_on_trigger() {
        let mut cfg = CabanaConfig::tiny();
        cfg.policy = ExecPolicy::Par;
        cfg.binding = true;
        cfg.rebalance = oppic_core::RebalancePolicy::EveryN(2);
        let mut sim = StructuredCabana::new_structured(cfg);
        sim.run(6);
        sim.check_invariants().unwrap();
        let rebuilds = sim.profiler.telemetry().counter("binding.rebalances");
        // First build (step 1) plus the EveryN fires at steps 2, 4, 6.
        assert_eq!(rebuilds, 4, "expected build + 3 rebalances");
    }
}

#[cfg(test)]
mod locality_tests {
    use crate::config::CabanaConfig;
    use crate::structured::StructuredCabana;
    use oppic_core::{ExecPolicy, SortPolicy};

    /// A per-step sort policy keeps the engine valid under the
    /// parallel executor, records its overhead, and the fused mover
    /// reports *measured* relocation counts back to the dirty tracker
    /// (not the worst-case "raw borrow = everything moved").
    #[test]
    fn per_step_sort_policy_runs_in_parallel() {
        let mut cfg = CabanaConfig::tiny();
        cfg.policy = ExecPolicy::Par;
        cfg.sort_policy = SortPolicy::EveryN(1);
        let mut sim = StructuredCabana::new_structured(cfg);
        sim.run(4);
        sim.check_invariants().unwrap();
        assert!(sim.profiler.telemetry().get("SortParticles").is_some());
        assert!(
            sim.ps.dirty_count() < sim.ps.len(),
            "measured churn, not the all-dirty worst case"
        );
    }
}
