//! The Mini-FEM-PIC simulation driver: the DSL "science source".
//!
//! One step runs the PIC cycle of Figure 1 with the paper's kernel
//! split (Section 4.1.1): `Inject`, `CalcPosVel`, `Move`,
//! `DepositCharge`, then the field-solver group (`ComputeF1Vector` /
//! `SolvePotential` / `ComputeElectricField`; the `ComputeJMatrix`
//! assembly runs once because the mesh is static).

use crate::config::{FemPicConfig, Integrator, MoveStrategy};
use crate::fields::FemSolver;
use crate::stream::{uniforms, INJECT_TAG};
use oppic_core::move_engine::{move_loop, MoveConfig, MoveResult};
use oppic_core::parloop::{par_loop, Fixed, Space};
use oppic_core::{
    deposit_loop, deposit_loop_colored, greedy_color_cells, AutoTuner, ColId, Dat, DepositMethod,
    ExchangeDir, KernelClass, ParticleDats, Profiler, Telemetry, ThreadBinding, TunerInput,
};
use oppic_mesh::geometry::{
    bary_inside, bary_min_index, barycentric, barycentric_from_map, barycentric_map,
    sample_triangle,
};
use oppic_mesh::{StructuredOverlay, TetMesh, Vec3};
use oppic_mpi::{directional_partition, Local, MigrationStats, Transport};
use std::sync::Arc;

/// Tolerance for the barycentric containment test.
pub const BARY_TOL: f64 = 1e-10;

/// Per-step diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDiagnostics {
    pub step: usize,
    pub n_particles: usize,
    pub injected: usize,
    pub removed: usize,
    /// Total charge currently deposited on the nodes.
    pub total_charge: f64,
    /// CG iterations of the field solve: 0, since the replicated solve
    /// is two triangular sweeps (the benchmark still reads the field).
    pub cg_iterations: usize,
    /// Mean move-kernel visits per particle (1.0 = no hopping).
    pub mean_move_visits: f64,
}

/// An inlet face prepared for sampling.
#[derive(Debug, Clone, Copy)]
struct InletFace {
    cell: usize,
    v: [Vec3; 3],
    cumulative_area: f64,
}

/// The inlet faces in area-cumulative order, with a guide table that
/// finds the face a cumulative-area target falls on in a short scan.
#[derive(Debug)]
struct Inlets {
    faces: Vec<InletFace>,
    /// `guide[b]` is the face of target `b · total / len`, the start of
    /// the `b`-th of `len` equal slices of the total area.
    guide: Vec<u32>,
    /// `len / total`: a target's slice.
    scale: f64,
}

impl Inlets {
    fn new(faces: Vec<InletFace>) -> Self {
        assert!(!faces.is_empty(), "duct must have inlet faces");
        let m = faces.len();
        let total = faces[m - 1].cumulative_area;
        let exact = |t: f64| faces.partition_point(|f| f.cumulative_area < t).min(m - 1);
        let guide = (0..m)
            .map(|b| exact(total * b as f64 / m as f64) as u32)
            .collect();
        Inlets {
            faces,
            guide,
            scale: m as f64 / total,
        }
    }

    fn total_area(&self) -> f64 {
        self.faces[self.faces.len() - 1].cumulative_area
    }

    /// The first face whose cumulative area reaches `target`, or the
    /// last face: `partition_point(cumulative_area < target)` clamped
    /// to the table. The scan steps forward past faces below `target`
    /// and back over faces that already reach it, so the answer is
    /// exact whichever way the slice index rounds.
    #[inline]
    fn pick(&self, target: f64) -> usize {
        let last = self.faces.len() - 1;
        let cum = |f: usize| self.faces[f].cumulative_area;
        let mut f = self.guide[((target * self.scale) as usize).min(last)] as usize;
        while f < last && cum(f) < target {
            f += 1;
        }
        while f > 0 && cum(f - 1) >= target {
            f -= 1;
        }
        f
    }
}

/// The Mini-FEM-PIC application state.
pub struct FemPic {
    pub cfg: FemPicConfig,
    pub mesh: TetMesh,
    overlay: Option<StructuredOverlay>,
    /// Particle store: `pos` (3), `vel` (3), `lc` (4 barycentric
    /// weights, the "basis function weights" dat of Figure 4; written
    /// by the move for the final cell, read by the deposit).
    pub ps: ParticleDats,
    pub pos: ColId,
    pub vel: ColId,
    pub lc: ColId,
    /// Deposited charge per node (dim 1).
    pub node_charge: Dat,
    /// Per-cell electric field (dim 3).
    pub efield: Dat,
    /// Per-cell barycentric map (dim 16, the paper's per-cell
    /// determinant dat), lane-major: coefficient `j` of `λ_k` for cell
    /// `c` is element `4j + k` of its row, so `λ = A·[1, x, y, z]` is
    /// three 4-wide multiply-adds ([`barycentric_map`]). Built once; the
    /// mesh is static.
    pub cell_det: Dat,
    pub fem: FemSolver,
    pub profiler: Profiler,
    inlets: Inlets,
    /// Particles injected so far: the next injected particle's index
    /// in the [`INJECT_TAG`] stream.
    injected_total: u64,
    step_no: usize,
    /// Cell coloring for the colored deposit (built on demand).
    pub(crate) cell_colors: Option<(Vec<u32>, usize)>,
    /// Last move result (benchmark introspection).
    pub last_move: MoveResult,
    /// Last step's migration tally (all zero on one rank).
    pub last_migration: MigrationStats,
    /// Per-step deposit strategy selector (used when
    /// `cfg.auto_tune`); its decision log doubles as the trace source.
    pub tuner: AutoTuner,
    /// Particles removed by the numeric quarantine during the last
    /// step (0 unless `cfg.guard_numerics`); part of the removal flux
    /// the conformance harness balances.
    pub last_quarantined: usize,
    /// The deposit method the next `deposit_charge` will run — either
    /// `cfg.deposit` or the auto-tuner's last pick.
    pub(crate) active_deposit: DepositMethod,
    /// Schedule recorder for `--record-schedule`: when attached, each
    /// stage records its loop event (one `Option` check otherwise).
    pub schedule: Option<oppic_core::ScheduleRecorder>,
    /// Persistent particle-thread binding (DESIGN.md §12): built on
    /// first use when `cfg.binding`, kept across steps, rebuilt only
    /// on [`oppic_core::RebalancePolicy`] triggers.
    pub binding: Option<ThreadBinding>,
    /// Per-step rebalance-gate decisions (empty unless `cfg.binding`);
    /// the drift trace `results/BENCH_binding_drift.json` pins and
    /// the bench regression test replays.
    pub rebalance_log: Vec<oppic_core::RebalanceEvent>,
}

impl FemPic {
    /// Build the application: generate the duct, assemble the FEM
    /// system (`ComputeJMatrix`), prepare inlet sampling and, for
    /// direct-hop, the structured overlay.
    pub fn new(cfg: FemPicConfig) -> Self {
        let profiler = Profiler::default();
        let tel = profiler.telemetry();
        let mesh = {
            let _s = tel.span("GenerateMesh");
            TetMesh::duct(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly, cfg.lz)
        };
        let fem = {
            let _s = tel.span_class("ComputeJMatrix", KernelClass::FieldSolve);
            FemSolver::assemble(&mesh, cfg.wall_potential)
        };

        let overlay = match cfg.move_strategy {
            MoveStrategy::MultiHop => None,
            MoveStrategy::DirectHop { overlay_res } => {
                let _s = tel.span("BuildOverlay");
                Some(StructuredOverlay::build(&mesh, [overlay_res; 3]))
            }
        };

        let mut ps = ParticleDats::new();
        let pos = ps.decl_dat("pos", 3);
        let vel = ps.decl_dat("vel", 3);
        let lc = ps.decl_dat("lc", 4);

        // Area-cumulative inlet table.
        let mut inlets = Vec::new();
        let mut acc = 0.0;
        for bf in mesh.inlet_faces() {
            let v = [
                mesh.node_pos[bf.nodes[0]],
                mesh.node_pos[bf.nodes[1]],
                mesh.node_pos[bf.nodes[2]],
            ];
            let area = (v[1] - v[0]).cross(v[2] - v[0]).norm() * 0.5;
            acc += area;
            inlets.push(InletFace {
                cell: bf.cell,
                v,
                cumulative_area: acc,
            });
        }
        let inlets = Inlets::new(inlets);

        let node_charge = Dat::zeros("node charge", mesh.n_nodes(), 1);
        let efield = Dat::zeros("electric field", mesh.n_cells(), 3);
        let mut det = Vec::with_capacity(16 * mesh.n_cells());
        for c in 0..mesh.n_cells() {
            det.extend(barycentric_map(&mesh.shape_deriv[c], mesh.cell_centroid(c)));
        }
        let cell_det = Dat::from_vec("cell_det", 16, det);

        // The colored deposit needs a distance-2 coloring of cells over
        // the shared-node relation; build it once (the mesh is static).
        let cell_colors = cfg.coloring.then(|| {
            let _s = tel.span("ColorCells");
            let targets: Vec<Vec<usize>> = mesh.c2n.iter().map(|nd| nd.to_vec()).collect();
            greedy_color_cells(&targets, mesh.n_nodes())
        });

        let active_deposit = cfg.deposit;
        FemPic {
            cfg,
            mesh,
            overlay,
            ps,
            pos,
            vel,
            lc,
            node_charge,
            efield,
            cell_det,
            fem,
            profiler,
            inlets,
            injected_total: 0,
            step_no: 0,
            cell_colors,
            last_move: MoveResult::default(),
            last_migration: MigrationStats::default(),
            tuner: AutoTuner::default(),
            last_quarantined: 0,
            active_deposit,
            schedule: None,
            binding: None,
            rebalance_log: Vec::new(),
        }
    }

    /// Rank `rank`'s simulation in an `n_ranks` run, with the cell →
    /// rank map of the paper's directional partition: slabs along y,
    /// parallel to the x flow, so the steady stream rarely crosses a
    /// rank boundary (the "principal direction of motion" rationale).
    pub fn new_rank(base: &FemPicConfig, rank: usize, n_ranks: usize) -> (FemPic, Vec<u32>) {
        let sim = FemPic::new(base.rank_share(rank, n_ranks));
        let centroids: Vec<Vec3> = (0..sim.mesh.n_cells())
            .map(|c| sim.mesh.cell_centroid(c))
            .collect();
        let cell_rank = directional_partition(&centroids, 1, n_ranks);
        (sim, cell_rank)
    }

    /// Rebalance gate for the persistent binding: build on first use,
    /// afterwards only when [`FemPicConfig::rebalance`] fires on the
    /// drift estimate (cell mutations plus population change since the
    /// build). A fresh CSR index yields cell-block-aligned spans;
    /// otherwise the split is uniform. No-op unless `cfg.binding`.
    fn rebalance_binding(&mut self) {
        if !self.cfg.binding {
            self.binding = None;
            return;
        }
        let len = self.ps.len();
        let drifted = match &self.binding {
            None => len,
            Some(b) => b.drifted(len, self.ps.dirty_count()),
        };
        let rebuild = self.binding.is_none()
            || self
                .cfg
                .rebalance
                .should_rebalance(self.step_no, drifted, len);
        self.rebalance_log.push(oppic_core::RebalanceEvent {
            step: self.step_no,
            len,
            drifted,
            rebuilt: rebuild,
        });
        if rebuild {
            let workers = self.cfg.policy.threads().max(1);
            self.binding = Some(match self.ps.cell_index() {
                Some(cs) => ThreadBinding::from_cell_index(cs, workers),
                None => ThreadBinding::uniform(workers, len),
            });
        }
    }

    /// Record a loop event when a schedule recorder is attached.
    fn record_loop(&self, name: &str) {
        if let Some(rec) = &self.schedule {
            rec.record_loop(name);
        }
    }

    /// `Inject`: add `inject_per_step` macro-particles on inlet faces,
    /// sampled uniformly by area, moving at the inlet velocity (+x)
    /// with a small thermal jitter.
    ///
    /// A par loop over the injected slice. Particle `k` of the run's
    /// injections draws its six uniforms from the [`INJECT_TAG`]
    /// stream at index `k`, so the injected bits do not depend on the
    /// policy or on how the slice is cut.
    ///
    /// Public as a *stage* so a distributed or traced step can
    /// interleave communication or timing between stages;
    /// single-process users call [`FemPic::step`].
    pub fn inject(&mut self) -> usize {
        self.record_loop("Inject");
        let n = self.cfg.inject_per_step;
        let first = self.injected_total;
        self.injected_total += n as u64;
        self.ps.inject(n, 0);
        let (seed, inlets) = (self.cfg.seed, &self.inlets);
        let total_area = inlets.total_area();
        let speed = self.cfg.inlet_velocity;
        let jitter = speed * self.cfg.thermal_fraction;
        let nudge = Vec3::new(1e-7 * self.cfg.lx, 0.0, 0.0);
        let (pos, vel, cells) = self
            .ps
            .injected_cols_mut2_with_cells_mut(self.pos, self.vel);
        let cols = (Fixed::<3>(pos), Fixed::<3>(vel), cells);
        par_loop(&self.cfg.policy, Space::Range, cols, |w| {
            w.each(|k, (x, v, cell)| {
                let r: [f64; 6] = uniforms(seed, INJECT_TAG, first + k as u64);
                let face = &inlets.faces[inlets.pick(r[0] * total_area)];
                // Sample the face, shrink toward its centroid (stay off
                // the edges), then nudge inward along +x.
                let p = sample_triangle(face.v[0], face.v[1], face.v[2], [r[1], r[2]]);
                let cen = (face.v[0] + face.v[1] + face.v[2]).scale(1.0 / 3.0);
                let p = cen + (p - cen).scale(0.98) + nudge;
                *x = [p.x, p.y, p.z];
                v[0] = speed + jitter * (r[3] - 0.5);
                v[1] = jitter * (r[4] - 0.5);
                v[2] = jitter * (r[5] - 0.5);
                *cell = face.cell as i32;
            });
        });
        n
    }

    /// `CalcPosVel`: leap-frog under the per-cell electric field
    /// (electrostatic: the cell field is inherited directly, no
    /// separate weighting stage — exactly the paper's observation for
    /// Mini-FEM-PIC).
    pub fn calc_pos_vel(&mut self) {
        self.record_loop("CalcPosVel");
        let qm_dt = self.cfg.charge / self.cfg.mass * self.cfg.dt;
        let dt = self.cfg.dt;
        let ef = &self.efield;
        let integrator = self.cfg.integrator;
        let push = |e: &[f64; 3], x: &mut [f64; 3], v: &mut [f64; 3]| match integrator {
            Integrator::Leapfrog => {
                // kick, then drift with v^{n+1/2}.
                v[0] += qm_dt * e[0];
                v[1] += qm_dt * e[1];
                v[2] += qm_dt * e[2];
                x[0] += dt * v[0];
                x[1] += dt * v[1];
                x[2] += dt * v[2];
            }
            Integrator::VelocityVerlet => {
                // half kick, drift, half kick. The field is
                // constant per cell over the step (electro-
                // static), so both half kicks use e.
                v[0] += 0.5 * qm_dt * e[0];
                v[1] += 0.5 * qm_dt * e[1];
                v[2] += 0.5 * qm_dt * e[2];
                x[0] += dt * v[0];
                x[1] += dt * v[1];
                x[2] += dt * v[2];
                v[0] += 0.5 * qm_dt * e[0];
                v[1] += 0.5 * qm_dt * e[1];
                v[2] += 0.5 * qm_dt * e[2];
            }
        };
        let (pos, vel, cells) = self.ps.cols_mut2_with_cells(self.pos, self.vel);
        // Persistent binding: the same worker pushes the same particles
        // step after step (element-local writes, so bit-identical to the
        // unbound loop either way).
        let space = self.binding.as_ref().map_or(Space::Range, Space::Binding);
        let cols = (Fixed::<3>(pos), Fixed::<3>(vel));
        par_loop(&self.cfg.policy, space, cols, |w| {
            w.each(|i, (x, v)| push(ef.el_fixed(cells[i] as usize), x, v));
        });
        let bytes = (self.ps.len() * (3 + 3 + 3 + 3 + 3) * 8 + self.ps.len() * 4) as u64;
        let flops = (self.ps.len() * 12) as u64;
        self.profiler
            .telemetry()
            .add_traffic("CalcPosVel", bytes, flops);
    }

    /// `Move`: relocate every particle to the cell containing its new
    /// position and leave the final cell's barycentric weights in `lc`
    /// for the deposit. Every particle is first probed in its current
    /// cell; a miss walks on from there along `c2c` (multi-hop) or, with
    /// an overlay (direct-hop), takes one `c2c` hop and, only if that
    /// misses too, walks on from the overlay's cell for the new
    /// position. Each probe evaluates the cell's [`FemPic::cell_det`]
    /// map (three 4-wide multiply-adds) into `lc`; the exit leaves
    /// through the face opposite the most negative weight.
    /// Out-of-domain particles are removed (hole-filled).
    pub fn move_particles(&mut self) -> usize {
        self.record_loop("Move");
        let mesh = &self.mesh;
        let (det, _) = self.cell_det.raw().as_chunks::<16>();
        let n = self.ps.len() as u64;
        let (lc, pos, cells) = self.ps.cols_mut2_with_cells_mut(self.lc, self.pos);
        let (pos, _) = pos.as_chunks::<3>();
        let at = |i: usize| Vec3::from_slice(&pos[i]);
        let probe = |i: usize, cell: usize, l: &mut [f64; 4]| -> bool {
            *l = barycentric_from_map(&det[cell], at(i));
            bary_inside(l, BARY_TOL)
        };
        let exit = |_i: usize, cell: usize, l: &[f64; 4]| -> Option<usize> {
            usize::try_from(mesh.c2c[cell][bary_min_index(l)]).ok()
        };
        // Direct-hop: a particle that is in neither its cell nor the
        // neighbour one hop away walks on from the overlay's cell for
        // its new position.
        let locate = self.overlay.as_ref().map(|ov| move |i| ov.locate(at(i)));

        let mv_cfg = MoveConfig {
            record_chains: self.cfg.record_move_chains,
            // Feed the analyzer's map-invariant audit: final cells the
            // kernel reports are bounds-checked against the cell set.
            n_cells: Some(mesh.n_cells()),
            ..MoveConfig::default()
        };
        let seed = locate.as_ref().map(|f| f as _);
        let result = move_loop(
            &self.cfg.policy,
            mv_cfg,
            cells,
            seed,
            Fixed(lc),
            probe,
            exit,
        );

        // Traffic: per visit pos(24), the cell's map(128) and the lc
        // write(32), per hop a c2c entry(16), per seeded particle its
        // overlay cell-map entry(4).
        let hops = result.total_visits - n;
        let bytes = result.total_visits * (24 + 128 + 32) + hops * 16 + result.seeded * 4;
        let flops = result.total_visits * 24;
        self.profiler.telemetry().add_traffic("Move", bytes, flops);

        debug_assert_eq!(
            result.out_of_range, 0,
            "move kernel reported cells outside the mesh"
        );

        let removed = result.removed.len();
        self.ps.remove_fill(&result.removed);
        // The raw cell-map borrow above pessimised the CSR index to
        // all-dirty; report the measured relocation count instead
        // (hole-filling already accounted for itself).
        self.ps.refine_dirty(result.moved as usize);
        self.last_move = result;
        removed
    }

    /// The deposit-side stage: pick the step's deposit method (config,
    /// or the auto-tuner's choice) and sort the particles by cell when
    /// the coloring scheme demands it. The gather-side
    /// [`oppic_core::SortPolicy`] sort runs separately, right after
    /// injection.
    fn prepare_deposit(&mut self) {
        let mut method = self.cfg.deposit;
        if self.cfg.auto_tune {
            let d = self.tuner.choose(TunerInput {
                n_targets: self.mesh.n_nodes(),
                threads: self.cfg.policy.threads(),
            });
            // No step number in the line: the breakdown table collapses
            // runs of identical decisions into one "(xN)" trace.
            self.profiler.telemetry().trace(
                "DepositCharge",
                format!("auto-tuned to {} — {}", d.method.label(), d.reason),
            );
            method = d.method;
        }
        if self.cfg.coloring {
            let tel = self.profiler.telemetry().clone();
            let _s = tel.span("SortParticles");
            let n_cells = self.mesh.n_cells();
            self.ps.sort_by_cell(n_cells);
        }
        self.active_deposit = method;
    }

    /// `DepositCharge`: scatter `q·λ_k` onto the four cell nodes — the
    /// double-indirect increment handled by the configured
    /// [`oppic_core::DepositMethod`]. The weights `λ` are the `lc` the
    /// move left for each particle's final cell, so the deposit reads
    /// only `lc`, the cell map and `c2n`.
    pub fn deposit_charge(&mut self) {
        self.record_loop("DepositCharge");
        self.node_charge.fill(0.0);
        let cells = self.ps.cells();
        let n = self.ps.len();
        let (q, c2n) = (self.cfg.charge, &self.mesh.c2n);
        let weights = self.ps.col(self.lc).as_chunks::<4>().0;
        // Particle `i` adds `q·λ_k` to node `k` of its cell.
        let kernel = |i: usize| {
            let w = &weights[i];
            (
                c2n[cells[i] as usize],
                [q * w[0], q * w[1], q * w[2], q * w[3]],
            )
        };
        match &self.cell_colors {
            Some((colors, n_colors)) => {
                deposit_loop_colored(
                    &self.cfg.policy,
                    self.node_charge.raw_mut(),
                    cells,
                    colors,
                    *n_colors,
                    kernel,
                )
                .expect("particles are sorted before the colored deposit");
            }
            None => {
                deposit_loop(
                    &self.cfg.policy,
                    self.active_deposit,
                    n,
                    self.node_charge.raw_mut(),
                    kernel,
                );
            }
        }
        // Traffic: per particle lc(32) + its cell(4) + the c2n row(32),
        // and four node read-modify-writes(64).
        let bytes = (n * (32 + 4 + 32 + 4 * 16)) as u64;
        let flops = (n * 8) as u64;
        self.profiler
            .telemetry()
            .add_traffic("DepositCharge", bytes, flops);
    }

    /// Field-solver group: RHS, the factored solve, per-cell E.
    /// Returns the CG iteration count, which is 0: the replicated solve
    /// is direct.
    pub fn field_solve(&mut self) -> usize {
        self.record_loop("SolvePotential");
        let tel = self.profiler.telemetry().clone();
        let solved = {
            let _s = tel.span_class("ComputeF1Vector+SolvePotential", KernelClass::FieldSolve);
            self.fem
                .solve(self.node_charge.raw(), self.cfg.epsilon0)
                .is_ok()
        };
        // A non-finite deposit keeps the previous φ (the charge
        // invariant names the corrupt deposit); count the rejection.
        if !solved {
            tel.counter_add("resilience.solve_rejected", 1);
        }
        let (bytes, flops) = self.fem.solve_traffic();
        tel.add_traffic("ComputeF1Vector+SolvePotential", bytes, flops);
        self.record_loop("ComputeElectricField");
        {
            let _s = tel.span_class("ComputeElectricField", KernelClass::FieldSolve);
            self.fem.electric_field(&self.mesh, self.efield.raw_mut());
        }
        let nc = self.mesh.n_cells() as u64;
        tel.add_traffic("ComputeElectricField", nc * (4 * 8 + 4 * 24 + 24), nc * 24);
        0
    }

    /// Advance one PIC step on one rank; returns diagnostics.
    pub fn step(&mut self) -> StepDiagnostics {
        let Ok(diag) = self.step_over(&mut Local);
        diag
    }

    /// Advance one PIC step over `net`: the one step body, for one rank
    /// ([`FemPic::step`]) or many (DESIGN.md §7). Collective. On a
    /// transport error the step ends and the error returns mid-step.
    pub fn step_over<N: Transport>(&mut self, net: &mut N) -> Result<StepDiagnostics, N::Error> {
        self.step_no += 1;
        if let Some(rec) = &self.schedule {
            rec.begin_step();
        }

        // Install this sim's telemetry as the thread's current hub so
        // the DSL executors (move engine, deposit, particle store,
        // par loops) and the transport publish their counters and
        // histograms here, and open the per-step root span.
        let tel = self.profiler.telemetry().clone();
        let _cur = tel.make_current();
        tel.begin_step(self.step_no as u64);
        let diag = self.stages(&tel, net);
        match &diag {
            Ok(d) => tel.end_step(&[
                ("alive", d.n_particles as f64),
                ("total_charge", d.total_charge),
            ]),
            Err(_) => tel.end_step(&[]),
        }
        diag
    }

    /// The stages of [`FemPic::step_over`], each under its span.
    fn stages<N: Transport>(
        &mut self,
        tel: &Arc<Telemetry>,
        net: &mut N,
    ) -> Result<StepDiagnostics, N::Error> {
        // Spans cannot wrap `&mut self` method calls in one closure, so
        // each stage is a guard block.
        let injected = {
            let _s = tel.span_class("Inject", KernelClass::Inject);
            self.inject()
        };

        // Gather-side sort: regroups each cell's particles before
        // CalcPosVel and the move.
        if self
            .cfg
            .sort_policy
            .should_sort(self.step_no, self.ps.dirty_count(), self.ps.len())
        {
            let _s = tel.span("SortParticles");
            let n_cells = self.mesh.n_cells();
            self.ps.sort_by_cell(n_cells);
        }

        // Binding rebalance gate: placed after the gather-side sort so
        // a just-rebuilt CSR index yields cell-block-aligned spans.
        self.rebalance_binding();

        {
            let _s = tel.span_class("CalcPosVel", KernelClass::Move);
            self.calc_pos_vel();
        }

        if let Some(model) = self.cfg.collisions {
            let _s = tel.span_class("Collide", KernelClass::Other);
            crate::collisions::collide(
                &self.cfg.policy,
                &model,
                self.ps.col_mut(self.vel),
                self.cfg.dt,
                self.cfg.seed,
                self.step_no as u64,
            );
        }

        // Numeric guard (resilience layer): a non-finite position or
        // velocity would send the barycentric walk into undefined
        // territory and then poison the deposit; quarantine such
        // particles before the move sees them. No-op (and no pass over
        // the data is skipped lazily — the scan is branch-predictable)
        // on healthy populations.
        self.last_quarantined = if self.cfg.guard_numerics {
            let _s = tel.span("Quarantine");
            self.ps.quarantine_nonfinite(&[self.pos, self.vel]).len()
        } else {
            0
        };

        // As in the paper, a loop's communication is part of the loop:
        // the move ends with the migration, the deposit with the
        // node-charge sum (the node-halo stand-in).
        let removed = {
            let _s = tel.span_class("Move", KernelClass::Move);
            let removed = self.move_particles();
            if let Some(rec) = &self.schedule {
                rec.record_exchange("particles", ExchangeDir::Migrate, "fempic/migrate");
            }
            self.last_migration = net.migrate(&mut self.ps)?;
            removed
        };

        // The coloring scheme requires cell-sorted particles — the
        // overhead the paper attributes to it.
        self.prepare_deposit();

        {
            let _s = tel.span_class("DepositCharge", KernelClass::Deposit);
            self.deposit_charge();
            if let Some(rec) = &self.schedule {
                let dat = self.node_charge.name();
                rec.record_exchange(dat, ExchangeDir::ReduceSum, "fempic/node_charge");
            }
            net.allreduce_sum(self.node_charge.raw_mut())?;
        }

        let cg_iterations = self.field_solve();

        Ok(StepDiagnostics {
            step: self.step_no,
            n_particles: self.ps.len(),
            injected,
            removed: removed + self.last_quarantined,
            total_charge: self.node_charge.sum(),
            cg_iterations,
            mean_move_visits: self.last_move.mean_visits(self.ps.len().max(1)),
        })
    }

    /// Run `n` steps, returning the final step's diagnostics.
    pub fn run(&mut self, n: usize) -> StepDiagnostics {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.step());
        }
        last.expect("run(n) needs n >= 1")
    }

    /// Invariant checks used by tests and debug builds: every particle
    /// position lies inside its recorded cell, and inside the duct.
    pub fn check_invariants(&self) -> Result<(), String> {
        let bbox = self.mesh.bounding_box().inflated(1e-9);
        for i in 0..self.ps.len() {
            let p = Vec3::from_slice(self.ps.el(self.pos, i));
            if !bbox.contains(p) {
                return Err(format!("particle {i} escaped the duct: {p:?}"));
            }
            let c = self.ps.cells()[i];
            if c < 0 || c as usize >= self.mesh.n_cells() {
                return Err(format!("particle {i} has invalid cell {c}"));
            }
            let l = barycentric(p, &self.mesh.cell_vertices(c as usize));
            if !bary_inside(&l, 1e-6) {
                return Err(format!("particle {i} not inside its cell {c}: {l:?}"));
            }
        }
        Ok(())
    }

    pub fn step_count(&self) -> usize {
        self.step_no
    }

    /// Write a restartable snapshot: step counter, injection counter,
    /// particle store, and field state. The mesh and FEM system are
    /// rebuilt from the config on restore (they are deterministic).
    pub fn save_checkpoint<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let mut bw = oppic_core::BinWriter::new(w)?;
        bw.u64(self.step_no as u64)?;
        bw.u64(self.injected_total)?;
        self.ps.write_checkpoint(&mut bw)?;
        self.node_charge.write_checkpoint(&mut bw)?;
        self.efield.write_checkpoint(&mut bw)?;
        bw.f64_slice(self.fem.potential())?;
        bw.finish()?;
        Ok(())
    }

    /// Restore a snapshot written by [`FemPic::save_checkpoint`] into a
    /// simulation built with the *same configuration*.
    pub fn restore_checkpoint<R: std::io::Read>(&mut self, r: R) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let mut br = oppic_core::BinReader::new(r)?;
        let step_no = br.u64()? as usize;
        let injected_total = br.u64()?;
        let ps = ParticleDats::read_checkpoint(&mut br)?;
        if ps.dofs() != self.ps.dofs() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "particle schema mismatch",
            ));
        }
        let node_charge = Dat::read_checkpoint(&mut br)?;
        if node_charge.len() != self.mesh.n_nodes() {
            return Err(Error::new(ErrorKind::InvalidData, "node count mismatch"));
        }
        let efield = Dat::read_checkpoint(&mut br)?;
        if efield.len() != self.mesh.n_cells() {
            return Err(Error::new(ErrorKind::InvalidData, "cell count mismatch"));
        }
        let potential = br.f64_slice()?;
        if potential.len() != self.mesh.n_nodes() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "potential length mismatch",
            ));
        }
        // Integrity gate: reject truncated or bit-flipped snapshots
        // before any simulation state is touched.
        br.verify_footer()?;
        self.step_no = step_no;
        self.injected_total = injected_total;
        self.ps = ps;
        self.node_charge = node_charge;
        self.efield = efield;
        self.fem.set_potential(&potential);
        self.last_quarantined = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::{DepositMethod, ExecPolicy};

    #[test]
    fn particles_inject_and_flow_through_the_duct() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        let d1 = sim.step();
        assert_eq!(d1.injected, 50);
        assert_eq!(d1.n_particles, 50);
        sim.check_invariants().unwrap();
        // After enough steps particles start leaving at the outlet:
        // with v≈0.6, lx=2.0, dt=0.05 → ≈67 steps to cross.
        let mut removed_total = 0;
        for _ in 0..90 {
            removed_total += sim.step().removed;
        }
        assert!(removed_total > 0, "particles must exit the outlet");
        sim.check_invariants().unwrap();
    }

    #[test]
    fn injection_is_bit_identical_across_policies() {
        // Two batches, so the second starts mid-stream; pool(4) cuts
        // each 50-particle slice unevenly (13, 13, 13, 11).
        let run = |policy: ExecPolicy| {
            let mut sim = FemPic::new(FemPicConfig {
                policy,
                ..FemPicConfig::tiny()
            });
            sim.inject();
            sim.inject();
            assert_eq!(sim.ps.injected(), 50..100);
            let (pos, vel) = (sim.ps.col(sim.pos).to_vec(), sim.ps.col(sim.vel).to_vec());
            (pos, vel, sim.ps.cells().to_vec())
        };
        let seq = run(ExecPolicy::Seq);
        assert_eq!(run(ExecPolicy::Par), seq, "Par");
        assert_eq!(run(ExecPolicy::pool(2)), seq, "pool(2)");
        assert_eq!(run(ExecPolicy::pool(4)), seq, "pool(4)");
    }

    #[test]
    fn guide_table_matches_partition_point() {
        let exact = |inlets: &Inlets, t: f64| {
            let m = inlets.faces.len();
            inlets
                .faces
                .partition_point(|f| f.cumulative_area < t)
                .min(m - 1)
        };
        let check = |inlets: &Inlets, t: f64| assert_eq!(inlets.pick(t), exact(inlets, t), "{t}");
        // The duct's inlet, and a table of uneven areas with zero-area
        // faces (repeated cumulative sums) at both ends and inside.
        let duct = FemPic::new(FemPicConfig::tiny()).inlets;
        let areas = [
            0.0, 0.0, 3.0, 1e-9, 0.0, 7.5, 0.25, 0.25, 0.0, 40.0, 1e-3, 0.0,
        ];
        let mut acc = 0.0;
        let uneven = Inlets::new(
            areas
                .iter()
                .enumerate()
                .map(|(cell, a)| {
                    acc += a;
                    InletFace {
                        cell,
                        v: [Vec3::new(0.0, 0.0, 0.0); 3],
                        cumulative_area: acc,
                    }
                })
                .collect(),
        );
        for inlets in [&duct, &uneven] {
            let total = inlets.total_area();
            for t in [0.0, total, total * (1.0 + 1e-15)] {
                check(inlets, t);
            }
            for f in &inlets.faces {
                let c = f.cumulative_area;
                for t in [c, c.next_down(), c.next_up()] {
                    check(inlets, t);
                }
            }
            for k in 0..100_000 {
                let [r]: [f64; 1] = uniforms(3, 7, k);
                check(inlets, r * total);
            }
        }
    }

    #[test]
    fn charge_deposition_conserves_charge() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        let d = sim.step();
        // Total node charge = n_particles * q (barycentric weights sum
        // to 1 per particle).
        let expect = d.n_particles as f64 * sim.cfg.charge;
        assert!(
            (d.total_charge - expect).abs() < 1e-9 * expect.abs().max(1.0),
            "{} vs {}",
            d.total_charge,
            expect
        );
    }

    #[test]
    fn multi_hop_and_direct_hop_agree() {
        let mut cfg_mh = FemPicConfig::tiny();
        cfg_mh.inject_per_step = 30;
        let mut cfg_dh = cfg_mh.clone();
        cfg_dh.move_strategy = MoveStrategy::DirectHop { overlay_res: 8 };

        let mut a = FemPic::new(cfg_mh);
        let mut b = FemPic::new(cfg_dh);
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(a.ps.len(), b.ps.len());
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
        // Same physics: positions agree (deterministic seq backends,
        // identical RNG streams).
        let pa = a.ps.col(a.pos);
        let pb = b.ps.col(b.pos);
        for (x, y) in pa.iter().zip(pb) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn deposit_methods_agree() {
        let base = {
            let mut cfg = FemPicConfig::tiny();
            cfg.deposit = DepositMethod::Serial;
            let mut sim = FemPic::new(cfg);
            sim.run(5);
            sim.node_charge.raw().to_vec()
        };
        for method in [
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
            DepositMethod::SegmentedReduction,
        ] {
            let mut cfg = FemPicConfig::tiny();
            cfg.deposit = method;
            cfg.policy = ExecPolicy::Par;
            let mut sim = FemPic::new(cfg);
            sim.run(5);
            for (a, b) in sim.node_charge.raw().iter().zip(&base) {
                assert!((a - b).abs() < 1e-10, "{method:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn wall_potential_confines_ions() {
        // With a strong positive wall, positive ions should stay away
        // from the walls; count wall-adjacent losses.
        let mut cfg = FemPicConfig::tiny();
        cfg.wall_potential = 50.0;
        cfg.inject_per_step = 100;
        let mut sim = FemPic::new(cfg);
        for _ in 0..40 {
            sim.step();
        }
        sim.check_invariants().unwrap();
        // Particle y/z spread stays inside the duct cross-section (no
        // invariant violation) and particles still advance in x.
        let pos = sim.ps.col(sim.pos);
        let mean_x: f64 = pos.chunks(3).map(|p| p[0]).sum::<f64>() / sim.ps.len() as f64;
        assert!(mean_x > 0.1, "ions must drift downstream, mean_x={mean_x}");
    }

    #[test]
    fn profiler_captures_the_paper_kernels() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        sim.run(2);
        let tel = sim.profiler.telemetry();
        for name in [
            "Inject",
            "CalcPosVel",
            "Move",
            "DepositCharge",
            "ComputeF1Vector+SolvePotential",
            "ComputeElectricField",
            "ComputeJMatrix",
        ] {
            let st = tel
                .get(name)
                .unwrap_or_else(|| panic!("missing kernel {name}"));
            assert!(st.calls >= 1, "{name}");
        }
    }

    #[test]
    fn parallel_backend_matches_sequential_counts() {
        let mut cfg_seq = FemPicConfig::tiny();
        cfg_seq.inject_per_step = 200;
        let mut cfg_par = cfg_seq.clone();
        cfg_par.policy = ExecPolicy::Par;
        cfg_par.deposit = DepositMethod::ScatterArrays;

        let mut a = FemPic::new(cfg_seq);
        let mut b = FemPic::new(cfg_par);
        for _ in 0..8 {
            let da = a.step();
            let db = b.step();
            assert_eq!(da.n_particles, db.n_particles);
            assert_eq!(da.removed, db.removed);
            assert!((da.total_charge - db.total_charge).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::config::Integrator;
    use oppic_core::{DepositMethod, ExecPolicy};

    #[test]
    fn colored_deposit_matches_standard() {
        let mut base = FemPicConfig::tiny();
        base.inject_per_step = 120;
        let mut standard = FemPic::new(base.clone());
        let mut colored_cfg = base.clone();
        colored_cfg.coloring = true;
        colored_cfg.policy = ExecPolicy::Par;
        let mut colored = FemPic::new(colored_cfg);
        for _ in 0..6 {
            let a = standard.step();
            let b = colored.step();
            assert_eq!(a.n_particles, b.n_particles);
            assert!((a.total_charge - b.total_charge).abs() < 1e-9);
        }
        // Node-for-node agreement (order-insensitive quantity).
        for (x, y) in standard
            .node_charge
            .raw()
            .iter()
            .zip(colored.node_charge.raw())
        {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        // The sort overhead is actually recorded.
        assert!(colored.profiler.telemetry().get("SortParticles").is_some());
        assert!(standard.profiler.telemetry().get("SortParticles").is_none());
    }

    #[test]
    fn binding_on_is_bit_identical_to_binding_off() {
        // The persistent binding only changes *which worker* computes
        // each slot — element writes stay slot-local — so binding-on
        // must match binding-off bit for bit (the conformance matrix's
        // binding-axis promise). Serial deposit keeps the scatter
        // deterministic; the push and move loops run Par.
        let mut off_cfg = FemPicConfig::tiny();
        off_cfg.inject_per_step = 120;
        off_cfg.policy = ExecPolicy::Par;
        off_cfg.deposit = DepositMethod::Serial;
        let mut on_cfg = off_cfg.clone();
        on_cfg.binding = true;
        on_cfg.rebalance = oppic_core::RebalancePolicy::DriftFraction(0.3);

        let mut off = FemPic::new(off_cfg);
        let mut on = FemPic::new(on_cfg);
        for _ in 0..8 {
            let da = off.step();
            let db = on.step();
            assert_eq!(da.n_particles, db.n_particles);
            assert_eq!(da.removed, db.removed);
        }
        assert!(on.binding.is_some(), "binding must be built");
        assert!(off.binding.is_none());
        assert!(
            on.profiler.telemetry().counter("binding.rebalances") >= 1,
            "rebalance telemetry must flow"
        );
        assert_eq!(
            off.ps.col(off.pos),
            on.ps.col(on.pos),
            "positions bit-exact"
        );
        assert_eq!(
            off.ps.col(off.vel),
            on.ps.col(on.vel),
            "velocities bit-exact"
        );
        assert_eq!(off.ps.cells(), on.ps.cells());
        assert_eq!(off.node_charge.raw(), on.node_charge.raw());
    }

    #[test]
    fn inject_dirties_only_the_injected_slots() {
        let mut sim = FemPic::new(FemPicConfig::tiny());
        sim.run(5);
        let n_cells = sim.mesh.n_cells();
        sim.ps.sort_by_cell(n_cells);
        let before = sim.ps.dirty_count();
        let injected = sim.inject();
        assert!(injected > 0 && sim.ps.len() > injected);
        assert_eq!(sim.ps.dirty_count(), before + injected);
    }

    #[test]
    fn binding_rebalances_on_everyn_trigger() {
        let mut cfg = FemPicConfig::tiny();
        cfg.binding = true;
        cfg.rebalance = oppic_core::RebalancePolicy::EveryN(2);
        let mut sim = FemPic::new(cfg);
        sim.run(6);
        let rebuilds = sim.profiler.telemetry().counter("binding.rebalances");
        // First build (step 1) plus the EveryN fires at steps 2, 4, 6.
        assert_eq!(rebuilds, 4, "expected build + 3 rebalances");
    }

    #[test]
    fn auto_tuner_traces_its_decisions() {
        let mut cfg = FemPicConfig::tiny();
        cfg.auto_tune = true;
        cfg.policy = ExecPolicy::Par;
        cfg.inject_per_step = 200;
        let mut sim = FemPic::new(cfg);
        let d = sim.run(4);
        assert!(d.n_particles > 0);
        sim.check_invariants().unwrap();
        let traces = sim.profiler.telemetry().traces();
        assert_eq!(traces.len(), 4, "one decision per step: {traces:?}");
        assert!(traces.iter().all(|(k, _)| k == "DepositCharge"));
        assert_eq!(sim.tuner.decisions().len(), 4);
        // Charge is conserved whatever the tuner picked.
        let expect = d.n_particles as f64 * sim.cfg.charge;
        assert!((d.total_charge - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn gather_side_sort_policy_enables_segment_batching() {
        // Sorting every step after injection keeps physics identical
        // to the never-sorted baseline up to deposit summation order
        // (the particle *array order* differs, so compare per-node
        // charge and counts, not raw columns). The push runs the same
        // per-particle loop on a sorted store as on an unsorted one.
        let mut base_cfg = FemPicConfig::tiny();
        base_cfg.inject_per_step = 100;
        let mut sorted_cfg = base_cfg.clone();
        sorted_cfg.sort_policy = oppic_core::SortPolicy::Always;

        let mut a = FemPic::new(base_cfg);
        let mut b = FemPic::new(sorted_cfg);
        for _ in 0..5 {
            let da = a.step();
            let db = b.step();
            assert_eq!(da.n_particles, db.n_particles);
            assert_eq!(da.removed, db.removed);
            assert!((da.total_charge - db.total_charge).abs() < 1e-9);
        }
        assert!(b.profiler.telemetry().get("SortParticles").is_some());
        for (x, y) in a.node_charge.raw().iter().zip(b.node_charge.raw()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn verlet_and_leapfrog_agree_in_zero_field() {
        // With no field both integrators are pure drift: identical
        // trajectories.
        let mut cfg_a = FemPicConfig::tiny();
        cfg_a.charge = 0.0; // no field from particles
        cfg_a.wall_potential = 0.0;
        let mut cfg_b = cfg_a.clone();
        cfg_b.integrator = Integrator::VelocityVerlet;
        let mut a = FemPic::new(cfg_a);
        let mut b = FemPic::new(cfg_b);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_eq!(a.ps.col(a.pos), b.ps.col(b.pos));
    }

    #[test]
    fn verlet_runs_the_full_pipeline() {
        let mut cfg = FemPicConfig::tiny();
        cfg.integrator = Integrator::VelocityVerlet;
        cfg.deposit = DepositMethod::SegmentedReduction;
        let mut sim = FemPic::new(cfg);
        let d = sim.run(8);
        assert!(d.n_particles > 0);
        sim.check_invariants().unwrap();
    }

    #[test]
    fn verlet_differs_from_leapfrog_with_field() {
        let mut cfg_a = FemPicConfig::tiny();
        cfg_a.wall_potential = 10.0;
        let mut cfg_b = cfg_a.clone();
        cfg_b.integrator = Integrator::VelocityVerlet;
        let mut a = FemPic::new(cfg_a);
        let mut b = FemPic::new(cfg_b);
        for _ in 0..6 {
            a.step();
            b.step();
        }
        // Same particle counts, different (but close) trajectories.
        assert_eq!(a.ps.len(), b.ps.len());
        let pa = a.ps.col(a.pos);
        let pb = b.ps.col(b.pos);
        assert_ne!(pa, pb);
        let max_dev = pa
            .iter()
            .zip(pb)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 0.1, "integrators should stay close: {max_dev}");
    }
}

#[cfg(test)]
mod collision_integration_tests {
    use super::*;
    use crate::collisions::CollisionModel;

    #[test]
    fn collisions_randomise_the_stream() {
        // Isotropising collisions destroy the beam's forward momentum:
        // the surviving population's mean x-velocity drops well below
        // the collisionless stream's (which keeps ~inlet_velocity).
        let mut free_cfg = FemPicConfig::tiny();
        free_cfg.inject_per_step = 200;
        free_cfg.inlet_velocity = 1.2;
        free_cfg.dt = 0.1;
        let mut coll_cfg = free_cfg.clone();
        coll_cfg.collisions = Some(CollisionModel {
            neutral_density: 8.0,
            cross_section: 1.0,
        });

        let mut free = FemPic::new(free_cfg);
        let mut coll = FemPic::new(coll_cfg);
        for _ in 0..30 {
            free.step();
            coll.step();
        }
        assert!(free.profiler.telemetry().get("Collide").is_none());
        assert!(coll.profiler.telemetry().get("Collide").is_some());
        let mean_vx = |sim: &FemPic| {
            let v = sim.ps.col(sim.vel);
            v.chunks(3).map(|w| w[0]).sum::<f64>() / sim.ps.len().max(1) as f64
        };
        let vx_free = mean_vx(&free);
        let vx_coll = mean_vx(&coll);
        assert!(
            vx_coll < 0.5 * vx_free,
            "collisions must thermalise the beam: {vx_coll} vs {vx_free}"
        );
        coll.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    #[test]
    fn restart_is_bit_exact() {
        // 7 steps, checkpoint, 4 more == 11 uninterrupted steps.
        let cfg = FemPicConfig::tiny();
        let mut full = FemPic::new(cfg.clone());
        full.run(11);

        let mut first = FemPic::new(cfg.clone());
        first.run(7);
        let mut snap = Vec::new();
        first.save_checkpoint(&mut snap).unwrap();

        let mut resumed = FemPic::new(cfg);
        resumed.restore_checkpoint(snap.as_slice()).unwrap();
        assert_eq!(resumed.step_count(), 7);
        assert_eq!(resumed.injected_total, 7 * first.cfg.inject_per_step as u64);
        assert_eq!(resumed.injected_total, first.injected_total);
        resumed.run(4);
        assert_eq!(resumed.injected_total, full.injected_total);

        assert_eq!(full.ps.len(), resumed.ps.len());
        assert_eq!(
            full.ps.col(full.pos),
            resumed.ps.col(resumed.pos),
            "positions bit-exact"
        );
        assert_eq!(full.ps.col(full.vel), resumed.ps.col(resumed.vel));
        assert_eq!(full.ps.cells(), resumed.ps.cells());
        assert_eq!(full.node_charge.raw(), resumed.node_charge.raw());
    }

    #[test]
    fn restore_rejects_mismatched_mesh() {
        let mut a = FemPic::new(FemPicConfig::tiny());
        a.run(2);
        let mut snap = Vec::new();
        a.save_checkpoint(&mut snap).unwrap();
        let mut other_cfg = FemPicConfig::tiny();
        other_cfg.nx = 4; // different mesh
        let mut b = FemPic::new(other_cfg);
        assert!(b.restore_checkpoint(snap.as_slice()).is_err());
    }
}
