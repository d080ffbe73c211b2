//! CabanaPIC (DSL version) at the `configs/cabana_two_stream.cfg`
//! problem.

use crate::outcome::{Counts, PerLayer};
use crate::single::{AppSim, StepRec};
use crate::trace::{Layer, Trace};
use oppic_cabana::{CabanaConfig, CabanaPic, EnergyDiagnostics};
use oppic_core::{ExecPolicy, SortPolicy};
use std::time::Instant;

/// `configs/cabana_two_stream.cfg`: 32×4×4 cells × 64 particles per
/// cell, beams at ±0.2 with a 2-mode 0.02 perturbation, CSR sort every
/// 20 steps; cell sizes and `dt` derived as the `cabana` binary does.
///
/// `CabanaConfig::seed` is read by nothing (`init_two_stream` is
/// deterministic), so this workload is seed-independent: the seed is
/// accepted and ignored rather than pretending to vary the input.
pub fn two_stream_config(policy: ExecPolicy) -> CabanaConfig {
    let (nx, ny, nz) = (32, 4, 4);
    let nmax = nx.max(ny).max(nz) as f64;
    CabanaConfig {
        nx,
        ny,
        nz,
        dx: 1.0 / nx as f64,
        dy: 1.0 / ny as f64,
        dz: 1.0 / nz as f64,
        ppc: 64,
        v0: 0.2,
        perturbation: 0.02,
        modes: 2,
        dt: 0.5 / nmax / 3f64.sqrt(),
        sort_policy: SortPolicy::EveryN(20),
        policy,
        ..CabanaConfig::default()
    }
}

/// `CabanaEngine::step` stage by stage through the public stage
/// functions, each call timed into `tr`. `step_no` is the benchmark's
/// own step counter, which drives the sort gate exactly as the
/// engine's private counter does. Ends bit-identical to `step()` under
/// a deterministic policy (see `tests/fidelity.rs`).
pub fn traced_step(sim: &mut CabanaPic, step_no: &mut usize, tr: &mut Trace) -> EnergyDiagnostics {
    assert!(
        !sim.cfg.binding,
        "the traced cabana loop covers only configs without binding"
    );
    let t0 = Instant::now();
    *step_no += 1;
    let tel = sim.profiler.telemetry().clone();
    let _cur = tel.make_current();
    if sim
        .cfg
        .sort_policy
        .should_sort(*step_no, sim.ps.dirty_count(), sim.ps.len())
    {
        let n_cells = sim.geom.n_cells();
        tr.time(Layer::Sort, || sim.ps.sort_by_cell(n_cells));
    }
    tr.time(Layer::CabInterpolate, || sim.interpolate());
    let visited = tr.time(Layer::CabMoveDeposit, || sim.move_deposit());
    tr.time(Layer::CabAccumulate, || sim.accumulate_current());
    tr.time(Layer::CabAdvanceB, || sim.advance_b());
    tr.time(Layer::CabAdvanceE, || sim.advance_e());
    sim.update_ghosts();
    let mut d = sim.energies();
    d.step = *step_no;
    d.mean_visited = visited as f64 / sim.ps.len().max(1) as f64;
    tr.end_step(t0.elapsed());
    d
}

/// The `cabana_two_stream_seq` workload.
pub struct TwoStream {
    pub sim: CabanaPic,
    /// The benchmark's step counter for [`traced_step`] (a simulation
    /// is only ever traced or only ever untraced).
    step_no: usize,
}

impl TwoStream {
    fn record(&self, d: EnergyDiagnostics) -> StepRec {
        let live = self.sim.ps.len();
        let want = self.sim.cfg.n_particles();
        let check = if live != want {
            Err(format!(
                "step {}: {live} particles, expected {want}",
                d.step
            ))
        } else if ![d.e_field, d.b_field, d.kinetic]
            .iter()
            .all(|x| x.is_finite())
        {
            Err(format!("step {}: non-finite energy {d:?}", d.step))
        } else {
            Ok(())
        };
        StepRec {
            live,
            counts: Counts {
                // Exact: `mean_visited` is visited / live with both
                // far below 2^53.
                visits: (d.mean_visited * live as f64).round() as u64,
                ..Counts::default()
            },
            check,
        }
    }
}

impl AppSim for TwoStream {
    // Covers the first sort (step 20), so the timed loop starts on a
    // warm CSR index.
    const WARMUP: usize = 20;

    fn build(_seed: u64, policy: ExecPolicy) -> Self {
        TwoStream {
            sim: CabanaPic::new_dsl(two_stream_config(policy)),
            step_no: 0,
        }
    }

    fn step(&mut self) -> StepRec {
        let d = self.sim.step();
        self.record(d)
    }

    fn traced_step(&mut self, tr: &mut Trace) -> StepRec {
        let d = traced_step(&mut self.sim, &mut self.step_no, tr);
        self.record(d)
    }

    fn invocations(&self) -> u64 {
        self.sim.profiler.telemetry().counter("parloop.invocations")
    }

    fn check(&self) -> Result<(), String> {
        self.sim.check_invariants()
    }

    fn set_visits(pl: &mut PerLayer, visits_per_particle: f64) {
        pl.cabana_visits_per_particle = visits_per_particle;
    }
}
