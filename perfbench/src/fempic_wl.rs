//! Mini-FEM-PIC at the `configs/fempic_small.cfg` problem.

use crate::outcome::{close, Counts, PerLayer};
use crate::single::{AppSim, StepRec};
use crate::trace::{Layer, Trace};
use oppic_core::{DepositMethod, ExecPolicy, SortPolicy};
use oppic_fempic::{FemPic, FemPicConfig, MoveStrategy, StepDiagnostics};
use std::time::Instant;

/// `configs/fempic_small.cfg`: an 8×8×8 duct of length 2, 2000
/// particles injected per step, wall potential 2, direct-hop move
/// through a 32³ overlay, scatter-array deposit. Everything else is
/// the app default, as the `fempic` binary reads that file.
pub fn duct_config(seed: u64, policy: ExecPolicy) -> FemPicConfig {
    FemPicConfig {
        nx: 8,
        ny: 8,
        nz: 8,
        lx: 2.0,
        inject_per_step: 2000,
        wall_potential: 2.0,
        move_strategy: MoveStrategy::DirectHop { overlay_res: 32 },
        deposit: DepositMethod::ScatterArrays,
        seed,
        policy,
        ..FemPicConfig::default()
    }
}

/// Panic unless `FemPic::step` runs exactly the five public stages for
/// `cfg`: every gate [`traced_step`] leaves out must be a no-op.
pub fn assert_traceable(cfg: &FemPicConfig) {
    assert!(
        cfg.sort_policy == SortPolicy::Never
            && !cfg.binding
            && !cfg.coloring
            && !cfg.auto_tune
            && !cfg.guard_numerics
            && cfg.collisions.is_none(),
        "the traced fempic loop covers only configs without sort, binding, coloring, tuner, guard or collisions"
    );
}

/// `FemPic::step` stage by stage through the public stage functions,
/// each call timed into `tr`. Ends bit-identical to `step()` for
/// configs that pass [`assert_traceable`] (see `tests/fidelity.rs`).
pub fn traced_step(sim: &mut FemPic, tr: &mut Trace) -> StepDiagnostics {
    let t0 = Instant::now();
    // As in `step()`: the executors publish counters to this hub.
    let tel = sim.profiler.telemetry().clone();
    let _cur = tel.make_current();
    let injected = tr.time(Layer::FemInject, || sim.inject());
    tr.time(Layer::FemPush, || sim.calc_pos_vel());
    let removed = tr.time(Layer::FemMove, || sim.move_particles());
    tr.time(Layer::FemDeposit, || sim.deposit_charge());
    let cg_iterations = tr.time(Layer::FemSolve, || sim.field_solve());
    let n = sim.ps.len();
    let diag = StepDiagnostics {
        step: sim.step_count(),
        n_particles: n,
        injected,
        removed,
        total_charge: sim.node_charge.sum(),
        cg_iterations,
        mean_move_visits: sim.last_move.mean_visits(n.max(1)),
    };
    tr.end_step(t0.elapsed());
    diag
}

/// The deposited node charge must equal live particles × `q`.
pub fn check_charge(sim: &FemPic, d: &StepDiagnostics) -> Result<(), String> {
    close(
        &format!("step {} node charge", d.step),
        d.total_charge,
        d.n_particles as f64 * sim.cfg.charge,
        1e-9,
    )
}

/// The `fempic_duct_seq` workload.
pub struct FemDuct {
    pub sim: FemPic,
    /// Live particles after the previous step, for the count balance.
    prev_live: usize,
}

impl FemDuct {
    fn record(&mut self, d: StepDiagnostics) -> StepRec {
        let balance = if d.n_particles + d.removed == self.prev_live + d.injected {
            Ok(())
        } else {
            Err(format!(
                "step {}: {} live != {} + {} injected - {} removed",
                d.step, d.n_particles, self.prev_live, d.injected, d.removed
            ))
        };
        self.prev_live = d.n_particles;
        StepRec {
            live: d.n_particles,
            counts: Counts {
                visits: self.sim.last_move.total_visits,
                removed: d.removed as u64,
                cg_iters: d.cg_iterations as u64,
                ..Counts::default()
            },
            check: balance.and_then(|()| check_charge(&self.sim, &d)),
        }
    }
}

impl AppSim for FemDuct {
    // The population plateaus at ~22k particles after ~15 steps.
    const WARMUP: usize = 25;

    fn build(seed: u64, policy: ExecPolicy) -> Self {
        let cfg = duct_config(seed, policy);
        assert_traceable(&cfg);
        FemDuct {
            sim: FemPic::new(cfg),
            prev_live: 0,
        }
    }

    fn step(&mut self) -> StepRec {
        let d = self.sim.step();
        self.record(d)
    }

    fn traced_step(&mut self, tr: &mut Trace) -> StepRec {
        let d = traced_step(&mut self.sim, tr);
        self.record(d)
    }

    fn invocations(&self) -> u64 {
        self.sim.profiler.telemetry().counter("parloop.invocations")
    }

    fn check(&self) -> Result<(), String> {
        self.sim.check_invariants()
    }

    fn set_visits(pl: &mut PerLayer, visits_per_particle: f64) {
        pl.move_visits_per_particle = visits_per_particle;
    }
}
