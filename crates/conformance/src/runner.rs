//! The differential matrix runner: execute one matrix cell, execute
//! its reference, and compare under the cell's equivalence oracle.
//!
//! Every run also enforces the physics invariants the paper's
//! applications must uphold regardless of backend: particle-count
//! conservation through inject/move/remove (checked after every step),
//! charge conservation after deposit (Mini-FEM-PIC), bounded energy
//! drift (CabanaPIC), and the application's own structural invariants.
//! Host Mini-FEM-PIC cells additionally register their loop plans with
//! the analyzer's static checker, so an incoherent configuration fails
//! the cell even when the numbers happen to agree.

use crate::matrix::{App, CellConfig, Mover, Mutation, Runtime};
use crate::oracle::{compare, Comparison, Oracle};
use oppic_analyzer::check_plans;
use oppic_bench::distributed::{run_cabana_distributed, run_fempic_distributed};
use oppic_cabana::{CabanaConfig, StructuredCabana};
use oppic_core::{telemetry, DepositMethod, Observable, Simulation, SortPolicy};
use oppic_device::{Device, DeviceBuffer, DeviceSpec};
use oppic_fempic::{FemPic, FemPicConfig, MoveStrategy};
/// Everything one cell execution produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub observables: Vec<Observable>,
    /// Invariant violations, flux imbalances, analyzer plan errors,
    /// broken bit-identity promises — any of these fails the cell.
    pub errors: Vec<String>,
}

/// One cell's verdict after differencing against its reference.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub cell: CellConfig,
    pub oracle: Oracle,
    pub comparison: Comparison,
    pub errors: Vec<String>,
}

impl CellReport {
    pub fn passed(&self) -> bool {
        self.comparison.passed() && self.errors.is_empty()
    }

    /// Human-readable failure lines (empty when passed).
    pub fn failure_lines(&self) -> Vec<String> {
        let mut out = self.errors.clone();
        out.extend(self.comparison.structural.iter().cloned());
        out.extend(self.comparison.divergences.iter().map(|d| d.to_string()));
        if self.comparison.divergent > self.comparison.divergences.len() as u64 {
            out.push(format!(
                "... and {} more divergent values",
                self.comparison.divergent - self.comparison.divergences.len() as u64
            ));
        }
        out
    }
}

fn fempic_config(cell: &CellConfig) -> FemPicConfig {
    let mut fc = FemPicConfig::tiny();
    fc.inject_per_step = cell.particles.max(1);
    fc.policy = cell.exec.policy();
    fc.deposit = cell.deposit;
    fc.move_strategy = match cell.mover {
        Mover::MultiHop => MoveStrategy::MultiHop,
        Mover::DirectHop => MoveStrategy::DirectHop { overlay_res: 8 },
    };
    fc.sort_policy = if cell.sort_always {
        SortPolicy::Always
    } else {
        SortPolicy::Never
    };
    fc.binding = cell.binding;
    fc.seed = cell.seed;
    fc
}

fn cabana_config(cell: &CellConfig) -> CabanaConfig {
    let mut cc = CabanaConfig::tiny();
    // Two half-beams: ppc stays even and ≥ 2.
    cc.ppc = (cell.particles.max(2) + 1) & !1;
    cc.policy = cell.exec.policy();
    cc.sort_policy = if cell.sort_always {
        SortPolicy::Always
    } else {
        SortPolicy::Never
    };
    cc.binding = cell.binding;
    cc
}

/// Step a [`Simulation`], checking particle-count conservation after
/// every step. Returns per-step flux errors.
fn step_checked<S: Simulation>(sim: &mut S, steps: usize, errors: &mut Vec<String>) {
    for s in 0..steps {
        let before = sim.n_particles();
        sim.advance();
        let (injected, removed) = sim.last_step_flux();
        let expect = before + injected - removed;
        if sim.n_particles() != expect {
            errors.push(format!(
                "step {}: particle count not conserved: {} alive, expected \
                 {before} + {injected} injected - {removed} removed = {expect}",
                s + 1,
                sim.n_particles()
            ));
        }
    }
}

fn apply_mutation(sim: &mut FemPic, mutation: Mutation) {
    match mutation {
        Mutation::DepositLostUpdate => {
            // The lost-update bug class: one contribution silently
            // dropped from the deposit target.
            let q = sim.cfg.charge;
            sim.node_charge.raw_mut()[0] -= 0.5 * q;
        }
    }
}

fn run_fempic_host(cell: &CellConfig) -> RunResult {
    let mut sim = FemPic::new(fempic_config(cell));
    let mut errors = Vec::new();
    for s in 0..cell.steps {
        let before = Simulation::n_particles(&sim);
        sim.advance();
        let (injected, removed) = sim.last_step_flux();
        if Simulation::n_particles(&sim) != before + injected - removed {
            errors.push(format!("step {}: particle count not conserved", s + 1));
        }
        if let Some(m) = cell.mutation {
            apply_mutation(&mut sim, m);
        }
    }
    if let Err(e) = sim.invariants() {
        errors.push(format!("invariant: {e}"));
    }
    // Register this configuration's loop plans with the analyzer.
    let report = check_plans(&sim.loop_plans(), Some(&sim.decl_registry()));
    if report.has_errors() {
        errors.push(format!("loop-plan check:\n{report}"));
    }
    let observables = sim.observables();
    // The binding-axis promise (DESIGN.md §12): persistent bindings
    // only change *which worker* computes each slot-local write, so
    // binding-on must match binding-off bit for bit whenever the
    // deposit itself is order-deterministic under the pool.
    if cell.binding && cell.deposit == DepositMethod::Serial && cell.mutation.is_none() {
        let mut twin = cell.clone();
        twin.binding = false;
        let twin_run = run_fempic_host(&twin);
        let cmp = compare(Oracle::BitIdentical, &observables, &twin_run.observables);
        if !cmp.passed() {
            errors.push(format!(
                "binding-on run is not bit-identical to binding-off \
                 ({} divergent values)",
                cmp.divergent
            ));
        }
    }
    RunResult {
        observables,
        errors,
    }
}

fn run_fempic_device(cell: &CellConfig) -> RunResult {
    let mut fc = fempic_config(cell);
    // The warp engine owns parallelism; the host stages run Seq.
    fc.policy = oppic_core::ExecPolicy::Seq;
    fc.deposit = DepositMethod::Serial;
    let mut sim = FemPic::new(fc);
    let device = Device::new(DeviceSpec::v100());
    let mut errors = Vec::new();
    let (mut atomic_ops, mut collisions) = (0u64, 0u64);
    for s in 0..cell.steps {
        let before = Simulation::n_particles(&sim);
        sim.advance();
        let (injected, removed) = sim.last_step_flux();
        if Simulation::n_particles(&sim) != before + injected - removed {
            errors.push(format!("step {}: particle count not conserved", s + 1));
        }
        // Re-execute the deposit scatter through the SIMT model and
        // adopt its (CAS-exact, differently-ordered) result, then
        // re-solve so the fields the next step sees flow from the
        // device-path deposit.
        let n = Simulation::n_particles(&sim);
        let buf = DeviceBuffer::zeros(sim.mesh.n_nodes());
        {
            let cells_col = sim.ps.cells();
            let lc = sim.ps.col(sim.lc);
            let c2n = &sim.mesh.c2n;
            let q = sim.cfg.charge;
            let report = device.launch(n, |lane| {
                let i = lane.tid;
                let c = cells_col[i] as usize;
                let nd = c2n[c];
                for k in 0..4 {
                    lane.atomic_add(&buf, nd[k], q * lc[i * 4 + k]);
                }
            });
            atomic_ops += report.atomic_ops;
            collisions += report.atomic_collisions;
        }
        sim.node_charge.raw_mut().copy_from_slice(&buf.to_vec());
        sim.field_solve();
    }
    if let Err(e) = sim.invariants() {
        errors.push(format!("invariant: {e}"));
    }
    if let Some(tel) = telemetry::current() {
        let id = cell.id();
        tel.counter_add(&format!("conformance/{id}/device_atomic_ops"), atomic_ops);
        tel.counter_add(
            &format!("conformance/{id}/device_atomic_collisions"),
            collisions,
        );
    }
    RunResult {
        observables: sim.observables(),
        errors,
    }
}

fn run_fempic_mpi(cell: &CellConfig, ranks: usize) -> RunResult {
    let base = fempic_config(cell);
    let rep = run_fempic_distributed(&base, ranks, cell.steps);
    let mut errors = Vec::new();
    if rep.total_particles == 0 {
        errors.push("distributed run lost every particle".to_string());
    }
    if rep.imbalance() > 3.0 {
        errors.push(format!(
            "rank imbalance {:.2} exceeds bound 3.0",
            rep.imbalance()
        ));
    }
    // Per-rank injection streams differ, so per-node fields are not
    // comparable across rank counts; charge *per particle* is exact.
    let per_particle = rep.check_scalar / rep.total_particles.max(1) as f64;
    RunResult {
        observables: vec![Observable::scalar("charge_per_particle", per_particle)],
        errors,
    }
}

fn run_cabana_host(cell: &CellConfig) -> RunResult {
    let mut sim = StructuredCabana::new_structured(cabana_config(cell));
    let mut errors = Vec::new();
    let e0 = sim.energies().total();
    step_checked(&mut sim, cell.steps, &mut errors);
    if let Err(e) = sim.invariants() {
        errors.push(format!("invariant: {e}"));
    }
    // Bounded energy drift: the collocated FDTD + Boris step conserves
    // total energy to discretisation error over a handful of steps.
    let e1 = sim.energies().total();
    let drift = (e1 - e0).abs() / e0.abs().max(1e-30);
    if drift > 0.05 {
        errors.push(format!(
            "energy drift {:.3e} exceeds bound 5e-2 ({e0:.6e} -> {e1:.6e})",
            drift
        ));
    }
    let observables = sim.observables();
    // Binding-axis promise under Seq: the bound mover is one exclusive
    // scatter piece, exactly like the unbound one. Under pools each
    // run is deterministic, but the binding reduces its private
    // current arrays per worker span rather than per even chunk, so
    // the field oracle covers those cells.
    if cell.binding && cell.exec == crate::matrix::Exec::Seq {
        let mut twin = cell.clone();
        twin.binding = false;
        let twin_run = run_cabana_host(&twin);
        let cmp = compare(Oracle::BitIdentical, &observables, &twin_run.observables);
        if !cmp.passed() {
            errors.push(format!(
                "binding-on run is not bit-identical to binding-off \
                 ({} divergent values)",
                cmp.divergent
            ));
        }
    }
    RunResult {
        observables,
        errors,
    }
}

fn run_cabana_mpi(cell: &CellConfig, ranks: usize) -> RunResult {
    let base = cabana_config(cell);
    let expect_particles = base.n_particles();
    let rep = run_cabana_distributed(&base, ranks, cell.steps);
    let mut errors = Vec::new();
    if rep.total_particles != expect_particles {
        errors.push(format!(
            "particle count not conserved across ranks: {} alive, {} initialised",
            rep.total_particles, expect_particles
        ));
    }
    RunResult {
        observables: vec![
            Observable::scalar("total_energy", rep.check_scalar),
            Observable::scalar("n_particles", rep.total_particles as f64),
        ],
        errors,
    }
}

/// Execute one matrix cell.
pub fn run_cell(cell: &CellConfig) -> RunResult {
    match (cell.app, cell.runtime) {
        (App::FemPic, Runtime::Host) => run_fempic_host(cell),
        (App::FemPic, Runtime::DeviceModel) => run_fempic_device(cell),
        (App::FemPic, Runtime::Mpi(r)) => run_fempic_mpi(cell, r),
        (App::Cabana, Runtime::Host | Runtime::DeviceModel) => run_cabana_host(cell),
        (App::Cabana, Runtime::Mpi(r)) => run_cabana_mpi(cell, r),
    }
}

/// Which kernel a divergent observable points at — the attribution the
/// telemetry counters carry.
pub fn kernel_of(observable: &str) -> &'static str {
    match observable {
        "node_charge" => "DepositCharge",
        "efield" | "potential" => "FieldSolve",
        "cell_occupancy" => "Move",
        "kinetic_energy" => "CalcPosVel",
        "n_particles" | "charge_per_particle" => "Inject/Move",
        "e" => "Advance_E",
        "b" => "Advance_B",
        "j" => "Accumulate_Current",
        "energy" | "total_energy" => "Energies",
        _ => "Unknown",
    }
}

/// Difference `cell` against its reference and record per-cell
/// comparison counters on the current telemetry hub.
pub fn check_cell(cell: &CellConfig) -> CellReport {
    let reference = cell.reference_for();
    check_cell_against(cell, &run_cell(&reference), &reference)
}

/// [`check_cell`] with a pre-computed reference run (the matrix driver
/// caches reference runs; the shrinker re-runs them per attempt).
pub fn check_cell_against(
    cell: &CellConfig,
    reference_run: &RunResult,
    reference: &CellConfig,
) -> CellReport {
    let got = run_cell(cell);
    // A cell identical to its reference is the determinism gate: the
    // rerun must be *bit-identical*, not merely close. Binding is a
    // *promise* axis — it changes who computes, never the result — so
    // a cell that differs from its reference only by that flag is
    // held to the same bit-identity oracle.
    let mut stripped = cell.clone();
    stripped.binding = false;
    let oracle = if stripped == *reference {
        Oracle::BitIdentical
    } else {
        Oracle::field()
    };
    let comparison = compare(oracle, &got.observables, &reference_run.observables);
    let mut errors = got.errors;
    for e in &reference_run.errors {
        errors.push(format!("reference {}: {e}", reference.id()));
    }
    if let Some(tel) = telemetry::current() {
        let id = cell.id();
        tel.counter_add("conformance/cells_run", 1);
        tel.counter_add(
            &format!("conformance/{id}/values_compared"),
            comparison.compared,
        );
        if comparison.divergent > 0 {
            tel.counter_add(&format!("conformance/{id}/divergent"), comparison.divergent);
        }
        for (name, _, divergent) in &comparison.per_observable {
            if *divergent > 0 {
                tel.counter_add(
                    &format!("conformance/{id}/{}/divergent", kernel_of(name)),
                    *divergent,
                );
            }
        }
    }
    CellReport {
        cell: cell.clone(),
        oracle,
        comparison,
        errors,
    }
}

/// Run a whole matrix, caching reference runs per distinct reference
/// configuration.
pub fn run_matrix(cells: &[CellConfig]) -> Vec<CellReport> {
    let mut ref_cache: Vec<(CellConfig, RunResult)> = Vec::new();
    cells
        .iter()
        .map(|cell| {
            let reference = cell.reference_for();
            let cached = ref_cache.iter().find(|(c, _)| *c == reference);
            let reference_run = match cached {
                Some((_, r)) => r.clone(),
                None => {
                    let r = run_cell(&reference);
                    ref_cache.push((reference.clone(), r.clone()));
                    r
                }
            };
            check_cell_against(cell, &reference_run, &reference)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Exec;

    #[test]
    fn reference_cell_is_deterministic_bit_identical() {
        let cell = CellConfig::reference(App::FemPic);
        let report = check_cell(&cell);
        assert_eq!(report.oracle, Oracle::BitIdentical);
        assert!(report.passed(), "{:?}", report.failure_lines());
        assert!(report.comparison.compared > 100);
    }

    #[test]
    fn parallel_scatter_cell_matches_reference() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.exec = Exec::Pool2;
        cell.deposit = DepositMethod::ScatterArrays;
        let report = check_cell(&cell);
        assert_eq!(report.oracle, Oracle::field());
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn device_model_cell_matches_reference() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.runtime = Runtime::DeviceModel;
        let report = check_cell(&cell);
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn cabana_pool_cell_matches_reference() {
        let mut cell = CellConfig::reference(App::Cabana);
        cell.exec = Exec::Pool2;
        let report = check_cell(&cell);
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn binding_cell_holds_the_bit_identity_oracle() {
        // Binding differs from the reference only by the promise axis,
        // so the oracle is BitIdentical — and the run must satisfy it.
        let mut cell = CellConfig::reference(App::FemPic);
        cell.binding = true;
        let report = check_cell(&cell);
        assert_eq!(report.oracle, Oracle::BitIdentical);
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn pooled_binding_cell_passes_the_twin_check() {
        // Under a real pool the binding-off twin check inside
        // run_fempic_host asserts bit-identity (Serial deposit keeps
        // the accumulation order-deterministic).
        let mut cell = CellConfig::reference(App::FemPic);
        cell.exec = Exec::Pool2;
        cell.binding = true;
        let report = check_cell(&cell);
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn cabana_binding_cell_matches_reference() {
        let mut cell = CellConfig::reference(App::Cabana);
        cell.binding = true;
        let report = check_cell(&cell);
        assert_eq!(report.oracle, Oracle::BitIdentical);
        assert!(report.passed(), "{:?}", report.failure_lines());
    }

    #[test]
    fn mutated_deposit_fails_both_oracles() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.steps = 2;
        cell.particles = 16;
        cell.mutation = Some(Mutation::DepositLostUpdate);
        let report = check_cell(&cell);
        assert!(!report.passed());
        // The differential oracle sees the divergence...
        assert!(report.comparison.divergent > 0);
        // ...and the physics oracle independently flags conservation.
        assert!(
            report.errors.iter().any(|e| e.contains("charge")),
            "{:?}",
            report.errors
        );
    }
}
