//! Cross-backend conformance harness.
//!
//! The paper's central claim is that one DSL program produces
//! equivalent physics on every backend. This crate turns that claim
//! into an executable contract: a differential **matrix runner**
//! ([`matrix`], [`runner`]) executes seeded Mini-FEM-PIC and CabanaPIC
//! step sequences across execution policies × deposit methods × movers
//! × runtime substrates, compares each cell against its
//! sequential/Serial reference under explicit equivalence [`oracle`]s
//! (bit-identity where DESIGN.md promises it, tolerance elsewhere),
//! and enforces physics invariants independent of the reference. When
//! a cell fails, the shrinker ([`shrink()`]) minimises the
//! configuration and [`report`] writes a replayable JSON reproducer
//! under `results/conformance/`. Both case types — matrix cells and
//! chaos cells — run that one pipeline through [`Case`].
//!
//! The [`chaos`] stage extends the contract to a *faulty* substrate:
//! seeded fault schedules (drop / duplicate / reorder / delay /
//! bit-flip / stall) run against the resilience layer's reliable
//! drivers, asserting every run either converges bit-exactly to the
//! fault-free reference or aborts with a typed error and a shrunk
//! reproducer — silent corruption is the only failing outcome.
//!
//! See DESIGN.md §9 for the equivalence matrix and replay workflow,
//! §10 for the chaos stage.

pub mod chaos;
pub mod matrix;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod shrink;

pub use chaos::{
    cell_scenario, chaos_full_matrix, chaos_quick_matrix, run_chaos_cell, watchdog_control_checks,
    ChaosCell, ChaosFault, ChaosReport, ChaosVerdict, WatchdogCheck, CHAOS_SCHEMA,
};
pub use matrix::{full_matrix, quick_matrix, App, CellConfig, Exec, Mover, Mutation, Runtime};
pub use oracle::{compare, Comparison, Divergence, Oracle};
pub use report::{Case, REPRO_DIR};
pub use runner::{check_cell, run_cell, run_matrix, CellReport};
pub use schedule::{verify_schedules, ScheduleCheck};
pub use shrink::shrink;

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criterion mutation smoke test: a deliberately
    /// injected deposit lost-update must be (a) caught by the
    /// differential + physics oracles and (b) shrunk to a reproducer
    /// of at most 2 steps and 8 particles that replays verbatim.
    #[test]
    fn injected_deposit_bug_is_caught_and_shrunk() {
        let mut cell = CellConfig::reference(App::FemPic);
        cell.steps = 4;
        cell.particles = 32;
        cell.mutation = Some(Mutation::DepositLostUpdate);

        let report = check_cell(&cell);
        assert!(!report.passed(), "mutated cell must fail");

        let mut evals = 0usize;
        let (shrunk, _) = shrink(&cell, &mut |c| {
            evals += 1;
            c.fails()
        });
        assert!(evals > 0);
        assert!(
            shrunk.steps <= 2,
            "shrunk to {} steps, want ≤ 2",
            shrunk.steps
        );
        assert!(
            shrunk.particles <= 8,
            "shrunk to {} particles, want ≤ 8",
            shrunk.particles
        );
        assert_eq!(shrunk.mutation, Some(Mutation::DepositLostUpdate));
        assert!(shrunk.fails(), "shrunk case must still fail");

        // The reproducer replays to the same failing cell.
        let lines = check_cell(&shrunk).failure_lines();
        let src = shrunk.reproducer_json(&lines);
        let (replayed, recorded) = CellConfig::parse_reproducer(&src).expect("reproducer parses");
        assert_eq!(replayed, shrunk);
        assert_eq!(recorded, lines);
        assert!(replayed.fails(), "replayed case must still fail");
    }

    /// An unmutated matrix cell sampled from every runtime passes, so
    /// the smoke test above fails because of the mutation and nothing
    /// else.
    #[test]
    fn clean_cells_on_every_runtime_pass() {
        for runtime in [Runtime::Host, Runtime::DeviceModel, Runtime::Mpi(2)] {
            let mut cell = CellConfig::reference(App::FemPic);
            cell.steps = 2;
            cell.particles = 16;
            cell.runtime = runtime;
            let report = check_cell(&cell);
            assert!(report.passed(), "{}: {:?}", cell, report.failure_lines());
        }
    }
}
