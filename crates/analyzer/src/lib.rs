//! # oppic-analyzer — the OP-PIC loop-plan checker.
//!
//! The C++ OP-PIC gets correctness by construction: its clang
//! translator reads every loop's access descriptors and emits code
//! that is race-free for the chosen backend. This Rust reproduction
//! dispatches loops by hand, so the same knowledge must be *checked*
//! rather than generated. This crate is that checker, in three passes:
//!
//! 1. **Static plan validation** ([`static_check`]) — given each
//!    loop's [`oppic_core::plan::LoopPlan`] (descriptors + executor +
//!    race strategy), reject incoherent pairings: an indirect `INC`
//!    under a parallel policy with no race strategy, scattered plain
//!    writes from particle loops, aliasing access routes, and — with a
//!    declaration [`oppic_core::decl::Registry`] — dim mismatches and
//!    maps that don't compose from the iteration set to the dat.
//! 2. **Shadow race detection** ([`shadow`]) — replay a kernel
//!    sequentially, record per-iteration read/write/inc footprints,
//!    and report iteration pairs that conflict under the *intended*
//!    parallel schedule (all-parallel or colored rounds).
//! 3. **Map-invariant audits** ([`audit`]) — bounds/validity checks
//!    for static mesh maps, the dynamic particle→cell map after
//!    move/hole-fill, and deposit colorings.
//! 4. **Telemetry audit** ([`telemetry_audit`]) — offline replay of a
//!    telemetry JSONL event stream (`--telemetry` runs): span/path
//!    coherence, step ordering, and per-step counter invariants.
//!
//! All passes report [`diag::Diagnostic`]s on an Info/Warn/Error
//! lattice; only errors fail a `--validate` run.

pub mod audit;
pub mod dataflow;
pub mod diag;
pub mod shadow;
pub mod static_check;
pub mod telemetry_audit;

pub use audit::{
    audit_cell_index, audit_coloring, audit_mesh_map, audit_particle_cells, audit_report,
};
pub use dataflow::{
    audit_schedule, audit_schedule_json, check_report_schema, DepKind, Edge, FusionCandidate,
    ScheduleAudit, REPORT_SCHEMA,
};
pub use diag::{Diagnostic, Report, Severity};
pub use shadow::{shadow_record, AccessKind, Race, RaceOptions, Schedule, ShadowCtx, ShadowRun};
pub use static_check::{check_plan, check_plans};
pub use telemetry_audit::audit_telemetry;

use oppic_core::access::{Access, ArgDecl, LoopDecl};
use oppic_core::deposit::{greedy_color_cells, DepositMethod};
use oppic_core::parloop::ExecPolicy;
use oppic_core::plan::{LoopPlan, RaceStrategy};

/// End-to-end self-check of all three passes on canned plans — run by
/// `oppic-analyzer --self-test` and callable from tests. Returns one
/// `(description, passed)` entry per scenario.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let mut results = Vec::new();
    let mut check = |desc: &'static str, ok: bool| results.push((desc, ok));

    let deposit_decl = LoopDecl::new(
        "DepositCharge",
        "particles",
        vec![
            ArgDecl::direct("lc", 4, Access::Read),
            ArgDecl::double_indirect("node_charge", 1, Access::Inc, "p2c.c2n"),
        ],
    );

    // Pass 1: a racy parallel plan must be rejected...
    let racy = LoopPlan::new(deposit_decl.clone(), &ExecPolicy::Par, RaceStrategy::None);
    let diags = check_plan(&racy, None);
    check(
        "static: parallel double-indirect INC without a strategy is an Error",
        diags
            .iter()
            .any(|d| d.code == "plan/racy-inc" && d.severity == Severity::Error),
    );
    // ...and the same loop with a real strategy accepted.
    let safe = LoopPlan::new(
        deposit_decl.clone(),
        &ExecPolicy::Par,
        RaceStrategy::Deposit(DepositMethod::ScatterArrays),
    );
    check(
        "static: the same plan with scatter arrays is clean",
        check_plan(&safe, None).is_empty(),
    );

    // Pass 2: shadow replay of a 2-cell deposit sharing one node.
    let cell_targets = [vec![0usize, 1], vec![1, 2]];
    let particle_cells = [0usize, 0, 1, 1];
    let record = || {
        shadow_record(particle_cells.len(), |i, ctx| {
            for &t in &cell_targets[particle_cells[i]] {
                ctx.inc("node_charge", t);
            }
        })
    };
    let run = record();
    check(
        "shadow: unsynchronised parallel increments conflict on the shared node",
        !run.detect_races(Schedule::AllParallel, &RaceOptions::default())
            .is_empty(),
    );
    // The colored deposit's schedule: colors barrier the rounds and
    // each same-color *cell* is one serial group.
    let (colors, n_colors) = greedy_color_cells(&cell_targets, 3);
    let particle_colors: Vec<u32> = particle_cells.iter().map(|&c| colors[c]).collect();
    let particle_groups: Vec<u32> = particle_cells.iter().map(|&c| c as u32).collect();
    let colored = Schedule::ColoredGroups {
        colors: &particle_colors,
        groups: &particle_groups,
    };
    check(
        "shadow: a greedy distance-2 coloring separates the writers",
        n_colors >= 2
            && run
                .detect_races(colored, &RaceOptions::default())
                .is_empty(),
    );
    let merged = vec![0u32; particle_cells.len()];
    let collapsed = Schedule::ColoredGroups {
        colors: &merged,
        groups: &particle_groups,
    };
    check(
        "shadow: collapsing the color rounds reintroduces the conflict",
        !run.detect_races(collapsed, &RaceOptions::default())
            .is_empty(),
    );

    // Pass 3: map audits.
    let good_map = [0, 1, 1, 2];
    check(
        "audit: an in-range mesh map is clean",
        !audit_mesh_map("c2n", &good_map, 2, 2, 3, false)
            .iter()
            .any(|d| d.severity == Severity::Error),
    );
    let bad_map = [0, 1, 7, 2];
    check(
        "audit: an out-of-range map entry is an Error",
        audit_mesh_map("c2n", &bad_map, 2, 2, 3, false)
            .iter()
            .any(|d| d.code == "map/out-of-range"),
    );
    check(
        "audit: a dangling particle cell is an Error",
        audit_particle_cells("p2c", &[0, -1, 2], 3)
            .iter()
            .any(|d| d.code == "pmap/dangling"),
    );
    check(
        "audit: a CSR cell index agreeing with the cell column is clean",
        !audit_cell_index("p2c-index", &[0, 2, 4], &[0, 0, 1, 1], 2)
            .iter()
            .any(|d| d.severity == Severity::Error),
    );
    check(
        "audit: a CSR segment disagreeing with the cell column is an Error",
        audit_cell_index("p2c-index", &[0, 2, 4], &[0, 1, 1, 1], 2)
            .iter()
            .any(|d| d.code == "index/mismatch"),
    );

    // Satellite: per-argument descriptor validation.
    let mut direct_with_map = ArgDecl::direct("x", 1, Access::Read);
    direct_with_map.map = "c2n".into();
    check(
        "decl: a direct arg naming a map fails ArgDecl::validate",
        direct_with_map.validate().is_err(),
    );

    results
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        for (desc, ok) in super::self_test() {
            assert!(ok, "self-test scenario failed: {desc}");
        }
    }
}
