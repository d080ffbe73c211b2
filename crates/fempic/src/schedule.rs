//! `--record-schedule` support: run the Mini-FEM-PIC step with a
//! [`ScheduleRecorder`] attached and package the recording
//! as the [`ScheduleTrace`] that `oppic-analyzer --audit-schedule`
//! audits.
//!
//! The recording runs the one step body, [`FemPic::step_over`], on one
//! rank: the stage methods record their loop events and the body
//! records its exchanges on every transport, so one rank records the
//! identical sequence of loops and collectives as a multi-rank run
//! (every exchange is collective, so rank count changes payloads, never
//! the schedule) while keeping the trace deterministic.

use crate::config::FemPicConfig;
use crate::sim::FemPic;
use oppic_core::schedule::{LoopScope, ScheduleRecorder, ScheduleTrace};

/// Distributed-execution facts per loop: iteration scope and whether
/// the loop re-binds the particle→cell map. The loop declarations
/// themselves come from [`FemPic::loop_plans`].
const SCOPES: &[(&str, LoopScope, bool)] = &[
    ("Inject", LoopScope::Owned, false),
    ("CalcPosVel", LoopScope::Owned, false),
    ("Move", LoopScope::Owned, true),
    ("DepositCharge", LoopScope::Owned, false),
    // The replicated-field model (DESIGN.md §7): every rank runs the
    // full solve on globally reduced charge.
    ("SolvePotential", LoopScope::Replicated, false),
    ("ComputeElectricField", LoopScope::Replicated, false),
];

/// Record `steps` steps of the synchronous distributed step schedule:
/// per step — inject, push, move, migrate strays, deposit, fold the
/// node charge globally, solve.
pub fn record_schedule(cfg: &FemPicConfig, steps: usize) -> ScheduleTrace {
    let rec = ScheduleRecorder::new();
    let mut sim = FemPic::new(cfg.clone());
    sim.schedule = Some(rec.clone());
    for _ in 0..steps {
        sim.step();
    }
    let charge = sim.node_charge.name().to_string();
    let efield = sim.efield.name().to_string();
    let dat_sets: Vec<(&str, &str)> = vec![
        ("pos", "particles"),
        ("vel", "particles"),
        ("lc", "particles"),
        (&charge, "nodes"),
        ("potential", "nodes"),
        (&efield, "cells"),
        ("cell_det", "cells"),
    ];
    ScheduleTrace::from_recording(
        "fempic",
        &sim.loop_plans(),
        SCOPES,
        &["particles"],
        &dat_sets,
        &rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::schedule::{ExchangeDir, ScheduleEvent};

    #[test]
    fn recorded_schedule_has_the_distributed_step_shape() {
        let trace = record_schedule(&FemPicConfig::tiny(), 2);
        assert_eq!(trace.app, "fempic");
        assert_eq!(trace.steps, 2);
        let step1: Vec<String> = trace
            .events
            .iter()
            .filter(|e| e.step == 1)
            .map(|e| match &e.event {
                ScheduleEvent::Loop { name } => name.clone(),
                ScheduleEvent::Exchange { dir, .. } => dir.label().to_string(),
            })
            .collect();
        assert_eq!(
            step1,
            vec![
                "Inject",
                "CalcPosVel",
                "Move",
                "migrate",
                "DepositCharge",
                "reduce_sum",
                "SolvePotential",
                "ComputeElectricField",
            ],
            "{step1:?}"
        );
        // Every recorded loop has a declared plan in the trace.
        for e in &trace.events {
            if let ScheduleEvent::Loop { name } = &e.event {
                assert!(trace.loop_named(name).is_some(), "undeclared loop {name}");
            }
        }
        // The reduce is tagged with its call site.
        assert!(trace.events.iter().any(|e| matches!(
            &e.event,
            ScheduleEvent::Exchange { dir: ExchangeDir::ReduceSum, tag, .. }
                if tag == "fempic/node_charge"
        )));
    }

    #[test]
    fn recorded_schedule_audits_clean() {
        let trace = record_schedule(&FemPicConfig::tiny(), 2);
        let audit = oppic_analyzer::audit_schedule(&trace);
        assert!(
            !audit.report.has_errors(),
            "fempic schedule must be error-free:\n{}",
            audit.report
        );
        assert_eq!(
            audit.report.count(oppic_analyzer::Severity::Warn),
            0,
            "{}",
            audit.report
        );
    }
}
