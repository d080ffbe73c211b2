//! `--record-schedule` support for CabanaPIC: run the Figure 9(b)
//! step with a [`ScheduleRecorder`] attached and package
//! the recording as the [`ScheduleTrace`] consumed by
//! `oppic-analyzer --audit-schedule`.
//!
//! The recording runs the one step body,
//! [`CabanaEngine::step_over`](crate::CabanaEngine::step_over), on one
//! rank: `Update_Ghosts` sums the current accumulator between
//! `Move_Deposit` and `AccumulateCurrent`, and stray particles migrate
//! at the end of the step. The body records both exchanges on every
//! transport, so the one-rank trace is deterministic and has the
//! identical collective sequence as a multi-rank run.

use crate::config::CabanaConfig;
use crate::dsl::CabanaPic;
use oppic_core::schedule::{LoopScope, ScheduleRecorder, ScheduleTrace};

/// Distributed-execution facts per loop: the particle mover iterates
/// owned particles and re-binds the particle→cell map; every cell loop
/// runs over the replicated grid (the in-process stand-in for halo'd
/// fields, DESIGN.md §7).
const SCOPES: &[(&str, LoopScope, bool)] = &[
    ("Interpolate", LoopScope::Replicated, false),
    ("Move_Deposit", LoopScope::Owned, true),
    ("AccumulateCurrent", LoopScope::Replicated, false),
    ("AdvanceB", LoopScope::Replicated, false),
    ("AdvanceE", LoopScope::Replicated, false),
];

/// Record `steps` steps of the CabanaPIC step schedule.
pub fn record_schedule(cfg: &CabanaConfig, steps: usize) -> ScheduleTrace {
    let rec = ScheduleRecorder::new();
    let mut sim = CabanaPic::new_dsl(cfg.clone());
    sim.schedule = Some(rec.clone());
    sim.run(steps);
    let dat_sets: Vec<(&str, &str)> = vec![
        ("pos", "particles"),
        ("vel", "particles"),
        ("weight", "particles"),
        ("E", "cells"),
        ("B", "cells"),
        ("J", "cells"),
        ("interp E", "cells"),
        ("interp B", "cells"),
        ("acc", "cells"),
    ];
    ScheduleTrace::from_recording(
        "cabana",
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
    use oppic_core::schedule::ScheduleEvent;

    #[test]
    fn recorded_schedule_has_the_distributed_step_shape() {
        let trace = record_schedule(&CabanaConfig::tiny(), 2);
        assert_eq!(trace.app, "cabana");
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
                "Interpolate",
                "Move_Deposit",
                "reduce_sum",
                "AccumulateCurrent",
                "AdvanceB",
                "AdvanceE",
                "migrate",
            ],
            "{step1:?}"
        );
    }

    #[test]
    fn recorded_schedule_audits_clean_with_expected_proofs() {
        let trace = record_schedule(&CabanaConfig::tiny(), 2);
        let audit = oppic_analyzer::audit_schedule(&trace);
        assert!(!audit.report.has_errors(), "{}", audit.report);
        assert_eq!(
            audit.report.count(oppic_analyzer::Severity::Warn),
            0,
            "{}",
            audit.report
        );
        // Fusion legality: AccumulateCurrent feeds no dat that AdvanceB
        // touches, so the pair is a fusion candidate; AdvanceB→AdvanceE
        // is not (E↔B dependence).
        assert!(audit
            .fusions
            .iter()
            .any(|f| f.first == "AccumulateCurrent" && f.second == "AdvanceB"));
        assert!(!audit
            .fusions
            .iter()
            .any(|f| f.first == "AdvanceB" && f.second == "AdvanceE"));
    }
}
