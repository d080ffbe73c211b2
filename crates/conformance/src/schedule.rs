//! Whole-step schedule conformance: both applications' recorded
//! communication schedules must audit clean, and the audit itself must
//! still *detect* — a broken schedule (required reduction deleted) has
//! to fail with the expected halo-staleness Error. The second half
//! guards the guard: a dataflow analyzer that stopped flagging missing
//! exchanges would otherwise pass this stage forever.

use oppic_analyzer::{audit_schedule, Severity};
use oppic_cabana::CabanaConfig;
use oppic_core::schedule::{ExchangeDir, ScheduleEvent, ScheduleTrace};
use oppic_fempic::FemPicConfig;

/// One audited app schedule: app name, event count, and the failures
/// found.
pub struct ScheduleCheck {
    pub app: String,
    pub events: usize,
    pub failures: Vec<String>,
}

impl ScheduleCheck {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn check_trace(trace: &ScheduleTrace) -> ScheduleCheck {
    let audit = audit_schedule(trace);
    let mut failures = Vec::new();
    for d in &audit.report.diags {
        if d.severity == Severity::Error {
            failures.push(format!("{d}"));
        }
    }
    if !trace
        .events
        .iter()
        .any(|e| matches!(e.event, ScheduleEvent::Exchange { .. }))
    {
        failures.push(format!(
            "{}: schedule records no exchanges — the distributed step was not traced",
            trace.app
        ));
    }
    ScheduleCheck {
        app: trace.app.clone(),
        events: trace.events.len(),
        failures,
    }
}

/// Negative control: delete every fold (`reduce_sum` / `reverse_add`)
/// exchange from the trace and require the audit to raise at least one
/// `dataflow/halo-stale` Error.
fn check_detects_broken(trace: &ScheduleTrace) -> ScheduleCheck {
    let mut broken = trace.clone();
    broken.events.retain(|e| {
        !matches!(
            &e.event,
            ScheduleEvent::Exchange {
                dir: ExchangeDir::ReduceSum | ExchangeDir::ReverseAdd,
                ..
            }
        )
    });
    let audit = audit_schedule(&broken);
    let mut failures = Vec::new();
    if audit.report.with_code("dataflow/halo-stale").is_empty() {
        failures.push(format!(
            "{}: deleting all fold exchanges raised no dataflow/halo-stale Error — \
             the staleness detector is not protecting this schedule",
            trace.app
        ));
    }
    ScheduleCheck {
        app: format!("{}[broken]", trace.app),
        events: broken.events.len(),
        failures,
    }
}

/// Record both applications' default step schedules and audit them:
/// zero Error verdicts, at least one recorded exchange, and the
/// broken-schedule negative control still detects.
pub fn verify_schedules() -> Vec<ScheduleCheck> {
    let fempic = oppic_fempic::record_schedule(&FemPicConfig::tiny(), 2);
    let cabana = oppic_cabana::record_schedule(&CabanaConfig::tiny(), 2);
    vec![
        check_trace(&fempic),
        check_detects_broken(&fempic),
        check_trace(&cabana),
        check_detects_broken(&cabana),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_app_schedules_conform() {
        for check in verify_schedules() {
            assert!(check.passed(), "{}: {:?}", check.app, check.failures);
        }
    }

    #[test]
    fn broken_control_actually_removes_exchanges() {
        let trace = oppic_fempic::record_schedule(&FemPicConfig::tiny(), 1);
        let n = trace.events.len();
        let check = check_detects_broken(&trace);
        assert!(check.events < n, "the control must delete something");
        assert!(check.passed(), "{:?}", check.failures);
    }
}
