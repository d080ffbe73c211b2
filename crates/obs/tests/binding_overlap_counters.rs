//! The persistent thread binding (DESIGN.md §12) publishes its health
//! signal — `binding.rebalances` when a binding is rebuilt — through
//! the same thread-local telemetry hook the executors use. This test
//! pins the full flow: counters fired via
//! `oppic_core::telemetry::count` on the current hub surface in the
//! `/metrics` exposition as `oppic_events_total` samples, and the
//! rendered text passes the exporter's own schema audit. Dashboards
//! watching rebalance churn need no new plumbing.

use oppic_core::telemetry::{self, Telemetry};
use oppic_obs::{audit_exposition, MetricsRegistry};
use std::sync::Arc;

#[test]
fn binding_counters_flow_to_the_metrics_exposition() {
    let tel = Arc::new(Telemetry::new());
    {
        // Same publication path as ThreadBinding::from_cell_index: the
        // thread-local current hub.
        let _guard = tel.make_current();
        telemetry::count("binding.rebalances", 3);
    }
    assert_eq!(tel.counter("binding.rebalances"), 3);

    let reg = MetricsRegistry::new(tel, "fempic", 4);
    let text = reg.render();
    audit_exposition(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
    assert!(
        text.contains("oppic_events_total{name=\"binding.rebalances\"} 3"),
        "{text}"
    );
}

#[test]
fn counters_off_the_current_hub_stay_silent() {
    // Without a current hub the hook is a no-op — a driver running
    // with telemetry off must not poison a later exposition.
    telemetry::count("binding.rebalances", 7);
    let tel = Arc::new(Telemetry::new());
    let text = MetricsRegistry::new(tel, "fempic", 1).render();
    assert!(!text.contains("binding.rebalances"), "{text}");
}
