//! Rebalance-trigger regression against the recorded drift trace.
//!
//! Table-driven over `results/BENCH_binding_drift.json` (the
//! committed artifact of `binding_drift_trace`): the binding-on run's
//! per-step gate decisions are recorded as a drift trace, and the
//! trace is replayed here through [`RebalancePolicy::should_rebalance`]
//! with the recorded policy. A heuristic edit that changes when
//! persistent bindings rebuild fails this test without re-running the
//! bench.

use oppic_core::json::{self, Json};
use oppic_core::{RebalanceEvent, RebalancePolicy};

fn load_artifact() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_binding_drift.json"
    );
    let src = std::fs::read_to_string(path).expect("committed bench artifact must exist");
    json::parse(&src).expect("bench artifact must be valid JSON")
}

fn recorded_policy(doc: &Json) -> RebalancePolicy {
    let p = doc.get("rebalance_policy").expect("rebalance_policy");
    let kind = p.get("kind").and_then(Json::as_str).expect("kind");
    let value = p.get("value").and_then(Json::as_f64).expect("value");
    match kind {
        "drift_fraction" => RebalancePolicy::DriftFraction(value),
        "every_n" => RebalancePolicy::EveryN(value as usize),
        "never" => RebalancePolicy::Never,
        other => panic!("unknown rebalance policy kind '{other}'"),
    }
}

fn recorded_trace(doc: &Json) -> Vec<RebalanceEvent> {
    doc.get("rebalance_trace")
        .and_then(Json::as_arr)
        .expect("rebalance_trace")
        .iter()
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Json::as_f64).expect(k);
            RebalanceEvent {
                step: num("step") as usize,
                len: num("len") as usize,
                drifted: num("drifted") as usize,
                rebuilt: e.get("rebuilt").and_then(Json::as_bool).expect("rebuilt"),
            }
        })
        .collect()
}

#[test]
fn recorded_drift_trace_replays_through_the_policy() {
    let doc = load_artifact();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oppic-bench-binding-drift-v1")
    );
    let policy = recorded_policy(&doc);
    let trace = recorded_trace(&doc);
    assert!(trace.len() >= 5, "trace too short to be meaningful");
    // The first gate decision always builds (no binding exists yet).
    assert!(trace[0].rebuilt, "first step must build the binding");
    // Every later decision is pure policy: replaying the recorded
    // (step, drifted, len) inputs must reproduce the recorded verdict.
    for e in &trace[1..] {
        assert_eq!(
            policy.should_rebalance(e.step, e.drifted, e.len),
            e.rebuilt,
            "step {}: policy {:?} disagrees with recorded verdict on \
             drifted={} len={}",
            e.step,
            policy,
            e.drifted,
            e.len
        );
    }
    // The drift trigger must actually discriminate: a trace that
    // rebuilds every step (or never again) pins nothing.
    let rebuilds = trace[1..].iter().filter(|e| e.rebuilt).count();
    assert!(rebuilds > 0, "drift trigger never fired after the build");
    assert!(
        rebuilds < trace.len() - 1,
        "drift trigger fired every step — threshold records no decision"
    );
}
