//! Persistent-binding drift trace: the per-step rebalance-gate
//! decisions of one binding-on Mini-FEM-PIC run, recorded to
//! `results/BENCH_binding_drift.json`.
//!
//! `crates/bench/tests/rebalance_regression.rs` replays the recorded
//! `(step, drifted, len)` inputs through the recorded policy, so a
//! heuristic edit that changes when bindings rebuild fails there
//! without re-running this binary.

use oppic_bench::report::{banner, scale_factor, steps};
use oppic_core::{ExecPolicy, RebalancePolicy};
use oppic_fempic::{FemPic, FemPicConfig};
use std::fmt::Write as _;

const REBALANCE_DRIFT: f64 = 0.3;

fn main() {
    banner(
        "Binding drift trace",
        "rebalance-gate decisions of a binding-on Mini-FEM-PIC run",
    );
    let n_steps = steps(10);
    let mut cfg = FemPicConfig::paper_scaled(scale_factor(0.02));
    cfg.policy = ExecPolicy::Par;
    cfg.binding = true;
    cfg.rebalance = RebalancePolicy::DriftFraction(REBALANCE_DRIFT);
    // Sort every step so the dirty counter measures per-step churn
    // (it only resets on a CSR rebuild) and the bindings are
    // cell-block aligned — the intended pairing (DESIGN.md §12).
    cfg.sort_policy = oppic_core::SortPolicy::EveryN(1);
    let mut sim = FemPic::new(cfg);
    sim.run(n_steps);
    let rebuilds = sim.rebalance_log.iter().filter(|e| e.rebuilt).count();
    println!(
        "{} step(s), {} rebuild(s) under DriftFraction({REBALANCE_DRIFT})",
        sim.rebalance_log.len(),
        rebuilds
    );
    let mut trace_rows = String::new();
    for e in &sim.rebalance_log {
        if !trace_rows.is_empty() {
            trace_rows.push_str(",\n");
        }
        let _ = write!(
            trace_rows,
            "    {{\"step\": {}, \"len\": {}, \"drifted\": {}, \"rebuilt\": {}}}",
            e.step, e.len, e.drifted, e.rebuilt
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"oppic-bench-binding-drift-v1\",\n  \"steps\": {n_steps},\n  \"rebalance_policy\": {{\"kind\": \"drift_fraction\", \"value\": {REBALANCE_DRIFT}}},\n  \"rebalance_trace\": [\n{trace_rows}\n  ]\n}}\n"
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let file = dir.join("BENCH_binding_drift.json");
        match std::fs::write(&file, &json) {
            Ok(()) => println!("recorded {}", file.display()),
            Err(e) => eprintln!("could not record {}: {e}", file.display()),
        }
    }
}
