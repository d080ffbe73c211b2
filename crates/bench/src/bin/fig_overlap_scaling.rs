//! Overlap scaling (Figure 13/14 companion): proof-gated async
//! migration overlap vs the synchronous fallback on the Mini-FEM-PIC
//! weak-scaling configuration.
//!
//! The in-process ranks exchange through shared memory, so the network
//! service time the paper's overlap hides is *modeled*: every step's
//! migration window is charged `latency` (calibrated below to the
//! measured per-step compute time, the regime where overlap pays). The
//! sync driver waits it out serially; the overlap driver — only when
//! the committed analyzer report carries a split proof for
//! `DepositCharge` against the migrate exchange — hides it behind the
//! interior deposit partition. Both orders are bit-identical (see
//! `oppic_bench::distributed` tests), so the comparison is pure
//! schedule.
//!
//! Also records the persistent-binding rebalance drift trace from a
//! single-process binding-on run; `crates/bench/tests/
//! rebalance_regression.rs` replays both artifacts out of
//! `results/BENCH_overlap_scaling.json`.

use oppic_bench::distributed::run_fempic_distributed_overlap;
use oppic_bench::report::{banner, scale_factor, steps};
use oppic_core::{ExchangeDir, ExecPolicy, RebalancePolicy};
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mpi::{OverlapForm, OverlapGate};
use std::fmt::Write as _;
use std::time::Duration;

const REPORT_PATH: &str = "results/schedule/fempic_schedule_report.json";
const REBALANCE_DRIFT: f64 = 0.3;

fn main() {
    banner(
        "Overlap scaling",
        "proof-gated async migration overlap vs sync fallback (Mini-FEM-PIC weak scaling)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(10);
    let base = FemPicConfig::paper_scaled(scale);

    // ---- Proof gate from the committed analyzer artifact ----
    let gate = OverlapGate::from_report_path(std::path::Path::new(REPORT_PATH));
    let whole = FemPic::migrate_form(&gate) == OverlapForm::Whole;
    let split = gate.allows_split(
        "particles",
        ExchangeDir::Migrate,
        "fempic/migrate",
        "DepositCharge",
    );
    let form = match FemPic::migrate_form(&gate) {
        OverlapForm::Whole => "whole (migrate window hidden behind SolvePotential)",
        OverlapForm::Split => "split (interior/boundary DepositCharge)",
        OverlapForm::None => "none (sync fallback everywhere; regenerate the report via ci.sh)",
    };
    println!("proof gate: {REPORT_PATH} -> form: {form}");

    // ---- Measured sync vs overlap, weak scaling over ranks ----
    // The modeled exchange latency is calibrated *per rank count* to
    // 3/4 of the measured per-step compute time at that rank count
    // (a zero-latency probe run), so the network service time stays
    // comparable to the work available to hide it behind even as host
    // contention grows with the thread count.
    println!(
        "{:>6} {:>13} {:>14} {:>14} {:>9}",
        "ranks", "latency (ms)", "sync (s)", "overlap (s)", "speedup"
    );
    let closed = OverlapGate::closed();
    let mut rank_rows = String::new();
    let mut speedup_at_8 = 0.0;
    let mut latency = Duration::ZERO;
    for r in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.inject_per_step = base.inject_per_step * r;
        let probe = run_fempic_distributed_overlap(&cfg, r, n_steps, &closed, Duration::ZERO);
        let step_s = probe.main_loop_seconds / n_steps as f64;
        latency = Duration::from_secs_f64((0.75 * step_s).clamp(2e-3, 0.25));
        let sync = run_fempic_distributed_overlap(&cfg, r, n_steps, &closed, latency);
        let over = run_fempic_distributed_overlap(&cfg, r, n_steps, &gate, latency);
        if whole && r > 1 {
            // The whole form moves deposit attribution across ranks
            // (arrivals deposit pre-ship), so the reduction fold order
            // differs: same physics to reduction tolerance. The split
            // form's bit-identity is asserted in the crate tests and
            // the conformance matrix.
            let qs = sync.check_scalar / sync.total_particles.max(1) as f64;
            let qo = over.check_scalar / over.total_particles.max(1) as f64;
            assert!((qs - qo).abs() < 1e-10, "{qs} vs {qo}");
        } else {
            assert_eq!(
                sync.check_scalar.to_bits(),
                over.check_scalar.to_bits(),
                "overlap must be bit-identical to sync"
            );
        }
        let speedup = sync.main_loop_seconds / over.main_loop_seconds;
        if r == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "{:>6} {:>13.1} {:>14.4} {:>14.4} {:>8.2}x",
            r,
            latency.as_secs_f64() * 1e3,
            sync.main_loop_seconds,
            over.main_loop_seconds,
            speedup
        );
        if !rank_rows.is_empty() {
            rank_rows.push_str(",\n");
        }
        let _ = write!(
            rank_rows,
            "    {{\"n_ranks\": {r}, \"latency_us\": {}, \"sync_seconds\": {:.6}, \"overlap_seconds\": {:.6}, \"speedup\": {:.4}}}",
            latency.as_micros(), sync.main_loop_seconds, over.main_loop_seconds, speedup
        );
    }
    println!(
        "\noverlap hides the modeled exchange behind proven-independent compute\n\
         (whole form: the field solve; split form: the interior deposit, with the\n\
         boundary partition deposited post-drain) — same physics, less wall."
    );

    // ---- Rebalance drift trace (persistent-binding companion) ----
    // A binding-on single-process run; the per-step gate decisions are
    // the drift trace the regression test replays.
    let mut cfg = base.clone();
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
        "\nbinding drift trace: {} step(s), {} rebuild(s) under DriftFraction({REBALANCE_DRIFT})",
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

    // ---- Record ----
    let json = format!(
        "{{\n  \"schema\": \"oppic-bench-overlap-scaling-v1\",\n  \"proof_source\": \"{REPORT_PATH}\",\n  \"whole_proven\": {whole},\n  \"split_proven\": {split},\n  \"modeled_latency_us\": {},\n  \"steps\": {n_steps},\n  \"ranks\": [\n{rank_rows}\n  ],\n  \"speedup_at_8\": {speedup_at_8:.4},\n  \"rebalance_policy\": {{\"kind\": \"drift_fraction\", \"value\": {REBALANCE_DRIFT}}},\n  \"rebalance_trace\": [\n{trace_rows}\n  ]\n}}\n",
        latency.as_micros()
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let file = dir.join("BENCH_overlap_scaling.json");
        match std::fs::write(&file, &json) {
            Ok(()) => println!("recorded {}", file.display()),
            Err(e) => eprintln!("could not record {}: {e}", file.display()),
        }
    }
    println!("\nspeedup at 8 ranks: {speedup_at_8:.2}x (acceptance floor 1.15x)");
}
