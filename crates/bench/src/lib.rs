//! # oppic-bench — the evaluation harness
//!
//! One binary per paper table/figure and per committed `results/`
//! artifact (see `src/bin/`), plus shared reporting helpers
//! ([`report`]). The N-rank runs of fig13, fig14 and the MTTR binary
//! step the library's run loops in `oppic-resilience`
//! (`run_distributed`, `run_scenario`); [`distributed`] only keeps
//! `run_fempic_distributed`, the name the benchmark package calls.
//! Nothing but these binaries depends on this crate.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig09a_fempic_breakdown`   | Figure 9(a) runtime breakdown |
//! | `fig09b_cabana_breakdown`   | Figure 9(b) runtime breakdown |
//! | `table01_utilization`       | Table 1 device utilisation |
//! | `fig10_fempic_roofline`     | Figure 10 rooflines |
//! | `fig11_cabana_roofline`     | Figure 11 rooflines |
//! | `fig12_cabana_vs_original`  | Figure 12 DSL vs structured |
//! | `fig13_fempic_weak_scaling` | Figure 13 weak scaling |
//! | `fig14_cabana_weak_scaling` | Figure 14 weak scaling |
//! | `fig15_power_equivalent`    | Figure 15 power equivalence |
//! | `ablation_move_strategies`  | §4.2 MH vs DH (~20% claim) |
//! | `ablation_deposit_strategies` | §3.3/§4.1.1 AT/UA/SR/SA |
//! | `fig_rank_failure_mttr`     | rank-kill MTTR → `results/BENCH_rank_failure_mttr.json` |
//! | `bench_obs_overhead`        | observability-plane overhead gate (`./ci.sh obs`) |
//! | `bench_overlay_build`       | direct-hop overlay set-up time → `results/BENCH_overlay_build.json` |
//! | `binding_drift_trace`       | rebalance-gate trace → `results/BENCH_binding_drift.json` |
//! | `oppic-report`              | telemetry JSONL → breakdown / roofline CSV / step timings |

pub mod analysis;
pub mod distributed;
pub mod report;
pub mod telemetry_report;
