//! # oppic-core — the OP-PIC DSL
//!
//! This crate is the Rust reproduction of the OP-PIC abstraction
//! (Lantra, Wright & Mudalige, ICPP '24): a loop-level DSL for
//! unstructured-mesh particle-in-cell codes. The paper's C++ API uses a
//! clang-based source-to-source translator to specialise each
//! `opp_par_loop` / `opp_particle_move` per backend; here the same
//! specialisation is done by Rust generics and monomorphisation (see
//! DESIGN.md — substitutions).
//!
//! The DSL surface maps onto the paper as follows:
//!
//! | paper                      | this crate                              |
//! |----------------------------|-----------------------------------------|
//! | `opp_decl_set`             | [`decl::SetDecl`] (+ plain sizes)       |
//! | `opp_decl_particle_set`    | [`particles::ParticleDats`]             |
//! | `opp_decl_map`             | [`decl::MapDecl`] + app-held tables     |
//! | `opp_decl_dat`             | [`dat::Dat`] / particle columns         |
//! | `opp_par_loop` (direct)    | [`parloop::par_loop`] over a [`Space`]  |
//! | `opp_par_loop` (indirect ↑)| [`deposit::deposit_loop`]               |
//! | `opp_particle_move`        | [`move_engine::move_loop`] (MH/DH, a    |
//! |                            | `probe`/`exit` kernel pair, a written   |
//! |                            | `&mut` window per particle)             |
//! | access modes               | [`access::Access`]                      |
//! | OpenMP backend             | [`parloop::ExecPolicy`]                 |
//! | scatter arrays / atomics / | [`deposit::DepositMethod`]              |
//! | segmented reduction        |                                         |
//! | code instrumentation       | [`telemetry::Telemetry`] (spans, the    |
//! | (Section 4.1.2)            | kernel table, counters, JSONL sink)     |
//!
//! Everything race-prone (indirect increments, particle relocation,
//! hole filling) lives behind these executors, so an application is
//! written exactly as the paper promises: "a serial implementation
//! without worrying about data races, synchronizations, or explicit
//! data copies".

pub mod access;
pub mod binding;
pub mod checkpoint;
pub mod dat;
pub mod decl;
#[macro_use]
pub mod macros;
pub mod deposit;
pub mod json;
pub mod move_engine;
pub mod params;
pub mod parloop;
pub mod particles;
pub mod plan;
pub mod schedule;
pub mod sim;
pub mod telemetry;

pub use access::{Access, ArgDecl, Indirection, LoopDecl};
pub use binding::{partition_defect, RebalanceEvent, RebalancePolicy, ThreadBinding, WorkerSpans};
pub use checkpoint::{crc64, BinReader, BinWriter, CheckpointManifest, Crc64, ManifestMismatch};
pub use dat::Dat;
pub use decl::Registry;
pub use deposit::{
    coloring_is_valid, deposit_loop, deposit_loop_colored, greedy_color_cells, scatter_pieces,
    AutoTuner, Contributions, DepositMethod, Tally, TunerDecision, TunerInput,
};
pub use move_engine::{move_loop, Items, MoveConfig, MoveResult, Seed};
pub use params::Params;
pub use parloop::{par_loop, par_loop_direct1, par_loop_scatter, ExecPolicy, Fixed, Space};
pub use particles::{ColId, ParticleDats, SortPolicy};
pub use plan::{LoopPlan, PlanRegistry, RaceStrategy};
pub use schedule::{
    ExchangeDir, LoopScope, ScheduleEvent, ScheduleLoop, ScheduleRecorder, ScheduleTrace,
    TraceEvent, SCHEDULE_SCHEMA,
};
pub use sim::{Observable, Recoverable, Simulation};
pub use telemetry::{
    Histogram, HistogramSnapshot, KernelClass, KernelStats, Profiler, RunInfo, Span, Telemetry,
};

/// What the kernels report reaches the hub behind [`Profiler::telemetry`],
/// the handle the benchmark harness reads.
#[cfg(test)]
mod profile {
    mod tests {
        use crate::telemetry::add_call;
        use crate::Profiler;
        use std::sync::Arc;
        use std::time::Duration;

        #[test]
        fn time_and_record() {
            let p = Profiler::default();
            let tel = p.telemetry();
            {
                let _s = tel.span("Move");
                std::thread::sleep(Duration::from_millis(5));
            }
            let st = tel.get("Move").unwrap();
            assert_eq!(st.calls, 1);
            assert!(st.seconds >= 0.004, "{}", st.seconds);
            add_call(tel, "Move", Duration::from_millis(1));
            assert_eq!(p.telemetry().get("Move").unwrap().calls, 2);
        }

        #[test]
        fn traffic_and_derived_metrics() {
            let p = Profiler::default();
            let tel = p.telemetry();
            add_call(tel, "DepositCharge", Duration::from_secs_f64(0.5));
            tel.add_traffic("DepositCharge", 1_000_000_000, 250_000_000);
            let st = tel.get("DepositCharge").unwrap();
            assert!((st.arithmetic_intensity().unwrap() - 0.25).abs() < 1e-12);
            assert!((st.gbytes_per_s().unwrap() - 2.0).abs() < 1e-9);
            assert!((st.gflops().unwrap() - 0.5).abs() < 1e-9);
        }

        #[test]
        fn missing_counters_yield_none() {
            let p = Profiler::default();
            let tel = p.telemetry();
            add_call(tel, "k", Duration::from_millis(1));
            let st = tel.get("k").unwrap();
            assert!(st.arithmetic_intensity().is_none());
            assert!(st.gflops().is_none());
            assert!(st.gbytes_per_s().is_none());
            // Traffic but no time: intensity only.
            tel.add_traffic("untimed", 8, 2);
            let st = tel.get("untimed").unwrap();
            assert!((st.arithmetic_intensity().unwrap() - 0.25).abs() < 1e-12);
            assert!(st.gflops().is_none());
            assert!(st.gbytes_per_s().is_none());
        }

        #[test]
        fn trace_log_is_capped_with_drop_count() {
            let p = Profiler::default();
            let tel = p.telemetry();
            tel.set_trace_cap(8);
            for i in 0..20 {
                tel.trace("DepositCharge", format!("decision {i}"));
            }
            let traces = tel.traces();
            assert_eq!(traces.len(), 8);
            assert_eq!(traces.last().unwrap().1, "decision 19");
            assert_eq!(tel.traces_dropped(), 12);
            assert!(tel.breakdown_table().contains("12 older traces dropped"));
        }

        #[test]
        fn breakdown_renders() {
            let p = Profiler::default();
            let tel = p.telemetry();
            add_call(tel, "Move", Duration::from_millis(30));
            tel.add_traffic("Move", 1 << 30, 1 << 20);
            add_call(tel, "AdvanceE", Duration::from_millis(10));
            let table = tel.breakdown_table();
            let row = |k: &str| {
                table
                    .lines()
                    .find(|l| l.starts_with(k))
                    .unwrap()
                    .to_string()
            };
            // Move: 1 call, 0.03 s, 75% of the total, 1 GiB / 0.03 s.
            assert!(row("Move").contains("75.0%"), "{table}");
            assert!(row("Move").contains("35.79"), "{table}");
            // AdvanceE has no traffic: no rates.
            assert!(row("AdvanceE").contains("25.0%"), "{table}");
            assert!(row("AdvanceE").ends_with('-'), "{table}");
            assert!(row("TOTAL").contains("0.0400"), "{table}");
        }

        #[test]
        fn profiler_is_thread_safe() {
            let p = Arc::new(Profiler::default());
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let p = p.clone();
                    s.spawn(move || {
                        for _ in 0..100 {
                            add_call(p.telemetry(), "k", Duration::from_nanos(100));
                            p.telemetry().add_traffic("k", 8, 1);
                        }
                    });
                }
            });
            let st = p.telemetry().get("k").unwrap();
            assert_eq!((st.calls, st.bytes, st.flops), (800, 6400, 800));
        }
    }
}
