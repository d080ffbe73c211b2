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
//! | `opp_particle_move`        | [`move_engine::move_loop`] (MH/DH)      |
//! | access modes               | [`access::Access`]                      |
//! | OpenMP backend             | [`parloop::ExecPolicy`]                 |
//! | scatter arrays / atomics / | [`deposit::DepositMethod`]              |
//! | segmented reduction        |                                         |
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
pub mod profile;
pub mod schedule;
pub mod sim;
pub mod telemetry;

pub use access::{Access, ArgDecl, Indirection, LoopDecl};
pub use binding::{partition_defect, RebalanceEvent, RebalancePolicy, ThreadBinding, WorkerSpans};
pub use checkpoint::{crc64, BinReader, BinWriter, CheckpointManifest, Crc64, ManifestMismatch};
pub use dat::Dat;
pub use decl::Registry;
pub use deposit::{
    coloring_is_valid, deposit_loop, deposit_loop_colored, deposit_loop_matrix,
    deposit_loop_sorted, gather_loop_matrix, greedy_color_cells, invert_cell_targets,
    scatter_pieces, AutoTuner, DepositMethod, Depositor, MatAccumulate, MatTile, Tally,
    TargetInverse, TunerDecision, TunerInput, MAT_TILE_WIDTH,
};
pub use move_engine::{move_loop, move_loop_direct_hop, MoveConfig, MoveResult, MoveStatus};
pub use params::Params;
pub use parloop::{par_loop, par_loop_direct1, par_loop_scatter, ExecPolicy, Space};
pub use particles::{ColId, ParticleDats, SortPolicy};
pub use plan::{LoopPlan, PlanRegistry, RaceStrategy};
pub use profile::{KernelClass, Profiler};
pub use schedule::{
    ExchangeDir, LoopScope, ScheduleEvent, ScheduleLoop, ScheduleRecorder, ScheduleTrace,
    TraceEvent, SCHEDULE_SCHEMA,
};
pub use sim::{Observable, Recoverable, Simulation};
pub use telemetry::{
    Histogram, HistogramSnapshot, KernelId, KernelStats, RunInfo, Span, Telemetry,
};
