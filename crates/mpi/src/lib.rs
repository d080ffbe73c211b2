//! # oppic-mpi — the distributed-memory runtime
//!
//! The paper's distributed level is classic MPI: mesh partitioning,
//! owner-compute halos, particle migration with pack/ship/unpack, and
//! an RMA window for the direct-hop global move. This crate reproduces
//! all of those algorithms in-process: **ranks are OS threads**,
//! messages travel over typed crossbeam channels, and collective
//! operations (barrier, allreduce, alltoallv) are implemented on top —
//! the identical code paths at rank-count parametric scale (the
//! substitution documented in DESIGN.md).
//!
//! * [`comm`] — the communicator: point-to-point sends, barriers,
//!   reductions, gathers, and an RMA-style shared window.
//! * [`partition`] — the paper's custom partitioner ("along the
//!   principal direction of motion of particles", as in PUMIPic), plus
//!   recursive coordinate bisection and a greedy graph-growing k-way
//!   partitioner as the ParMETIS stand-in.
//! * [`halo`] — import/export list construction from a partition and a
//!   cell→cell map, local renumbering, and halo exchange executors
//!   (forward ghost-read and reverse accumulate).
//! * [`exchange`] — particle migration: the one pack / hole-fill /
//!   unpack codec, the plain alltoallv and RMA paths over it, and the
//!   [`Transport`] trait the apps' distributed steps are generic over.

pub mod comm;
pub mod exchange;
pub mod fault;
pub mod halo;
pub mod heartbeat;
pub mod overlap;
pub mod partition;

pub use comm::{world_run, world_run_faulty, Message, RankCtx};
pub use exchange::{
    migrate_particles, migrate_particles_begin, MigrationHandle, MigrationStats, Plain,
    RaggedPayload, Transport,
};
pub use fault::{mix64, FaultAction, FaultKind, FaultSchedule, FaultSpec};
pub use halo::{validate_plan_symmetry, HaloError, HaloExchangePlan, RankMesh};
pub use heartbeat::{beat_jitter, FailureDetector, HeartbeatConfig};
pub use overlap::{GateProof, OverlapForm, OverlapGate};
pub use partition::{
    directional_partition, graph_growing_partition, rcb_partition, PartitionStats,
};
