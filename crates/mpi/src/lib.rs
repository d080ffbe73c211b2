//! # oppic-mpi — the distributed-memory runtime
//!
//! The paper's distributed level is classic MPI: mesh partitioning,
//! owner-compute halos, particle migration with pack/ship/unpack, and
//! an MPI-RMA global move that finds target ranks through the direct-hop
//! overlay's rank-map. This crate runs that level in-process: **ranks
//! are OS threads**, messages are `Vec<f64>` frames on `std::sync::mpsc`
//! channels, and the collectives (barrier, allreduce, alltoallv) are
//! built on top (the substitution documented in DESIGN.md §2).
//!
//! Every rank holds the whole mesh, so there are no ghost cells: a
//! node-charge allreduce stands in for the halo exchange, the move
//! finishes on the local rank (direct-hop included), and particles in
//! foreign-owned cells leave through one alltoallv migration
//! ([`Transport::migrate`]). The halos, rank-map and RMA global move
//! are not built.
//!
//! * [`comm`] — the communicator: point-to-point sends, barriers,
//!   reductions and alltoallv, plus the fault-injectable data plane
//!   and the lease, proposal and stable-store boards the resilience
//!   layer uses.
//! * [`partition`] — the paper's custom partitioner ("along the
//!   principal direction of motion of particles", as in PUMIPic), plus
//!   recursive coordinate bisection and a greedy graph-growing k-way
//!   partitioner as the ParMETIS stand-in.
//! * [`exchange`] — particle migration: the one migration body
//!   ([`exchange::exchange`]), the alltoallv path over it, and the [`Transport`]
//!   trait the apps' one step body is generic over ([`Local`] for one
//!   rank, [`Plain`] for many).
//! * [`app`] — [`RankApp`], what the N-rank run loops of
//!   `oppic-resilience` need from an app.

pub mod app;
pub mod comm;
pub mod exchange;
pub mod fault;
pub mod heartbeat;
pub mod partition;

pub use app::RankApp;
pub use comm::{world_run, world_run_faulty, RankCtx};
pub use exchange::{migrate_particles, Local, MigrationStats, Plain, RaggedPayload, Transport};
pub use fault::{mix64, FaultAction, FaultKind, FaultSchedule, FaultSpec};
pub use heartbeat::{beat_jitter, FailureDetector, HeartbeatConfig};
pub use partition::{
    directional_partition, graph_growing_partition, rcb_partition, PartitionStats,
};
