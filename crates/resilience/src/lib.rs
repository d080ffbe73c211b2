//! Resilience layer: surviving a faulty interconnect, rank death and
//! transient data corruption without silently corrupting physics.
//!
//! The production OP-PIC backends run on machines where messages are
//! effectively reliable; this layer exists for the *other* regime —
//! fault-injection campaigns, soft-error studies, and the conformance
//! harness's chaos stage — and is built from these pieces:
//!
//! * [`envelope`] — sequence-numbered, CRC-64-checksummed frames
//!   carried over the MPI shim's fault-injectable data plane
//!   ([`oppic_mpi::comm::RankCtx::send_faulty`]). Corruption is
//!   detected at decode; drops are detected by timeout.
//! * [`retry`] — [`ReliableLink`], an ack/nack + bounded-retry
//!   exchange protocol over those envelopes: exponential backoff,
//!   duplicate suppression, and typed [`ExchangeError`]s instead of
//!   hangs when the retry budget runs out.
//! * [`migrate`] — [`Reliable`], the reliable link as an
//!   [`oppic_mpi::Transport`]: the drop/duplication/corruption-tolerant
//!   counterpart of the plain alltoallv migration and allreduce, so the
//!   apps' one step body runs over either.
//! * [`membership`] — [`Membership`] epochs and [`agree_evict`], the
//!   shrink agreement survivors of a dead rank commit over the
//!   proposal board.
//! * [`shard`] — coordinated per-rank checkpoint shards on the stable
//!   store, CRC-checked on every read.
//!
//! Over these pieces sit the library's two N-rank run loops, generic
//! over any [`oppic_mpi::RankApp`] (both apps implement it):
//!
//! * [`distributed`] — [`run_distributed`], the plain loop: the app's
//!   step over [`oppic_mpi::Plain`], with no link, detector or shard;
//! * [`rankfail`] — [`run_scenario`], the resilient loop: the step over
//!   [`Reliable`], checkpointed to shards and rewound after a failed
//!   collective or a failed soft-error check. Every chaos cell and
//!   rank-failure experiment runs it (DESIGN.md §13).
//!
//! The numeric guard lives next to the code it protects:
//! `ParticleDats::quarantine_nonfinite` (NaN/Inf particle quarantine,
//! from `oppic-core`). The field solve needs no guard of its own: it is
//! a direct solve that rejects a non-finite load vector and keeps the
//! previous potential (`oppic_fempic::FemSolver::solve`).

pub mod distributed;
pub mod envelope;
pub mod membership;
pub mod migrate;
pub mod rankfail;
pub mod retry;
pub mod shard;

pub use distributed::{run_distributed, DistributedReport, RankReport};
pub use envelope::{decode, Frame, FrameError};
pub use membership::{agree_evict, Membership, MembershipError};
pub use migrate::{LinkError, Reliable};
pub use rankfail::{
    classify_shrink, run_scenario, ChaosVerdict, DeathPolicy, Fault, KillSite, RankAbort,
    RankFailScenario, RankFinal,
};
pub use retry::{retry_jitter, ExchangeError, ReliableLink, RetryPolicy};
pub use shard::{
    decode_shard, encode_shard, latest_common_version, read_shard, write_shard, ShardError,
};

// The fault-injection half of the layer, re-exported from the MPI
// shim so chaos drivers need one dependency only.
pub use oppic_mpi::{
    world_run_faulty, FailureDetector, FaultAction, FaultKind, FaultSchedule, FaultSpec,
    HeartbeatConfig,
};
