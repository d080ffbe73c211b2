//! Resilience layer: surviving a faulty interconnect and transient
//! data corruption without silently corrupting physics.
//!
//! The production OP-PIC backends run on machines where messages are
//! effectively reliable; this layer exists for the *other* regime —
//! fault-injection campaigns, soft-error studies, and the conformance
//! harness's chaos stage — and is built from four pieces:
//!
//! * [`envelope`] — sequence-numbered, CRC-64-checksummed frames
//!   carried over the MPI shim's fault-injectable data plane
//!   ([`oppic_mpi::comm::RankCtx::send_faulty`]). Corruption is
//!   detected at decode; drops are detected by timeout.
//! * [`retry`] — [`ReliableLink`], an ack/nack + bounded-retry
//!   exchange protocol over those envelopes: exponential backoff,
//!   duplicate suppression, and typed [`ExchangeError`]s instead of
//!   hangs when the retry budget runs out.
//! * [`migrate`] — [`ReliableLink`] as an [`oppic_mpi::Transport`]:
//!   the drop/duplication/corruption-tolerant counterpart of the plain
//!   alltoallv migration and allreduce, so the apps' distributed steps
//!   run over either.
//! * [`recovery`] — [`RecoveryDriver`], checkpoint-based
//!   rollback-and-replay over any [`oppic_core::Recoverable`]
//!   simulation: periodic in-memory + on-disk checkpoints, a guarded
//!   step that restores and replays when a check fails, and recovery
//!   events published through the telemetry hub.
//!
//! The numeric guard lives next to the code it protects:
//! `ParticleDats::quarantine_nonfinite` (NaN/Inf particle quarantine,
//! from `oppic-core`). The field solve needs no guard of its own: it is
//! a direct solve that rejects a non-finite load vector and keeps the
//! previous potential (`oppic_fempic::FemSolver::solve`).

pub mod envelope;
pub mod membership;
pub mod migrate;
pub mod recovery;
pub mod retry;
pub mod shard;

pub use envelope::{decode, Frame, FrameError};
pub use membership::{agree_evict, Membership, MembershipError};
pub use migrate::LinkError;
pub use recovery::{RecoveryConfig, RecoveryDriver, RecoveryError, RecoveryEvent};
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
