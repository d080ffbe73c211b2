//! [`ReliableLink`]: detection and bounded retry over the envelope
//! protocol.
//!
//! One link per rank turns the shim's faulty data plane into an
//! exactly-once exchange primitive: every payload is wrapped in a
//! checksummed [`crate::envelope::Frame`], receipt is
//! acknowledged on the reliable control plane (plain `send` — the
//! fault injector only touches `send_faulty`), corrupt frames are
//! nack'd for immediate retransmission, and a timeout with
//! exponential backoff re-sends anything unacknowledged. Delivery is
//! deduplicated by `(source, round)`, so duplication and reordering
//! faults collapse to the fault-free result. When the retry budget
//! runs out the exchange returns a typed [`ExchangeError`] — never a
//! hang, never silently-partial data.

use crate::envelope::{decode, encode_ack, encode_data, encode_nack, Frame};
use crate::membership::Membership;
use oppic_core::telemetry;
use oppic_mpi::comm::RankCtx;
use oppic_mpi::mix64;
use std::fmt;
use std::time::{Duration, Instant};

/// Retry/backoff knobs for one [`ReliableLink`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retransmissions allowed per destination after the initial send
    /// (0 = detection only, first loss aborts the exchange).
    pub max_retries: usize,
    /// Timeout before the first retransmission; grows by `backoff`
    /// after each expiry.
    pub base_timeout: Duration,
    /// Multiplier applied to the timeout on every expiry.
    pub backoff: f64,
    /// Deterministic timeout jitter amplitude in `[0, 1)`: each wait
    /// is scaled by a factor in `[1 - jitter, 1 + jitter)` drawn pure
    /// in `(seed, rank, round, attempt)`. Desynchronises retransmit
    /// storms — without it a lost broadcast makes every rank retry in
    /// lockstep, and the resulting congestion is indistinguishable
    /// from a dead peer to the failure detector.
    pub jitter: f64,
    /// Seed for the jitter draws (same seed ⇒ same timing decisions,
    /// so chaos runs replay).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_timeout: Duration::from_millis(5),
            backoff: 2.0,
            jitter: 0.25,
            seed: 0x5EED,
        }
    }
}

/// Deterministic retry-jitter factor in `[1 - jitter, 1 + jitter)`,
/// pure in `(seed, rank, round, attempt)`.
pub fn retry_jitter(seed: u64, jitter: f64, rank: usize, round: u64, attempt: usize) -> f64 {
    if jitter <= 0.0 {
        return 1.0;
    }
    let h = mix64(seed ^ ((rank as u64) << 40) ^ (round << 16) ^ attempt as u64);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 - jitter + 2.0 * jitter * u
}

/// Longest the backoff is allowed to stretch a single wait.
const MAX_TIMEOUT: Duration = Duration::from_millis(500);

/// Upper bound on how long an exchange blocks between lease renewals.
/// Must sit well under any sane death deadline (see
/// [`oppic_mpi::HeartbeatConfig::death_deadline`]) so a rank inside a
/// collective always looks alive to the failure detector.
const LEASE_SLICE: Duration = Duration::from_millis(10);

/// Typed failure of a reliable exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The retry budget ran out with peers still unheard-from or
    /// unacknowledged.
    RetriesExhausted {
        rank: usize,
        round: u64,
        /// Sources whose payload never arrived intact.
        missing_from: Vec<usize>,
        /// Destinations that never acknowledged our payload.
        unacked_to: Vec<usize>,
        /// Retransmission attempts spent.
        attempts: usize,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::RetriesExhausted {
                rank,
                round,
                missing_from,
                unacked_to,
                attempts,
            } => write!(
                f,
                "rank {rank} round {round}: retries exhausted after {attempts} attempts \
                 (missing from {missing_from:?}, unacked to {unacked_to:?})"
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Per-rank reliable exchange endpoint. Rounds are implicit: every
/// call to [`exchange`](ReliableLink::exchange) (directly or through
/// [`allreduce_vec_sum`](ReliableLink::allreduce_vec_sum) /
/// [`migrate`](ReliableLink::migrate))
/// consumes the next round number, so SPMD code that makes the same
/// sequence of collective calls on every rank stays tag-aligned
/// automatically.
pub struct ReliableLink {
    policy: RetryPolicy,
    next_round: u64,
    /// Data frames that arrived for a round we haven't entered yet
    /// (the peer raced ahead); delivered when their round starts.
    stashed: Vec<(usize, u64, Vec<f64>)>,
    /// Membership epoch stamped into every outgoing frame; incoming
    /// frames from any other epoch are dropped and counted, never
    /// applied (the zombie fence — DESIGN.md §13).
    epoch: u64,
    /// Live ranks after shrinks (`None` = the full initial world).
    members: Option<Vec<usize>>,
}

impl ReliableLink {
    pub fn new(policy: RetryPolicy) -> Self {
        ReliableLink {
            policy,
            next_round: 0,
            stashed: Vec::new(),
            epoch: 0,
            members: None,
        }
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Rounds completed or started so far.
    pub fn rounds(&self) -> u64 {
        self.next_round
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Install a post-shrink membership: adopts its epoch, restricts
    /// collectives to its members, clears the stash (stashed frames
    /// belong to the pre-shrink epoch), and restarts the round
    /// counter — survivors replay from the checkpoint with aligned
    /// tags while stale-epoch traffic bounces off the fence.
    pub fn install_membership(&mut self, m: &Membership) {
        self.epoch = m.epoch();
        self.members = Some(m.members().to_vec());
        self.stashed.clear();
        self.next_round = 0;
    }

    /// Collective root: the lowest live rank.
    pub fn leader(&self) -> usize {
        self.members.as_deref().map_or(0, |m| m[0])
    }

    /// Live peers of `rank` under the installed membership (all other
    /// ranks when none is installed).
    pub fn live_peers(&self, ctx: &RankCtx) -> Vec<usize> {
        match &self.members {
            Some(m) => m.iter().copied().filter(|&r| r != ctx.rank).collect(),
            None => (0..ctx.n_ranks).filter(|&r| r != ctx.rank).collect(),
        }
    }

    /// Live member count.
    pub fn n_live(&self, ctx: &RankCtx) -> usize {
        self.members.as_deref().map_or(ctx.n_ranks, <[usize]>::len)
    }

    /// One reliable exchange round: ship `sends[i] = (dst, payload)`
    /// and wait for exactly one payload from every rank in
    /// `recv_from`, returned in `recv_from` order.
    ///
    /// Collective in the pairwise sense: if rank A sends to B, rank B
    /// must list A in `recv_from` on its matching call. An entry with
    /// `dst == self` is delivered locally (and must then appear in
    /// `recv_from` to be observed).
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx,
        sends: &[(usize, Vec<f64>)],
        recv_from: &[usize],
    ) -> Result<Vec<Vec<f64>>, ExchangeError> {
        let round = self.next_round;
        self.next_round += 1;

        let mut got: Vec<Option<Vec<f64>>> = vec![None; recv_from.len()];
        let mut acked: Vec<bool> = vec![false; sends.len()];
        let mut tries: Vec<usize> = vec![0; sends.len()];

        for (si, (dst, payload)) in sends.iter().enumerate() {
            if *dst == ctx.rank {
                if let Some(ri) = recv_from.iter().position(|&s| s == ctx.rank) {
                    got[ri] = Some(payload.clone());
                }
                acked[si] = true;
            } else {
                ctx.send_faulty(*dst, encode_data(0, round, self.epoch, payload));
            }
        }

        // Frames for this round that arrived while we were still in an
        // earlier one.
        self.stashed.retain(|(src, tag, payload)| {
            if *tag != round {
                return true;
            }
            if let Some(ri) = recv_from.iter().position(|s| s == src) {
                if got[ri].is_none() {
                    got[ri] = Some(payload.clone());
                }
            }
            false
        });

        let complete = |got: &[Option<Vec<f64>>], acked: &[bool]| {
            got.iter().all(Option::is_some) && acked.iter().all(|&a| a)
        };

        let mut timeout = self.policy.base_timeout;
        let mut attempt = 0usize;
        loop {
            if complete(&got, &acked) {
                return Ok(got.into_iter().flatten().collect());
            }
            let wait = timeout.mul_f64(retry_jitter(
                self.policy.seed,
                self.policy.jitter,
                ctx.rank,
                round,
                attempt,
            ));
            let deadline = Instant::now() + wait;
            // Wait in short slices, renewing our lease between them:
            // the progress engine feeds the failure detector, so a
            // rank blocked in a collective (even one whose retransmit
            // timer dwarfs the death deadline) is never mistaken for
            // dead by a peer that reached its own timeout first.
            'wait: loop {
                ctx.lease_renew();
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let slice = LEASE_SLICE.min(deadline - now);
                while let Some((src, msg)) = ctx.recv_any_deadline(now + slice) {
                    self.handle(
                        ctx, round, src, &msg, sends, recv_from, &mut got, &mut acked, &mut tries,
                    )?;
                    if complete(&got, &acked) {
                        break 'wait;
                    }
                }
            }
            if complete(&got, &acked) {
                continue;
            }
            // Timeout with work outstanding: release anything a Delay
            // fault is holding, then retransmit every unacked payload.
            attempt += 1;
            if attempt > self.policy.max_retries {
                telemetry::count("resilience.exchange_failures", 1);
                return Err(self.exhausted(
                    ctx.rank,
                    round,
                    attempt - 1,
                    sends,
                    recv_from,
                    &got,
                    &acked,
                ));
            }
            ctx.flush_held();
            for (si, (dst, payload)) in sends.iter().enumerate() {
                if !acked[si] {
                    tries[si] += 1;
                    telemetry::count("resilience.retransmits", 1);
                    ctx.send_faulty(
                        *dst,
                        encode_data(tries[si] as u64, round, self.epoch, payload),
                    );
                }
            }
            timeout = Duration::from_secs_f64(
                (timeout.as_secs_f64() * self.policy.backoff).min(MAX_TIMEOUT.as_secs_f64()),
            );
        }
    }

    /// Process one incoming message during `round`.
    #[allow(clippy::too_many_arguments)]
    fn handle(
        &mut self,
        ctx: &mut RankCtx,
        round: u64,
        src: usize,
        words: &[f64],
        sends: &[(usize, Vec<f64>)],
        recv_from: &[usize],
        got: &mut [Option<Vec<f64>>],
        acked: &mut [bool],
        tries: &mut [usize],
    ) -> Result<(), ExchangeError> {
        let frame = decode(words);
        // The zombie fence: frames from any other membership epoch are
        // dropped and counted, never applied and never acknowledged. A
        // well-formed frame names its epoch; a corrupt one falls
        // through to the nack path below as before.
        if let Ok(f) = &frame {
            let epoch = match f {
                Frame::Data { epoch, .. }
                | Frame::Ack { epoch, .. }
                | Frame::Nack { epoch, .. } => *epoch,
            };
            if epoch != self.epoch {
                telemetry::count("resilience.stale_epoch_dropped", 1);
                return Ok(());
            }
        }
        match frame {
            Ok(Frame::Data { tag, payload, .. }) => {
                if tag == round {
                    match recv_from.iter().position(|&s| s == src) {
                        Some(ri) if got[ri].is_none() => got[ri] = Some(payload),
                        _ => telemetry::count("resilience.duplicates_dropped", 1),
                    }
                } else if tag > round {
                    // Peer is already in a later round; hold its
                    // payload until we get there.
                    if !self.stashed.iter().any(|(s, t, _)| *s == src && *t == tag) {
                        self.stashed.push((src, tag, payload));
                    }
                } else {
                    // Stale retransmit of a finished round; the ack
                    // below is all the peer needs.
                    telemetry::count("resilience.duplicates_dropped", 1);
                }
                // Acks ride the reliable control plane.
                ctx.send(src, encode_ack(0, tag, self.epoch));
            }
            Ok(Frame::Ack { tag, .. }) => {
                if tag == round {
                    for (si, (dst, _)) in sends.iter().enumerate() {
                        if *dst == src {
                            acked[si] = true;
                        }
                    }
                }
            }
            Ok(Frame::Nack { tag, .. }) => {
                if tag == round {
                    // Our frame reached the peer corrupt: retransmit
                    // right away, charged against the same budget as
                    // timeout-driven retries.
                    for (si, (dst, payload)) in sends.iter().enumerate() {
                        if *dst == src && !acked[si] {
                            tries[si] += 1;
                            if tries[si] > self.policy.max_retries {
                                telemetry::count("resilience.exchange_failures", 1);
                                return Err(self.exhausted(
                                    ctx.rank,
                                    round,
                                    tries[si] - 1,
                                    sends,
                                    recv_from,
                                    got,
                                    acked,
                                ));
                            }
                            telemetry::count("resilience.retransmits", 1);
                            ctx.send_faulty(
                                *dst,
                                encode_data(tries[si] as u64, tag, self.epoch, payload),
                            );
                        }
                    }
                }
            }
            Err(_) => {
                // Corrupt on arrival: ask for an immediate retransmit
                // of whatever the peer owes us this round.
                telemetry::count("resilience.frames_corrupt", 1);
                ctx.send(src, encode_nack(0, round, self.epoch));
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exhausted(
        &self,
        rank: usize,
        round: u64,
        attempts: usize,
        sends: &[(usize, Vec<f64>)],
        recv_from: &[usize],
        got: &[Option<Vec<f64>>],
        acked: &[bool],
    ) -> ExchangeError {
        ExchangeError::RetriesExhausted {
            rank,
            round,
            missing_from: recv_from
                .iter()
                .zip(got)
                .filter(|(_, g)| g.is_none())
                .map(|(&s, _)| s)
                .collect(),
            unacked_to: sends
                .iter()
                .zip(acked)
                .filter(|(_, &a)| !a)
                .map(|((d, _), _)| *d)
                .collect(),
            attempts,
        }
    }

    /// Element-wise sum-allreduce over the reliable link (gather to
    /// the membership leader, reduce, broadcast): two exchange rounds.
    /// Membership-aware — after a shrink only live ranks participate
    /// and the root is the surviving leader.
    pub fn allreduce_vec_sum(
        &mut self,
        ctx: &mut RankCtx,
        x: &[f64],
    ) -> Result<Vec<f64>, ExchangeError> {
        if self.n_live(ctx) == 1 {
            // Keep the round counter aligned with multi-rank worlds.
            self.next_round += 2;
            return Ok(x.to_vec());
        }
        let root = self.leader();
        let peers = self.live_peers(ctx);
        if ctx.rank == root {
            let parts = self.exchange(ctx, &[], &peers)?;
            let mut acc = x.to_vec();
            for p in &parts {
                debug_assert_eq!(p.len(), acc.len(), "allreduce length mismatch");
                for (a, b) in acc.iter_mut().zip(p) {
                    *a += b;
                }
            }
            let sends: Vec<(usize, Vec<f64>)> = peers.iter().map(|&d| (d, acc.clone())).collect();
            self.exchange(ctx, &sends, &[])?;
            Ok(acc)
        } else {
            self.exchange(ctx, &[(root, x.to_vec())], &[])?;
            let mut got = self.exchange(ctx, &[], &[root])?;
            Ok(got.pop().expect("broadcast payload present"))
        }
    }

    /// Scalar sum-allreduce over the reliable link.
    pub fn allreduce_sum(&mut self, ctx: &mut RankCtx, x: f64) -> Result<f64, ExchangeError> {
        Ok(self.allreduce_vec_sum(ctx, &[x])?[0])
    }
}

impl Default for ReliableLink {
    fn default() -> Self {
        ReliableLink::new(RetryPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_mpi::comm::world_run;
    use oppic_mpi::{world_run_faulty, FaultKind, FaultSchedule};
    use std::sync::Arc;

    fn ring_payload(rank: usize) -> Vec<f64> {
        vec![rank as f64, rank as f64 * 0.5, -1.0]
    }

    /// Each rank sends to the next and receives from the previous;
    /// returns true iff the received payload is exactly correct.
    fn ring_ok(ctx: &mut RankCtx, policy: RetryPolicy) -> Result<bool, ExchangeError> {
        let mut link = ReliableLink::new(policy);
        let next = (ctx.rank + 1) % ctx.n_ranks;
        let prev = (ctx.rank + ctx.n_ranks - 1) % ctx.n_ranks;
        let got = link.exchange(ctx, &[(next, ring_payload(ctx.rank))], &[prev])?;
        Ok(got.len() == 1 && got[0] == ring_payload(prev))
    }

    #[test]
    fn fault_free_ring_exchanges() {
        let out = world_run(3, |ctx| ring_ok(ctx, RetryPolicy::default()).unwrap());
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn survives_dropped_messages() {
        // Drop the first few data-plane sends; retransmits get fresh
        // draws outside the budget and go through.
        let sched = Arc::new(FaultSchedule::single(11, FaultKind::Drop, 1.0).with_budget(3));
        let out = world_run_faulty(3, Some(sched.clone()), |ctx| {
            ring_ok(ctx, RetryPolicy::default()).unwrap()
        });
        assert!(out.into_iter().all(|ok| ok));
        assert!(sched.injected() > 0, "schedule must actually fire");
    }

    #[test]
    fn survives_duplicates_delays_and_reorders() {
        for kind in [FaultKind::Duplicate, FaultKind::Delay, FaultKind::Reorder] {
            let sched = Arc::new(FaultSchedule::single(7, kind, 1.0).with_budget(4));
            let out = world_run_faulty(3, Some(sched), |ctx| {
                ring_ok(ctx, RetryPolicy::default()).unwrap()
            });
            assert!(out.into_iter().all(|ok| ok), "kind {kind:?}");
        }
    }

    #[test]
    fn corrupt_frames_are_nacked_and_retransmitted() {
        let sched = Arc::new(FaultSchedule::single(13, FaultKind::BitFlip, 1.0).with_budget(2));
        let out = world_run_faulty(2, Some(sched.clone()), |ctx| {
            ring_ok(ctx, RetryPolicy::default()).unwrap()
        });
        assert!(out.into_iter().all(|ok| ok));
        assert!(sched.injected() > 0);
    }

    #[test]
    fn retries_exhausted_is_a_clean_typed_abort() {
        // Unlimited total-loss link with retries disabled: every rank
        // must come back with RetriesExhausted, not hang or panic.
        let sched = Arc::new(FaultSchedule::single(3, FaultKind::Drop, 1.0));
        let policy = RetryPolicy {
            max_retries: 0,
            base_timeout: Duration::from_millis(5),
            backoff: 2.0,
            ..RetryPolicy::default()
        };
        let out = world_run_faulty(2, Some(sched), |ctx| ring_ok(ctx, policy.clone()));
        for (rank, r) in out.into_iter().enumerate() {
            match r {
                Err(ExchangeError::RetriesExhausted {
                    rank: r, attempts, ..
                }) => {
                    assert_eq!(r, rank);
                    assert_eq!(attempts, 0);
                }
                other => panic!("rank {rank}: expected RetriesExhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_round_exchanges_stay_tag_aligned() {
        let sched = Arc::new(FaultSchedule::single(21, FaultKind::Drop, 0.3).with_budget(6));
        let rounds = 5usize;
        let out = world_run_faulty(3, Some(sched), |ctx| {
            let mut link = ReliableLink::default();
            let next = (ctx.rank + 1) % ctx.n_ranks;
            let prev = (ctx.rank + ctx.n_ranks - 1) % ctx.n_ranks;
            let mut all_ok = true;
            for round in 0..rounds {
                let sent = vec![ctx.rank as f64, round as f64];
                let got = link
                    .exchange(ctx, &[(next, sent)], &[prev])
                    .expect("bounded retry succeeds under budgeted loss");
                all_ok &= got[0] == vec![prev as f64, round as f64];
            }
            all_ok && link.rounds() == rounds as u64
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn allreduce_matches_fault_free_reference() {
        let reference: Vec<f64> = vec![0.0 + 1.0 + 2.0 + 3.0, 4.0 * 10.0];
        for sched in [
            None,
            Some(Arc::new(
                FaultSchedule::single(5, FaultKind::Drop, 0.5).with_budget(8),
            )),
            Some(Arc::new(
                FaultSchedule::single(6, FaultKind::BitFlip, 0.5).with_budget(8),
            )),
        ] {
            let out = world_run_faulty(4, sched, |ctx| {
                let mut link = ReliableLink::default();
                link.allreduce_vec_sum(ctx, &[ctx.rank as f64, 10.0])
                    .unwrap()
            });
            for v in out {
                assert_eq!(v, reference);
            }
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic_under_a_fixed_seed() {
        for rank in 0..4 {
            for round in 0..8u64 {
                for attempt in 0..8 {
                    let a = retry_jitter(0xBEEF, 0.25, rank, round, attempt);
                    let b = retry_jitter(0xBEEF, 0.25, rank, round, attempt);
                    assert_eq!(a, b, "same seed must replay the same factor");
                    assert!((0.75..1.25).contains(&a), "factor {a} out of bounds");
                }
            }
        }
        // Different seeds decide differently somewhere in the grid.
        let differs =
            (0..64u64).any(|r| retry_jitter(1, 0.25, 0, r, 0) != retry_jitter(2, 0.25, 0, r, 0));
        assert!(differs, "jitter must be seed-sensitive");
        // Zero amplitude is exactly the unjittered ladder.
        assert_eq!(retry_jitter(1, 0.0, 3, 9, 2), 1.0);
    }

    #[test]
    fn jitter_desynchronises_ranks() {
        // The point of the satellite: two ranks retrying the same
        // round must not share a timing decision for every attempt.
        let differs = (0..16).any(|attempt| {
            retry_jitter(7, 0.25, 0, 0, attempt) != retry_jitter(7, 0.25, 1, 0, attempt)
        });
        assert!(differs, "ranks must draw independent jitter");
    }

    #[test]
    fn stale_epoch_frames_are_dropped_not_applied() {
        // Rank 1 stays at epoch 0; rank 0 has moved to epoch 1. Rank
        // 1's data frame must be fenced (dropped + counted), so rank
        // 0's exchange times out cleanly instead of accepting
        // pre-shrink traffic.
        let out = world_run(2, |ctx| {
            let mut link = ReliableLink::new(RetryPolicy {
                max_retries: 1,
                base_timeout: Duration::from_millis(10),
                backoff: 1.0,
                ..RetryPolicy::default()
            });
            if ctx.rank == 0 {
                // Epoch 1 with ranks {0, 1} still live: world(3) minus
                // rank 2.
                let mut m1 = Membership::world(3);
                m1.evict(&[2]).unwrap();
                link.install_membership(&m1);
                let res = link.exchange(ctx, &[], &[1]);
                matches!(res, Err(ExchangeError::RetriesExhausted { .. }))
            } else {
                // Zombie: still at epoch 0.
                let got = link.exchange(ctx, &[(0, vec![9.0])], &[]);
                got.is_err() // never acked across the fence
            }
        });
        assert!(out[0], "epoch-1 receiver must not apply epoch-0 data");
        assert!(out[1], "zombie sender must never be acknowledged");
    }

    #[test]
    fn allreduce_follows_membership_after_eviction() {
        // 3-rank world; rank 1 is "dead" (returns early). Ranks 0 and
        // 2 install the shrunk membership and allreduce between
        // themselves — the root is still 0, the dead rank is skipped.
        let out = world_run(3, |ctx| {
            if ctx.rank == 1 {
                return None;
            }
            let mut link = ReliableLink::default();
            let mut m = Membership::world(3);
            m.evict(&[1]).unwrap();
            link.install_membership(&m);
            Some(link.allreduce_vec_sum(ctx, &[ctx.rank as f64]).unwrap())
        });
        assert_eq!(out[0], Some(vec![2.0]));
        assert_eq!(out[2], Some(vec![2.0]));
    }

    #[test]
    fn leader_moves_when_rank_zero_dies() {
        let out = world_run(3, |ctx| {
            if ctx.rank == 0 {
                return None;
            }
            let mut link = ReliableLink::default();
            let mut m = Membership::world(3);
            m.evict(&[0]).unwrap();
            link.install_membership(&m);
            assert_eq!(link.leader(), 1);
            Some(link.allreduce_vec_sum(ctx, &[1.0]).unwrap())
        });
        assert_eq!(out[1], Some(vec![2.0]));
        assert_eq!(out[2], Some(vec![2.0]));
    }

    #[test]
    fn self_send_delivers_locally() {
        let out = world_run(1, |ctx| {
            let mut link = ReliableLink::default();
            link.exchange(ctx, &[(0, vec![5.0])], &[0]).unwrap()
        });
        assert_eq!(out[0], vec![vec![5.0]]);
    }
}
