//! Heartbeat/lease failure detection (DESIGN.md §13).
//!
//! Every rank renews a lease slot on the shared board
//! ([`RankCtx::lease_renew`]) once per step and while spinning in
//! membership agreement. The board models the out-of-band health
//! plane a real deployment gets from a process manager or
//! `MPI_Comm_revoke`: it is not a message channel, so a wedged data
//! plane cannot fake a death and a dead rank cannot fake life.
//!
//! A rank is only *suspected* when the reliable-link layer reports
//! `RetriesExhausted` naming it; the detector then waits out a full
//! `death_deadline` watching the suspect's lease. A live-but-slow
//! rank renews its lease within the window (survivors keep beating
//! even while blocked in agreement) and is acquitted; a crashed rank
//! never renews and is declared dead. Because a crashed rank's slot
//! is frozen forever, every survivor reaches the *same* verdict —
//! detection is deterministic even though it is timing-based.
//!
//! Beat *pacing* carries deterministic seeded jitter (±25% of the
//! heartbeat interval, pure in `(seed, rank, beat index)`) so
//! synchronized worlds do not renew in lockstep; verdicts use the
//! un-jittered deadline so chaos runs replay.

use crate::comm::RankCtx;
use crate::fault::mix64;
use std::time::{Duration, Instant};

/// Detector timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Minimum interval between lease renewals.
    pub heartbeat: Duration,
    /// Silence (no lease change) after which a *suspected* rank is
    /// declared dead. Must exceed the longest a live rank can go
    /// without renewing — bounded by the retry ladder of one failed
    /// exchange, after which it beats again in the agreement spin.
    pub death_deadline: Duration,
    /// Seed for the beat-pacing jitter.
    pub seed: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            heartbeat: Duration::from_millis(2),
            death_deadline: Duration::from_millis(200),
            seed: 0x000F_F1CE,
        }
    }
}

/// Deterministic beat-pacing jitter factor in `[0.75, 1.25)`, pure in
/// `(seed, rank, beat index)`.
pub fn beat_jitter(seed: u64, rank: usize, beat: u64) -> f64 {
    let h = mix64(seed ^ ((rank as u64) << 32) ^ beat);
    0.75 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64)
}

/// Per-rank failure detector over the shared lease board.
pub struct FailureDetector {
    cfg: HeartbeatConfig,
    /// Last lease value seen per rank and when it last changed.
    last: Vec<(u64, Instant)>,
    last_beat: Instant,
    beats: u64,
    rank: usize,
}

impl FailureDetector {
    pub fn new(ctx: &RankCtx, cfg: HeartbeatConfig) -> Self {
        let now = Instant::now();
        let last = (0..ctx.n_ranks).map(|r| (ctx.lease_read(r), now)).collect();
        FailureDetector {
            cfg,
            last,
            last_beat: now,
            beats: 0,
            rank: ctx.rank,
        }
    }

    pub fn config(&self) -> &HeartbeatConfig {
        &self.cfg
    }

    /// Renew this rank's lease if the jittered heartbeat interval has
    /// elapsed. Call once per step — cheap when not due.
    pub fn beat(&mut self, ctx: &RankCtx) {
        let due = self
            .cfg
            .heartbeat
            .mul_f64(beat_jitter(self.cfg.seed, self.rank, self.beats));
        if self.last_beat.elapsed() >= due {
            self.beat_now(ctx);
        }
    }

    /// Unconditionally renew the lease (agreement spins call this so
    /// a survivor blocked in recovery is never mistaken for dead).
    pub fn beat_now(&mut self, ctx: &RankCtx) {
        ctx.lease_renew();
        self.last_beat = Instant::now();
        self.beats += 1;
    }

    /// Refresh lease observations for all ranks.
    pub fn observe(&mut self, ctx: &RankCtx) {
        let now = Instant::now();
        for r in 0..self.last.len() {
            let v = ctx.lease_read(r);
            if v != self.last[r].0 {
                self.last[r] = (v, now);
            }
        }
    }

    /// Judge `suspects` (ranks named by a failed exchange): block until
    /// each either renews its lease (acquitted) or stays frozen for a
    /// full `death_deadline` (declared dead). Keeps beating our own
    /// lease while waiting. Returns the confirmed-dead set, sorted.
    pub fn wait_verdict(&mut self, ctx: &RankCtx, suspects: &[usize]) -> Vec<usize> {
        // Grant each suspect a full deadline from now — a rank that
        // merely ran slow before the exchange failed is not penalised
        // for that history.
        let start = Instant::now();
        for &s in suspects {
            self.last[s] = (ctx.lease_read(s), start);
        }
        let mut undecided: Vec<usize> = suspects.to_vec();
        let mut dead = Vec::new();
        while !undecided.is_empty() {
            self.beat_now(ctx);
            undecided.retain(|&s| {
                let v = ctx.lease_read(s);
                if v != self.last[s].0 {
                    self.last[s] = (v, Instant::now());
                    return false; // acquitted: it spoke
                }
                if self.last[s].1.elapsed() >= self.cfg.death_deadline {
                    dead.push(s);
                    return false;
                }
                true
            });
            if !undecided.is_empty() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        dead.sort_unstable();
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::world_run;

    fn quick_cfg() -> HeartbeatConfig {
        HeartbeatConfig {
            heartbeat: Duration::from_micros(500),
            death_deadline: Duration::from_millis(30),
            seed: 42,
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        for rank in 0..8 {
            for beat in 0..64 {
                let a = beat_jitter(7, rank, beat);
                let b = beat_jitter(7, rank, beat);
                assert_eq!(a, b, "jitter must replay");
                assert!((0.75..1.25).contains(&a), "jitter {a} out of bounds");
            }
        }
        assert_ne!(beat_jitter(7, 0, 0), beat_jitter(8, 0, 0), "seed-sensitive");
    }

    #[test]
    fn crashed_rank_is_declared_dead_by_all_survivors() {
        let out = world_run(3, |ctx| {
            let mut det = FailureDetector::new(ctx, quick_cfg());
            det.beat_now(ctx);
            ctx.barrier(); // order the kill after every initial beat
            if ctx.rank == 1 {
                return Vec::new(); // fail-stop: never renews again
            }
            let dead = det.wait_verdict(ctx, &[1]);
            det.observe(ctx);
            dead
        });
        assert_eq!(out[0], vec![1]);
        assert_eq!(out[2], vec![1]);
    }

    #[test]
    fn live_rank_is_acquitted() {
        let out = world_run(2, |ctx| {
            let mut det = FailureDetector::new(ctx, quick_cfg());
            if ctx.rank == 1 {
                // Stay alive: renew until rank 0 signals done.
                let deadline = Instant::now() + Duration::from_secs(5);
                while ctx.lease_read(0) < 1000 && Instant::now() < deadline {
                    det.beat_now(ctx);
                    std::thread::sleep(Duration::from_micros(200));
                }
                return Vec::new();
            }
            let dead = det.wait_verdict(ctx, &[1]);
            // Signal rank 1 to stop by racing our lease far ahead.
            for _ in 0..1000 {
                ctx.lease_renew();
            }
            dead
        });
        assert!(out[0].is_empty(), "live rank must not be declared dead");
    }

    #[test]
    fn paced_beat_renews_after_interval() {
        let out = world_run(1, |ctx| {
            let mut det = FailureDetector::new(ctx, quick_cfg());
            det.beat(ctx); // immediate: elapsed >= due at t=0... may or may not fire
            std::thread::sleep(Duration::from_millis(2));
            det.beat(ctx);
            ctx.lease_read(0)
        });
        assert!(out[0] >= 1, "at least one renewal after the interval");
    }
}
