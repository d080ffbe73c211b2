//! Deterministic, seeded fault injection for the in-process MPI shim.
//!
//! Long-running distributed PIC campaigns see transient network
//! faults; a resilience layer is only testable if those faults can be
//! produced *on demand and reproducibly*. A [`FaultSchedule`] decides,
//! for every message on the fault-injectable data plane, whether to
//! drop, duplicate, reorder, delay, bit-flip, or stall it. Decisions
//! are pure functions of `(seed, src, dst, seq, spec index)` — no
//! wall clock, no RNG state — so the same seed replays the same fault
//! pattern, and a retransmission (which carries a fresh sequence
//! number) gets an independent draw, which is what lets bounded retry
//! converge under sub-unity fault rates.
//!
//! Faults apply **only** to sends issued through
//! [`crate::comm::RankCtx::send_faulty`] — the enveloped data plane
//! used by the resilience layer. The plain [`crate::comm::RankCtx::
//! send`] path (collectives, acks, legacy callers) is never faulted,
//! which models a reliable control plane and keeps every protocol
//! live by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The fault taxonomy (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Message vanishes on the wire.
    Drop,
    /// Message delivered twice.
    Duplicate,
    /// Message held back and delivered after the next send to the
    /// same destination.
    Reorder,
    /// Message held back until the destination's retry layer forces a
    /// flush ([`crate::comm::RankCtx::flush_held`]).
    Delay,
    /// One mantissa bit of one payload word flipped — values stay
    /// finite, so only a checksum can catch it.
    BitFlip,
    /// Sending rank sleeps briefly before the message leaves —
    /// absorbed by the peer's timeout + retry.
    Stall,
    /// Fail-stop: `rank` dies at the top of step `at_step` and never
    /// speaks again (the "stall-forever" kill). Unlike the message
    /// kinds above this is not drawn per message — the rank body
    /// consults [`FaultSchedule::crash_at`] and returns early, which
    /// leaves its channels open but permanently silent: peers see
    /// timeouts, not errors, exactly like a crashed MPI process.
    Crash { rank: usize, at_step: usize },
}

impl FaultKind {
    /// The per-message kinds (Crash is a process fault, not a message
    /// fault, and is never drawn by [`FaultSchedule::draw`]).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Delay,
        FaultKind::BitFlip,
        FaultKind::Stall,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Stall => "stall",
            FaultKind::Crash { .. } => "crash",
        }
    }

    pub fn parse(s: &str) -> Option<FaultKind> {
        Self::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// One line of a schedule: fire `kind` with probability `rate` on
/// messages matching the optional src/dst filter.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    pub kind: FaultKind,
    /// Per-message firing probability in `[0, 1]`.
    pub rate: f64,
    /// Restrict to a sending rank (`None` = any).
    pub src: Option<usize>,
    /// Restrict to a receiving rank (`None` = any).
    pub dst: Option<usize>,
}

impl FaultSpec {
    pub fn new(kind: FaultKind, rate: f64) -> Self {
        FaultSpec {
            kind,
            rate,
            src: None,
            dst: None,
        }
    }
}

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    None,
    Drop,
    Duplicate,
    Reorder,
    Delay,
    /// Flip `bit` (mantissa, `< 52`) of payload word `word`.
    BitFlip {
        word: usize,
        bit: u32,
    },
    Stall(Duration),
}

/// How long a stalled rank sleeps. Constant (not drawn) so replay
/// timing stays stable; the retry layer's base timeout must exceed it
/// being survivable, not equal it.
pub const STALL: Duration = Duration::from_millis(8);

/// A replayable fault schedule: seed + specs + an optional injection
/// budget shared across all ranks (first-come-first-served, so with a
/// finite budget even rate-1.0 schedules eventually quiesce and let
/// retries converge).
#[derive(Debug)]
pub struct FaultSchedule {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
    budget: AtomicU64,
    injected: AtomicU64,
}

impl FaultSchedule {
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> Self {
        FaultSchedule {
            seed,
            specs,
            budget: AtomicU64::new(u64::MAX),
            injected: AtomicU64::new(0),
        }
    }

    /// Single-kind convenience constructor.
    pub fn single(seed: u64, kind: FaultKind, rate: f64) -> Self {
        FaultSchedule::new(seed, vec![FaultSpec::new(kind, rate)])
    }

    /// Cap the total number of injected faults (across all ranks).
    pub fn with_budget(self, n: u64) -> Self {
        self.budget.store(n, Ordering::Relaxed);
        self
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// If this schedule fail-stops `rank`, the step at which it dies.
    /// Consulted by rank bodies (not by message draws): a crashed rank
    /// returns early and goes permanently silent.
    pub fn crash_at(&self, rank: usize) -> Option<usize> {
        self.specs.iter().find_map(|s| match s.kind {
            FaultKind::Crash { rank: r, at_step } if r == rank => Some(at_step),
            _ => None,
        })
    }

    /// Decide the fate of message `seq` from `src` to `dst` with
    /// `n_words` payload words. Pure in `(seed, src, dst, seq)` apart
    /// from the budget bookkeeping.
    pub fn draw(&self, src: usize, dst: usize, seq: u64, n_words: usize) -> FaultAction {
        for (i, spec) in self.specs.iter().enumerate() {
            if matches!(spec.kind, FaultKind::Crash { .. }) {
                continue; // process fault, never a message fault
            }
            if spec.src.is_some_and(|s| s != src) || spec.dst.is_some_and(|d| d != dst) {
                continue;
            }
            let h = mix(self.seed.wrapping_add(mix((src as u64) << 40
                ^ (dst as u64) << 20
                ^ seq
                ^ ((i as u64) << 56))));
            // 53-bit uniform in [0, 1).
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u >= spec.rate {
                continue;
            }
            // Spend budget; exhausted budget means no more faults.
            if self
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return FaultAction::None;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            let h2 = mix(h);
            return match spec.kind {
                FaultKind::Drop => FaultAction::Drop,
                FaultKind::Duplicate => FaultAction::Duplicate,
                FaultKind::Reorder => FaultAction::Reorder,
                FaultKind::Delay => FaultAction::Delay,
                FaultKind::BitFlip => FaultAction::BitFlip {
                    word: (h2 as usize) % n_words.max(1),
                    // Mantissa bits only: the corrupted f64 stays
                    // finite and plausible — precisely the class of
                    // corruption only a checksum catches.
                    bit: ((h2 >> 32) % 52) as u32,
                },
                FaultKind::Stall => FaultAction::Stall(STALL),
                // Crash is a process fault handled by the rank body;
                // it never fires on a message draw. (Unreachable: the
                // skip above filters Crash specs before the rate draw.)
                FaultKind::Crash { .. } => FaultAction::None,
            };
        }
        FaultAction::None
    }
}

/// SplitMix64 finaliser — the avalanche stage used for all draws.
/// Public so dependent layers (retry jitter, detector pacing) can
/// derive deterministic per-(rank, attempt) values from one seed.
pub fn mix64(z: u64) -> u64 {
    mix(z)
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultSchedule::single(7, FaultKind::Drop, 0.5);
        let b = FaultSchedule::single(7, FaultKind::Drop, 0.5);
        let c = FaultSchedule::single(8, FaultKind::Drop, 0.5);
        let seq_a: Vec<_> = (0..64).map(|s| a.draw(0, 1, s, 4)).collect();
        let seq_b: Vec<_> = (0..64).map(|s| b.draw(0, 1, s, 4)).collect();
        let seq_c: Vec<_> = (0..64).map(|s| c.draw(0, 1, s, 4)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay identically");
        assert_ne!(seq_a, seq_c, "different seed must differ");
        let fired = seq_a.iter().filter(|a| **a != FaultAction::None).count();
        assert!(fired > 10 && fired < 54, "rate 0.5 fired {fired}/64");
    }

    #[test]
    fn rate_zero_and_one_are_exact() {
        let never = FaultSchedule::single(1, FaultKind::Drop, 0.0);
        let always = FaultSchedule::single(1, FaultKind::Drop, 1.0);
        for s in 0..32 {
            assert_eq!(never.draw(0, 1, s, 1), FaultAction::None);
            assert_eq!(always.draw(0, 1, s, 1), FaultAction::Drop);
        }
    }

    #[test]
    fn budget_bounds_total_injections() {
        let sched = FaultSchedule::single(3, FaultKind::Drop, 1.0).with_budget(5);
        let fired = (0..100)
            .filter(|&s| sched.draw(0, 1, s, 1) != FaultAction::None)
            .count();
        assert_eq!(fired, 5);
        assert_eq!(sched.injected(), 5);
    }

    #[test]
    fn src_dst_filters_apply() {
        let mut spec = FaultSpec::new(FaultKind::Drop, 1.0);
        spec.src = Some(2);
        spec.dst = Some(0);
        let sched = FaultSchedule::new(9, vec![spec]);
        assert_eq!(sched.draw(2, 0, 0, 1), FaultAction::Drop);
        assert_eq!(sched.draw(2, 1, 0, 1), FaultAction::None);
        assert_eq!(sched.draw(1, 0, 0, 1), FaultAction::None);
    }

    #[test]
    fn bitflip_targets_mantissa_bits_in_range() {
        let sched = FaultSchedule::single(11, FaultKind::BitFlip, 1.0);
        for s in 0..64 {
            match sched.draw(0, 1, s, 10) {
                FaultAction::BitFlip { word, bit } => {
                    assert!(word < 10);
                    assert!(bit < 52, "bit {bit} would corrupt the exponent");
                }
                other => panic!("expected BitFlip, got {other:?}"),
            }
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[test]
    fn crash_specs_never_fire_on_message_draws() {
        let crash = FaultKind::Crash {
            rank: 1,
            at_step: 3,
        };
        let sched = FaultSchedule::new(5, vec![FaultSpec::new(crash, 1.0)]);
        for s in 0..32 {
            assert_eq!(sched.draw(1, 0, s, 4), FaultAction::None);
        }
        assert_eq!(sched.injected(), 0);
        assert_eq!(sched.crash_at(1), Some(3));
        assert_eq!(sched.crash_at(0), None);
        assert_eq!(
            FaultKind::Crash {
                rank: 1,
                at_step: 3
            }
            .name(),
            "crash"
        );
    }
}
