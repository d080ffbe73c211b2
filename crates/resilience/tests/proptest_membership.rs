//! Property tests for membership epochs and the zombie fence
//! (DESIGN.md §13).
//!
//! Two contracts, checked over generated inputs rather than one
//! hand-picked scenario:
//!
//! * **Epoch monotonicity** — [`Membership::evict`] is the only
//!   mutation path; for *any* sequence of eviction attempts the epoch
//!   increases by exactly one per successful eviction and never moves
//!   on a rejected one, and the member set only ever shrinks.
//! * **The zombie fence** — a frame stamped with any stale epoch is
//!   dropped and counted, never applied and never acknowledged, on
//!   both the raw exchange and the particle migration built on it.

use oppic_core::particles::ParticleDats;
use oppic_core::telemetry::Telemetry;
use oppic_mpi::world_run;
use oppic_resilience::{ExchangeError, Membership, ReliableLink, RetryPolicy};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A membership whose epoch is exactly `epoch`, with ranks `0..live`
/// still members: start from a world padded with `epoch` sacrificial
/// ranks and evict them one at a time.
fn membership_at_epoch(live: usize, epoch: u64) -> Membership {
    let mut m = Membership::world(live + epoch as usize);
    for dead in (live..live + epoch as usize).rev() {
        m.evict(&[dead]).expect("sacrificial eviction");
    }
    assert_eq!(m.epoch(), epoch);
    m
}

/// A short-fuse link so fenced exchanges fail in milliseconds, not
/// the production half-second ladder.
fn short_fuse() -> ReliableLink {
    ReliableLink::new(RetryPolicy {
        max_retries: 1,
        base_timeout: Duration::from_millis(15),
        backoff: 1.0,
        ..RetryPolicy::default()
    })
}

fn two_particle_store(vals: &[f64]) -> ParticleDats {
    let mut ps = ParticleDats::new();
    let w = ps.decl_dat("w", 1);
    ps.inject(vals.len(), 0);
    for (i, &v) in vals.iter().enumerate() {
        ps.el_mut(w, i)[0] = v;
        ps.cells_mut()[i] = i as i32;
    }
    ps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any world size and any sequence of eviction attempts
    /// (members, non-members, and world-emptying batches alike), the
    /// epoch is exactly the number of *successful* evictions so far —
    /// monotone, gap-free, and untouched by rejected attempts — and
    /// the member set shrinks by exactly the evicted ranks, staying
    /// sorted.
    #[test]
    fn epochs_count_successful_evictions_exactly(
        world in 1usize..12,
        attempts in proptest::collection::vec(
            proptest::collection::vec(0usize..14, 1..4), 0..10),
    ) {
        let mut m = Membership::world(world);
        let mut wins = 0u64;
        for mut dead in attempts {
            dead.sort_unstable();
            dead.dedup();
            let before_epoch = m.epoch();
            let before_members = m.members().to_vec();
            match m.evict(&dead) {
                Ok(()) => {
                    wins += 1;
                    prop_assert_eq!(m.epoch(), before_epoch + 1);
                    prop_assert_eq!(
                        m.n_members(),
                        before_members.len() - dead.len());
                    prop_assert!(dead.iter().all(|d| !m.contains(*d)));
                }
                Err(_) => {
                    // Rejected attempts are invisible: same epoch,
                    // same members.
                    prop_assert_eq!(m.epoch(), before_epoch);
                    prop_assert_eq!(m.members(), &before_members[..]);
                }
            }
            prop_assert_eq!(m.epoch(), wins);
            prop_assert!(m.members().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(m.n_members() >= 1);
        }
    }
}

proptest! {
    // Each case spins up a 2-thread world with real timeouts; keep the
    // case count modest so the suite stays in seconds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Synchronous path: whatever payload a zombie at any strictly
    /// older epoch sends, the receiver drops it (counted on the fence
    /// counter), applies nothing, and never acknowledges — both sides
    /// see a typed timeout, not data.
    #[test]
    fn sync_exchange_fences_every_stale_epoch(
        receiver_epoch in 1u64..5,
        zombie_lag in 1u64..5,
        payload in proptest::collection::vec(-1e3f64..1e3, 1..6),
    ) {
        let zombie_epoch = receiver_epoch.saturating_sub(zombie_lag);
        let pay = payload.clone();
        let out = world_run(2, move |ctx| {
            let hub = Arc::new(Telemetry::new());
            let _guard = hub.make_current();
            let mut link = short_fuse();
            if ctx.rank == 0 {
                link.install_membership(&membership_at_epoch(2, receiver_epoch));
                let res = link.exchange(ctx, &[], &[1]);
                let fenced = hub.counter("resilience.stale_epoch_dropped");
                (matches!(res, Err(ExchangeError::RetriesExhausted { .. })), fenced)
            } else {
                link.install_membership(&membership_at_epoch(2, zombie_epoch));
                let res = link.exchange(ctx, &[(0, pay.clone())], &[]);
                (res.is_err(), hub.counter("resilience.stale_epoch_dropped"))
            }
        });
        prop_assert!(out[0].0, "receiver must time out, not apply stale data");
        prop_assert!(out[0].1 >= 1, "receiver must count the fenced frames");
        prop_assert!(out[1].0, "zombie must never be acknowledged");
    }

    /// Migration: a zombie at a stale epoch ships its whole store to
    /// the receiver. The frames are fenced, the receiver's migration
    /// aborts with a typed error, and its store is exactly as it was —
    /// nothing adopted from the stale epoch.
    #[test]
    fn migration_fences_every_stale_epoch(
        receiver_epoch in 1u64..4,
        resident in proptest::collection::vec(-1e3f64..1e3, 1..5),
        zombie_cargo in proptest::collection::vec(-1e3f64..1e3, 1..4),
    ) {
        let vals = resident.clone();
        let cargo = zombie_cargo.clone();
        let out = world_run(2, move |ctx| {
            let hub = Arc::new(Telemetry::new());
            let _guard = hub.make_current();
            let mut link = short_fuse();
            if ctx.rank == 0 {
                link.install_membership(&membership_at_epoch(2, receiver_epoch));
                let mut ps = two_particle_store(&vals);
                let w = ps.col_id("w").unwrap();
                let res = link.migrate(ctx, &mut ps, &[]);
                let survived: Vec<f64> =
                    (0..ps.len()).map(|i| ps.el(w, i)[0]).collect();
                let fenced = hub.counter("resilience.stale_epoch_dropped");
                (res.is_err(), survived, fenced)
            } else {
                // Zombie at epoch 0 ships its whole store to rank 0.
                link.install_membership(&membership_at_epoch(2, 0));
                let mut ps = two_particle_store(&cargo);
                let leavers: Vec<(usize, u32, i32)> =
                    (0..ps.len()).map(|i| (i, 0u32, i as i32)).collect();
                let res = link.migrate(ctx, &mut ps, &leavers);
                (res.is_err(), Vec::new(), 0)
            }
        });
        let (aborted, survived, fenced) = &out[0];
        prop_assert!(*aborted, "receiver must abort, not unpack stale cargo");
        prop_assert!(*fenced >= 1, "stale frames must hit the fence counter");
        // Exactly the resident particles — nothing adopted from the
        // stale epoch.
        prop_assert_eq!(survived, &resident);
        prop_assert!(out[1].0, "zombie's migration must error, never ack");
    }
}
