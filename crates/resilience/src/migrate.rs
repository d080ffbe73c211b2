//! The reliable link as a [`Transport`] ([`Reliable`]): particle
//! migration and the vector reduction over checksummed, acknowledged
//! envelopes — the fault-tolerant counterpart of the plain alltoallv
//! transport.
//!
//! Migration runs the same body as every other path
//! (`oppic_mpi::exchange::exchange`): one `[cell, dofs…]` buffer per
//! destination, stride-checked arrivals, hole-fill at the source.
//! Dropped, duplicated, reordered, delayed or bit-flipped migration
//! traffic either converges to the exact fault-free particle
//! distribution or aborts with a typed [`LinkError`]. Arrivals are
//! validated *before* the source store is hole-filled, so a failed
//! migration leaves the store untouched.

use crate::retry::{ExchangeError, ReliableLink};
use oppic_core::particles::ParticleDats;
use oppic_core::telemetry;
use oppic_mpi::comm::RankCtx;
use oppic_mpi::exchange::exchange;
use oppic_mpi::{MigrationStats, RaggedPayload, Transport};
use std::fmt;

/// Why a reliable-link collective failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The underlying exchange gave up.
    Exchange(ExchangeError),
    /// A verified migration payload is not a whole number of particle
    /// records — sender/receiver disagree on the dat layout.
    Ragged(RaggedPayload),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Exchange(e) => write!(f, "reliable exchange failed: {e}"),
            LinkError::Ragged(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<ExchangeError> for LinkError {
    fn from(e: ExchangeError) -> Self {
        LinkError::Exchange(e)
    }
}

impl From<RaggedPayload> for LinkError {
    fn from(e: RaggedPayload) -> Self {
        LinkError::Ragged(e)
    }
}

impl ReliableLink {
    /// Ship `leavers = (slot, destination rank, destination cell)`,
    /// hole-fill their slots, and append this rank's arrivals at the
    /// end of `ps`. Collective over the live membership: every member
    /// exchanges one (possibly empty) buffer with every other member.
    pub fn migrate(
        &mut self,
        ctx: &mut RankCtx,
        ps: &mut ParticleDats,
        leavers: &[(usize, u32, i32)],
    ) -> Result<MigrationStats, LinkError> {
        let stats = exchange(ps, leavers, ctx.n_ranks, |mut buffers| {
            // Membership-aware peer list: after a shrink only live
            // ranks participate (a leaver routed at a dead rank is a
            // partition bug).
            let others = self.live_peers(ctx);
            debug_assert!(
                buffers
                    .iter()
                    .enumerate()
                    .all(|(r, b)| b.is_empty() || others.contains(&r)),
                "leaver routed to a non-member rank"
            );
            let sends: Vec<(usize, Vec<f64>)> = others
                .iter()
                .map(|&d| (d, std::mem::take(&mut buffers[d])))
                .collect();
            let recvs = self.exchange(ctx, &sends, &others)?;
            Ok::<_, LinkError>(others.into_iter().zip(recvs).collect())
        })?;
        telemetry::count("resilience.migrated_in", stats.received as u64);
        Ok(stats)
    }
}

/// The reliable link of rank `ctx.rank` as a [`Transport`]: the
/// particles whose cell `cell_rank` gives to another rank migrate
/// through [`ReliableLink::migrate`], sums go through
/// [`ReliableLink::allreduce_vec_sum`].
pub struct Reliable<'a> {
    pub link: &'a mut ReliableLink,
    pub ctx: &'a mut RankCtx,
    /// Owner rank of every cell.
    pub cell_rank: &'a [u32],
}

impl Transport for Reliable<'_> {
    type Error = LinkError;

    fn migrate(&mut self, ps: &mut ParticleDats) -> Result<MigrationStats, LinkError> {
        let leavers = ps.leavers(self.cell_rank, self.ctx.rank);
        self.link.migrate(self.ctx, ps, &leavers)
    }

    fn allreduce_sum(&mut self, x: &mut [f64]) -> Result<(), LinkError> {
        let total = self.link.allreduce_vec_sum(self.ctx, x)?;
        x.copy_from_slice(&total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use oppic_mpi::{world_run_faulty, FaultKind, FaultSchedule};
    use std::sync::Arc;
    use std::time::Duration;

    fn local_store(rank: usize, n: usize) -> ParticleDats {
        let mut ps = ParticleDats::new();
        let tag = ps.decl_dat("tag", 2);
        ps.inject(n, 0);
        for i in 0..n {
            let e = ps.el_mut(tag, i);
            e[0] = rank as f64;
            e[1] = i as f64;
            ps.cells_mut()[i] = i as i32;
        }
        ps
    }

    /// Ship odd-indexed particles to the next rank; verify the exact
    /// post-migration census on every rank.
    fn round_trip(n_ranks: usize, sched: Option<Arc<FaultSchedule>>) {
        let per_rank = 10;
        let out = world_run_faulty(n_ranks, sched, |ctx| {
            let mut ps = local_store(ctx.rank, per_rank);
            let mut link = ReliableLink::default();
            let dst = ((ctx.rank + 1) % n_ranks) as u32;
            let leavers: Vec<(usize, u32, i32)> = (0..per_rank)
                .filter(|i| i % 2 == 1)
                .map(|i| (i, dst, 100 + i as i32))
                .collect();
            let stats = link
                .migrate(ctx, &mut ps, &leavers)
                .expect("bounded retry absorbs the schedule");
            (ps, stats)
        });

        let total: usize = out.iter().map(|(ps, _)| ps.len()).sum();
        assert_eq!(total, n_ranks * per_rank, "global particle count conserved");
        for (r, (ps, stats)) in out.iter().enumerate() {
            assert_eq!(stats.sent, 5);
            assert_eq!(stats.received, 5, "rank {r}: exactly-once delivery");
            let tag = ps.col_id("tag").unwrap();
            let prev = (r + n_ranks - 1) % n_ranks;
            for i in 0..ps.len() {
                let e = ps.el(tag, i);
                if e[0] as usize != r {
                    assert_eq!(e[0] as usize, prev, "immigrants come from prev rank");
                    assert_eq!(e[1] as usize % 2, 1);
                    assert_eq!(ps.cells()[i], 100 + e[1] as i32);
                }
            }
        }
    }

    #[test]
    fn fault_free_migration_matches_raw_path_semantics() {
        round_trip(3, None);
    }

    #[test]
    fn migration_survives_each_fault_kind() {
        for (seed, kind) in [
            (31, FaultKind::Drop),
            (32, FaultKind::Duplicate),
            (33, FaultKind::Reorder),
            (34, FaultKind::Delay),
            (35, FaultKind::BitFlip),
        ] {
            let sched = Arc::new(FaultSchedule::single(seed, kind, 1.0).with_budget(3));
            round_trip(3, Some(sched));
        }
    }

    #[test]
    fn no_leavers_is_stable_under_faults() {
        let sched = Arc::new(FaultSchedule::single(8, FaultKind::Drop, 1.0).with_budget(2));
        let out = world_run_faulty(2, Some(sched), |ctx| {
            let mut ps = local_store(ctx.rank, 4);
            let mut link = ReliableLink::default();
            let stats = link.migrate(ctx, &mut ps, &[]).unwrap();
            (ps.len(), stats)
        });
        for (len, stats) in out {
            assert_eq!(len, 4);
            assert_eq!(stats, MigrationStats::default());
        }
    }

    #[test]
    fn total_loss_aborts_without_touching_the_store() {
        let sched = Arc::new(FaultSchedule::single(9, FaultKind::Drop, 1.0));
        let policy = RetryPolicy {
            max_retries: 0,
            base_timeout: Duration::from_millis(5),
            backoff: 2.0,
            ..RetryPolicy::default()
        };
        let out = world_run_faulty(2, Some(sched), |ctx| {
            let mut ps = local_store(ctx.rank, 6);
            let mut link = ReliableLink::new(policy.clone());
            let leavers: Vec<(usize, u32, i32)> = if ctx.rank == 0 {
                vec![(0, 1, 3), (2, 1, 4)]
            } else {
                vec![]
            };
            let err = link
                .migrate(ctx, &mut ps, &leavers)
                .expect_err("total loss with no retries must abort");
            assert!(matches!(err, LinkError::Exchange(_)));
            // The store is exactly as it was: nothing removed, nothing
            // unpacked.
            ps.len()
        });
        assert_eq!(out, vec![6, 6]);
    }
}
