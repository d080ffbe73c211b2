//! Particle migration — the distributed side of `opp_particle_move`
//! (Section 3.2.2 and Figure 7).
//!
//! After a local move pass, some particles have landed in cells owned
//! by other ranks. Every migration path shares one wire codec:
//! [`pack`] writes each leaver's full payload `[cell, dofs…]` into one
//! buffer per destination rank ("reducing the number of MPI
//! messages"), [`remove_leavers`] hole-fills the source store, and
//! [`unpack`] checks the stride of every arrival before appending any
//! of them "to the end of the respective `opp_dat`s".
//!
//! Transports move the buffers:
//!
//! * [`migrate_particles`] / [`migrate_particles_begin`] — the plain
//!   alltoallv path, optionally split around an overlap window;
//! * [`Plain`] — the same path behind the [`Transport`] trait the
//!   apps' distributed steps are generic over (the reliable link in
//!   `oppic-resilience` is the other implementation);
//! * [`global_move_rma`] — the direct-hop variant: destination ranks
//!   are discovered through the structured overlay's rank-map, and
//!   payloads are pushed straight into the target rank's RMA window —
//!   no neighbour discovery handshake, exactly the paper's
//!   "MPI-RMA-based global move approach".

use crate::comm::{Message, RankCtx};
use oppic_core::particles::ParticleDats;
use std::convert::Infallible;
use std::fmt;
use std::time::{Duration, Instant};

/// Outcome of one migration round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationStats {
    pub sent: usize,
    pub received: usize,
    /// Payload f64s shipped (×8 = bytes).
    pub shipped_values: usize,
}

/// An arrival that is not a whole number of particle records — sender
/// and receiver disagree on the dat layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaggedPayload {
    pub src: usize,
    pub len: usize,
    pub stride: usize,
}

impl fmt::Display for RaggedPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ragged migration payload from rank {}: {} values, stride {}",
            self.src, self.len, self.stride
        )
    }
}

impl std::error::Error for RaggedPayload {}

/// Pack every leaver `(slot, destination rank, destination cell)` into
/// one buffer per destination: `[cell0, dofs0…, cell1, dofs1…]`.
pub fn pack(ps: &ParticleDats, leavers: &[(usize, u32, i32)], n_ranks: usize) -> Vec<Vec<f64>> {
    let mut buffers: Vec<Vec<f64>> = vec![Vec::new(); n_ranks];
    for &(idx, dst, cell) in leavers {
        let buf = &mut buffers[dst as usize];
        buf.push(cell as f64);
        ps.pack_one(idx, buf);
    }
    buffers
}

/// Hole-fill the leavers' slots out of the source store. Leaver slots
/// must be unique.
pub fn remove_leavers(ps: &mut ParticleDats, leavers: &[(usize, u32, i32)]) {
    let mut holes: Vec<usize> = leavers.iter().map(|&(i, _, _)| i).collect();
    holes.sort_unstable();
    debug_assert!(
        holes.windows(2).all(|w| w[0] < w[1]),
        "duplicate leaver index"
    );
    ps.remove_fill(&holes);
}

/// Check that every `(source rank, payload)` arrival is a whole number
/// of `[cell, dofs…]` records for `ps`'s layout.
pub fn check_arrivals(
    ps: &ParticleDats,
    arrivals: &[(usize, Vec<f64>)],
) -> Result<(), RaggedPayload> {
    let stride = ps.dofs() + 1;
    match arrivals.iter().find(|(_, p)| p.len() % stride != 0) {
        Some((src, p)) => Err(RaggedPayload {
            src: *src,
            len: p.len(),
            stride,
        }),
        None => Ok(()),
    }
}

/// Append every arrival at the end of the dats, in arrival order,
/// after checking all of them; returns the particles received. On
/// error the store is untouched.
pub fn unpack(
    ps: &mut ParticleDats,
    arrivals: &[(usize, Vec<f64>)],
) -> Result<usize, RaggedPayload> {
    check_arrivals(ps, arrivals)?;
    let stride = ps.dofs() + 1;
    let mut received = 0usize;
    for (_, payload) in arrivals {
        for chunk in payload.chunks_exact(stride) {
            ps.unpack_one(&chunk[1..], chunk[0] as i32);
            received += 1;
        }
    }
    Ok(received)
}

/// What an app's distributed step needs from the interconnect: one
/// particle migration and one vector sum-reduction. Both are
/// collective — every rank calls them in the same order.
pub trait Transport {
    type Error;

    /// Ship `leavers = (slot, destination rank, destination cell)` and
    /// receive this rank's arrivals at the end of `ps`. With `window`,
    /// the leavers are hole-filled out first and `window` runs on the
    /// remaining (interior) store while the exchange is in flight, so
    /// on return the boundary partition is `interior_len..ps.len()`.
    fn migrate(
        &mut self,
        ctx: &mut RankCtx,
        ps: &mut ParticleDats,
        leavers: &[(usize, u32, i32)],
        window: Option<&mut dyn FnMut(&mut ParticleDats)>,
    ) -> Result<MigrationStats, Self::Error>;

    /// Element-wise global sum, identical on every rank.
    fn allreduce_vec_sum(&mut self, ctx: &mut RankCtx, x: &[f64]) -> Result<Vec<f64>, Self::Error>;
}

/// The plain channel transport: alltoallv migration and the
/// communicator's allreduce. `latency` models the network service
/// time of each migration (see [`MigrationHandle::complete_after`]):
/// the synchronous form waits it out, an overlap window hides it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain {
    pub latency: Duration,
}

impl Transport for Plain {
    type Error = Infallible;

    fn migrate(
        &mut self,
        ctx: &mut RankCtx,
        ps: &mut ParticleDats,
        leavers: &[(usize, u32, i32)],
        window: Option<&mut dyn FnMut(&mut ParticleDats)>,
    ) -> Result<MigrationStats, Infallible> {
        let mut handle = migrate_particles_begin(ctx, ps, leavers);
        handle.overlap_window = window.is_some();
        if let Some(window) = window {
            window(ps);
        }
        Ok(handle.complete_after(ctx, ps, self.latency))
    }

    fn allreduce_vec_sum(&mut self, ctx: &mut RankCtx, x: &[f64]) -> Result<Vec<f64>, Infallible> {
        Ok(ctx.allreduce_vec_sum(x))
    }
}

/// An in-flight particle migration: the send half has been posted and
/// the local store hole-filled; the receive half is still pending.
/// Compute run between [`migrate_particles_begin`] and
/// [`MigrationHandle::complete`] overlaps the exchange — which is
/// only legal when the schedule analyzer's proof says so (see
/// [`crate::overlap::OverlapGate`]). Exactly one `complete` call is
/// owed per handle, before any other receive on the context.
#[derive(Debug)]
#[must_use = "an in-flight migration must be completed"]
pub struct MigrationHandle {
    sent: usize,
    shipped_values: usize,
    /// When the sends were posted — [`MigrationHandle::complete_after`]
    /// models network drain time from this instant, so compute done in
    /// the overlap window genuinely shortens the wait.
    started: Instant,
    /// False on the synchronous paths, so only genuine overlap windows
    /// hit the telemetry.
    overlap_window: bool,
}

/// The send half of [`migrate_particles`]: pack each leaver's payload
/// per destination, post the alltoallv sends, and hole-fill the local
/// store. The store mutations (removal, and later the unpack in
/// [`MigrationHandle::complete`]) happen in exactly the same order as
/// the synchronous path, so begin/complete bracketing any amount of
/// interior compute stays **bit-identical** to [`migrate_particles`].
pub fn migrate_particles_begin(
    ctx: &mut RankCtx,
    ps: &mut ParticleDats,
    leavers: &[(usize, u32, i32)],
) -> MigrationHandle {
    debug_assert!(
        leavers.iter().all(|&(_, dst, _)| dst as usize != ctx.rank),
        "leaver staying home"
    );
    let buffers = pack(ps, leavers, ctx.n_ranks);
    let shipped_values: usize = buffers.iter().map(Vec::len).sum();

    // Post the sends (non-blocking on the channel shim).
    ctx.alltoallv_begin(buffers.into_iter().map(Message::F64).collect());

    // Receives never touch the store, so hole-filling before the drain
    // leaves the final state identical to the synchronous path.
    remove_leavers(ps, leavers);

    MigrationHandle {
        sent: leavers.len(),
        shipped_values,
        started: Instant::now(),
        overlap_window: true,
    }
}

impl MigrationHandle {
    /// Drain the receive half and unpack arrivals at the end of the
    /// dats — the `MPI_Wait` of the split migration.
    pub fn complete(self, ctx: &mut RankCtx, ps: &mut ParticleDats) -> MigrationStats {
        self.complete_after(ctx, ps, Duration::ZERO)
    }

    /// [`Self::complete`] against a modeled network drain time: the
    /// exchange is not considered done before `min_latency` has
    /// elapsed since [`migrate_particles_begin`]. The in-process
    /// channel shim delivers in microseconds, so benches use this to
    /// model a real interconnect honestly — a synchronous caller waits
    /// the full latency, while an overlapping caller has already spent
    /// the window on interior compute and only sleeps the remainder.
    /// Telemetry: counts one `overlap.windows` and records the hidden
    /// portion as `overlap.slack_us`.
    pub fn complete_after(
        self,
        ctx: &mut RankCtx,
        ps: &mut ParticleDats,
        min_latency: Duration,
    ) -> MigrationStats {
        let overlapped = self.started.elapsed().min(min_latency);
        let ready_at = self.started + min_latency;
        let now = Instant::now();
        if now < ready_at {
            std::thread::sleep(ready_at - now);
        }
        if self.overlap_window {
            oppic_core::telemetry::count("overlap.windows", 1);
            if let Some(h) = oppic_core::telemetry::hist("overlap.slack_us") {
                h.record(overlapped.as_micros() as u64);
            }
        }

        let arrivals: Vec<(usize, Vec<f64>)> = ctx
            .alltoallv_complete()
            .into_iter()
            .map(Message::into_f64)
            .enumerate()
            .collect();
        let received = unpack(ps, &arrivals).unwrap_or_else(|e| panic!("{e}"));

        MigrationStats {
            sent: self.sent,
            received,
            shipped_values: self.shipped_values,
        }
    }
}

/// Migrate particles between ranks through matched alltoallv buffers.
///
/// `leavers` lists `(particle index, destination rank, destination
/// local cell)` for every particle that must leave this rank; indices
/// must be unique. Collective: every rank must call this. This is the
/// synchronous path — begin immediately followed by complete, with no
/// overlap window and no modeled latency.
pub fn migrate_particles(
    ctx: &mut RankCtx,
    ps: &mut ParticleDats,
    leavers: &[(usize, u32, i32)],
) -> MigrationStats {
    let Ok(stats) = Plain::default().migrate(ctx, ps, leavers, None);
    stats
}

/// Direct-hop global move over the RMA window: push each destination's
/// packed buffer into the *destination rank's* window, barrier, then
/// drain our own window. No per-pair handshake is needed — any rank
/// can be a target without knowing its senders in advance.
pub fn global_move_rma(
    ctx: &mut RankCtx,
    ps: &mut ParticleDats,
    leavers: &[(usize, u32, i32)],
) -> MigrationStats {
    let buffers = pack(ps, leavers, ctx.n_ranks);
    let mut shipped_values = 0usize;
    for (dst, buf) in buffers.iter().enumerate() {
        if !buf.is_empty() {
            ctx.window_append(dst, buf);
            shipped_values += buf.len();
        }
    }

    // Close the exposure epoch.
    ctx.barrier();

    remove_leavers(ps, leavers);
    let arrivals = [(ctx.rank, ctx.window_fetch())];
    let received = unpack(ps, &arrivals).unwrap_or_else(|e| panic!("{e}"));
    // Second barrier so nobody starts the next epoch while a slow rank
    // is still draining.
    ctx.barrier();

    MigrationStats {
        sent: leavers.len(),
        received,
        shipped_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::world_run;

    /// Build a rank-local store with `n` particles; column "tag"
    /// encodes (rank, index) so payload integrity is checkable.
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

    #[test]
    fn migration_round_trip_preserves_everything() {
        let n_ranks = 3;
        let per_rank = 10;
        let out = world_run(n_ranks, |ctx| {
            let mut ps = local_store(ctx.rank, per_rank);
            // Send particles with odd index to the next rank.
            let dst = ((ctx.rank + 1) % n_ranks) as u32;
            let leavers: Vec<(usize, u32, i32)> = (0..per_rank)
                .filter(|i| i % 2 == 1)
                .map(|i| (i, dst, 100 + i as i32))
                .collect();
            let stats = migrate_particles(ctx, &mut ps, &leavers);
            (ps, stats)
        });

        let total: usize = out.iter().map(|(ps, _)| ps.len()).sum();
        assert_eq!(total, n_ranks * per_rank, "global particle count conserved");
        for (r, (ps, stats)) in out.iter().enumerate() {
            assert_eq!(stats.sent, 5);
            assert_eq!(stats.received, 5);
            assert_eq!(stats.shipped_values, 5 * 3);
            let tag = ps.col_id("tag").unwrap();
            let prev = (r + n_ranks - 1) % n_ranks;
            let mut natives = 0;
            let mut immigrants = 0;
            for i in 0..ps.len() {
                let e = ps.el(tag, i);
                if e[0] as usize == r {
                    natives += 1;
                    assert_eq!(e[1] as usize % 2, 0, "odd natives must have left");
                } else {
                    immigrants += 1;
                    assert_eq!(e[0] as usize, prev, "immigrants come from prev rank");
                    assert_eq!(e[1] as usize % 2, 1);
                    // Destination cell assignment applied.
                    assert_eq!(ps.cells()[i], 100 + e[1] as i32);
                }
            }
            assert_eq!(natives, 5);
            assert_eq!(immigrants, 5);
        }
    }

    #[test]
    fn migration_with_no_leavers_is_stable() {
        let out = world_run(2, |ctx| {
            let mut ps = local_store(ctx.rank, 4);
            let stats = migrate_particles(ctx, &mut ps, &[]);
            (ps.len(), stats)
        });
        for (len, stats) in out {
            assert_eq!(len, 4);
            assert_eq!(stats, MigrationStats::default());
        }
    }

    #[test]
    fn all_particles_leave_one_rank() {
        let out = world_run(2, |ctx| {
            let mut ps = local_store(ctx.rank, 3);
            let leavers: Vec<(usize, u32, i32)> = if ctx.rank == 0 {
                (0..3).map(|i| (i, 1u32, 0)).collect()
            } else {
                vec![]
            };
            migrate_particles(ctx, &mut ps, &leavers);
            ps.len()
        });
        assert_eq!(out, vec![0, 6]);
    }

    #[test]
    fn split_migration_bit_matches_synchronous() {
        // begin → interior compute → complete must leave every rank's
        // store bit-identical to the one-shot migrate_particles, and
        // the overlap window really runs between the two halves.
        let n_ranks = 3;
        let per_rank = 12;
        let leavers_for = |rank: usize| -> Vec<(usize, u32, i32)> {
            let dst = ((rank + 1) % n_ranks) as u32;
            (0..per_rank)
                .filter(|i| i % 3 == 1)
                .map(|i| (i, dst, 50 + i as i32))
                .collect()
        };
        let sync = world_run(n_ranks, |ctx| {
            let mut ps = local_store(ctx.rank, per_rank);
            let stats = migrate_particles(ctx, &mut ps, &leavers_for(ctx.rank));
            (ps, stats)
        });
        let split = world_run(n_ranks, |ctx| {
            let mut ps = local_store(ctx.rank, per_rank);
            let handle = migrate_particles_begin(ctx, &mut ps, &leavers_for(ctx.rank));
            // Interior compute on the surviving slots while in flight.
            let tag = ps.col_id("tag").unwrap();
            let keep = ps.len();
            for i in 0..keep {
                ps.el_mut(tag, i)[1] += 0.0; // touch, bitwise no-op
            }
            let stats = handle.complete(ctx, &mut ps);
            (ps, stats)
        });
        for ((pa, sa), (pb, sb)) in sync.iter().zip(&split) {
            assert_eq!(sa, sb);
            assert_eq!(pa.len(), pb.len());
            assert_eq!(pa.cells(), pb.cells());
            for id in pa.columns() {
                assert_eq!(pa.col(id), pb.col(id), "column bit-identity");
            }
        }
    }

    #[test]
    fn complete_after_models_network_latency() {
        use std::time::{Duration, Instant};
        // With no overlap compute, complete_after waits out the full
        // modeled latency; the arrivals still land.
        let out = world_run(2, |ctx| {
            let mut ps = local_store(ctx.rank, 4);
            let dst = (1 - ctx.rank) as u32;
            let leavers = vec![(0usize, dst, 9i32)];
            let handle = migrate_particles_begin(ctx, &mut ps, &leavers);
            let t0 = Instant::now();
            let stats = handle.complete_after(ctx, &mut ps, Duration::from_millis(20));
            (t0.elapsed(), stats.received, ps.len())
        });
        for (waited, received, len) in out {
            assert!(waited >= Duration::from_millis(15), "latency modeled");
            assert_eq!(received, 1);
            assert_eq!(len, 4);
        }
    }

    #[test]
    fn rma_global_move_matches_alltoall_semantics() {
        let n_ranks = 4;
        let out = world_run(n_ranks, |ctx| {
            let mut ps = local_store(ctx.rank, 8);
            // Scatter: particle i goes to rank i % n (skipping self).
            let leavers: Vec<(usize, u32, i32)> = (0..8)
                .filter(|i| i % n_ranks != ctx.rank)
                .map(|i| (i, (i % n_ranks) as u32, i as i32))
                .collect();
            let stats = global_move_rma(ctx, &mut ps, &leavers);
            (ps, stats)
        });
        let total: usize = out.iter().map(|(ps, _)| ps.len()).sum();
        assert_eq!(total, n_ranks * 8);
        for (r, (ps, stats)) in out.iter().enumerate() {
            assert_eq!(stats.sent, 6, "rank {r} sends 6 of its 8");
            assert_eq!(
                stats.received, 6,
                "each rank receives 2 from each of 3 others"
            );
            let tag = ps.col_id("tag").unwrap();
            for i in 0..ps.len() {
                let e = ps.el(tag, i);
                if e[0] as usize != r {
                    // Immigrant: must belong here by the scatter rule.
                    assert_eq!(e[1] as usize % n_ranks, r);
                }
            }
        }
    }

    #[test]
    fn unpack_checks_every_arrival_before_touching_the_store() {
        let mut ps = local_store(0, 2);
        let stride = ps.dofs() + 1;
        let good = vec![7.0; stride];
        let ragged = vec![7.0; stride + 1];
        let err = unpack(&mut ps, &[(1, good.clone()), (2, ragged)]).unwrap_err();
        assert_eq!(
            err,
            RaggedPayload {
                src: 2,
                len: stride + 1,
                stride
            }
        );
        assert_eq!(ps.len(), 2, "the good arrival must not be unpacked either");
        assert_eq!(unpack(&mut ps, &[(1, good)]), Ok(1));
        assert_eq!(ps.cells()[2], 7);
    }

    #[test]
    fn rma_epochs_do_not_leak_between_rounds() {
        let out = world_run(2, |ctx| {
            let mut ps = local_store(ctx.rank, 2);
            let dst = (1 - ctx.rank) as u32;
            // Round 1: rank 0 sends particle 0.
            let leavers: Vec<_> = if ctx.rank == 0 {
                vec![(0usize, dst, 5i32)]
            } else {
                vec![]
            };
            global_move_rma(ctx, &mut ps, &leavers);
            // Round 2: nobody sends; windows must be empty.
            let stats = global_move_rma(ctx, &mut ps, &[]);
            (ps.len(), stats.received)
        });
        assert_eq!(out[0], (1, 0));
        assert_eq!(out[1], (3, 0));
    }
}
