//! Particle migration — the distributed side of `opp_particle_move`
//! (Section 3.2.2 and Figure 7).
//!
//! After a local move pass, some particles have landed in cells owned
//! by other ranks. Every migration path runs one body, [`exchange`]:
//! it packs each leaver's full payload `[cell, dofs…]` into one buffer
//! per destination rank ("reducing the number of MPI messages"), ships
//! the buffers through the transport's collective, checks the stride
//! of every arrival, then hole-fills the source store and appends the
//! arrivals "to the end of the respective `opp_dat`s".
//!
//! Transports move the buffers:
//!
//! * [`migrate_particles`] — the plain alltoallv path;
//! * [`Plain`] — the same path behind the [`Transport`] trait the
//!   apps' one step body is generic over; [`Local`] is its one-rank
//!   form, and the reliable link in `oppic-resilience` the
//!   fault-tolerant one.
//!
//! The paper's MPI-RMA global move, which finds a direct-hop
//! particle's target rank through the overlay's rank-map, has no
//! counterpart: every rank holds the whole mesh, so the move finishes
//! locally and the leavers' ranks come from the cell → rank map.

use crate::comm::RankCtx;
use oppic_core::particles::ParticleDats;
use std::convert::Infallible;
use std::fmt;

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
fn pack(ps: &ParticleDats, leavers: &[(usize, u32, i32)], n_ranks: usize) -> Vec<Vec<f64>> {
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
fn check_arrivals(ps: &ParticleDats, arrivals: &[(usize, Vec<f64>)]) -> Result<(), RaggedPayload> {
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

/// Append every checked arrival at the end of the dats, in arrival
/// order; returns the particles received.
fn append(ps: &mut ParticleDats, arrivals: &[(usize, Vec<f64>)]) -> usize {
    let stride = ps.dofs() + 1;
    let mut received = 0usize;
    for (_, payload) in arrivals {
        for chunk in payload.chunks_exact(stride) {
            ps.unpack_one(&chunk[1..], chunk[0] as i32);
            received += 1;
        }
    }
    received
}

/// [`check_arrivals`] then [`append`]: on error the store is untouched.
#[cfg(test)]
fn unpack(ps: &mut ParticleDats, arrivals: &[(usize, Vec<f64>)]) -> Result<usize, RaggedPayload> {
    check_arrivals(ps, arrivals)?;
    Ok(append(ps, arrivals))
}

/// The one migration body behind every transport: pack the leavers
/// `(slot, destination rank, destination cell)` into one buffer per
/// rank, hand them to `ship` (the collective: buffers indexed by
/// destination in, `(source rank, payload)` arrivals out), check every
/// arrival's stride, and only then hole-fill the leavers' slots and
/// append the arrivals. A failed `ship` or a ragged arrival leaves the
/// store untouched.
pub fn exchange<E: From<RaggedPayload>>(
    ps: &mut ParticleDats,
    leavers: &[(usize, u32, i32)],
    n_ranks: usize,
    ship: impl FnOnce(Vec<Vec<f64>>) -> Result<Vec<(usize, Vec<f64>)>, E>,
) -> Result<MigrationStats, E> {
    let buffers = pack(ps, leavers, n_ranks);
    let shipped_values: usize = buffers.iter().map(Vec::len).sum();
    let arrivals = ship(buffers)?;
    check_arrivals(ps, &arrivals)?;
    remove_leavers(ps, leavers);
    let received = append(ps, &arrivals);
    Ok(MigrationStats {
        sent: leavers.len(),
        received,
        shipped_values,
    })
}

/// What an app's step needs from the interconnect: one particle
/// migration and one in-place vector sum-reduction. Both are
/// collective — every rank calls them in the same order. A transport
/// carries what only ranks need (the communicator and the cell → rank
/// map), so the one-rank [`Local`] has nothing to scan, ship or copy.
pub trait Transport {
    type Error;

    /// Ship every particle whose cell another rank owns, hole-fill
    /// their slots, and append this rank's arrivals at the end of `ps`.
    fn migrate(&mut self, ps: &mut ParticleDats) -> Result<MigrationStats, Self::Error>;

    /// Replace `x` by its element-wise global sum, identical on every
    /// rank.
    fn allreduce_sum(&mut self, x: &mut [f64]) -> Result<(), Self::Error>;
}

/// One rank owns every cell: no particle leaves and every sum is
/// already global.
#[derive(Debug, Clone, Copy, Default)]
pub struct Local;

impl Transport for Local {
    type Error = Infallible;

    fn migrate(&mut self, _ps: &mut ParticleDats) -> Result<MigrationStats, Infallible> {
        Ok(MigrationStats::default())
    }

    fn allreduce_sum(&mut self, _x: &mut [f64]) -> Result<(), Infallible> {
        Ok(())
    }
}

/// The plain channel transport of rank `ctx.rank`: [`migrate_particles`]
/// for the particles whose cell `cell_rank` gives to another rank, and
/// the communicator's allreduce.
pub struct Plain<'a> {
    pub ctx: &'a mut RankCtx,
    /// Owner rank of every cell.
    pub cell_rank: &'a [u32],
}

impl Transport for Plain<'_> {
    type Error = Infallible;

    fn migrate(&mut self, ps: &mut ParticleDats) -> Result<MigrationStats, Infallible> {
        let leavers = ps.leavers(self.cell_rank, self.ctx.rank);
        Ok(migrate_particles(self.ctx, ps, &leavers))
    }

    fn allreduce_sum(&mut self, x: &mut [f64]) -> Result<(), Infallible> {
        let total = self.ctx.allreduce_vec_sum(x);
        x.copy_from_slice(&total);
        Ok(())
    }
}

/// Migrate particles between ranks through matched alltoallv buffers:
/// [`exchange`] over [`RankCtx::alltoallv`].
///
/// `leavers` lists `(particle index, destination rank, destination
/// local cell)` for every particle that must leave this rank; indices
/// must be unique. Collective: every rank must call this.
pub fn migrate_particles(
    ctx: &mut RankCtx,
    ps: &mut ParticleDats,
    leavers: &[(usize, u32, i32)],
) -> MigrationStats {
    debug_assert!(
        leavers.iter().all(|&(_, dst, _)| dst as usize != ctx.rank),
        "leaver staying home"
    );
    exchange(ps, leavers, ctx.n_ranks, |buffers| {
        Ok::<_, RaggedPayload>(ctx.alltoallv(buffers).into_iter().enumerate().collect())
    })
    .unwrap_or_else(|e| panic!("{e}"))
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
            let bytes0 = ctx.sent_bytes();
            let stats = migrate_particles(ctx, &mut ps, &leavers);
            let bytes = ctx.sent_bytes() - bytes0;
            (ps, stats, bytes)
        });

        let total: usize = out.iter().map(|(ps, _, _)| ps.len()).sum();
        assert_eq!(total, n_ranks * per_rank, "global particle count conserved");
        for (r, (ps, stats, bytes)) in out.iter().enumerate() {
            assert_eq!(stats.sent, 5);
            assert_eq!(stats.received, 5);
            assert_eq!(stats.shipped_values, 5 * 3);
            // The communicator counts every shipped word at 8 bytes
            // (the empty self- and non-neighbour frames add nothing).
            assert_eq!(*bytes, 8 * stats.shipped_values as u64, "rank {r} bytes");
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
}
