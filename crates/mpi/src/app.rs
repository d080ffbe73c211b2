//! [`RankApp`]: what the library's N-rank run loops need from an app.

use crate::comm::RankCtx;
use crate::exchange::{MigrationStats, Transport};
use oppic_core::{ColId, ParticleDats, Recoverable, Telemetry};
use oppic_mesh::Vec3;
use std::sync::Arc;

/// An app the N-rank run loops of `oppic-resilience` step: set up a
/// rank, step it over a [`Transport`], checkpoint it ([`Recoverable`])
/// and hand a dead rank's cells and particles to the survivors.
pub trait RankApp: Recoverable + Sized {
    /// The whole-world configuration every rank is built from.
    type Config: Sync;

    /// Rank `rank`'s simulation in an `n_ranks` run, and the cell →
    /// rank map of its partition.
    fn new_rank(cfg: &Self::Config, rank: usize, n_ranks: usize) -> (Self, Vec<u32>);

    /// The app's one step body over `net`; returns the step's particle
    /// migration. Collective.
    fn step_over<N: Transport>(&mut self, net: &mut N) -> Result<MigrationStats, N::Error>;

    /// The particle store and its position column.
    fn particles(&mut self) -> (&mut ParticleDats, ColId);

    /// Centroid of cell `c`: a shrink re-partitions a dead rank's cells
    /// by it.
    fn cell_centroid(&self, c: usize) -> Vec3;

    /// The rank's hub: the step, the reliable link and the recovery
    /// chain all count and alert there.
    fn telemetry(&self) -> &Arc<Telemetry>;

    /// A global scalar for cross-checking runs at different rank
    /// counts, identical on every rank. Collective.
    fn check_scalar(&self, ctx: &mut RankCtx) -> f64;
}
