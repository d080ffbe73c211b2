//! Mini-FEM-PIC on the library's plain N-rank loop, under the name
//! the benchmark package calls.

use oppic_fempic::{FemPic, FemPicConfig};
pub use oppic_resilience::DistributedReport;

/// Run Mini-FEM-PIC on `n_ranks` in-process ranks for `steps` steps:
/// each rank injects `inject_per_step / n_ranks` particles from its
/// own stream over the directional partition (`FemPic`'s
/// [`oppic_mpi::RankApp::new_rank`]).
/// The check scalar is the total node charge.
pub fn run_fempic_distributed(
    base: &FemPicConfig,
    n_ranks: usize,
    steps: usize,
) -> DistributedReport {
    oppic_resilience::run_distributed::<FemPic>(base, n_ranks, steps)
}
