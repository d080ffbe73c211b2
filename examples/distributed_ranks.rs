//! Distributed-memory OP-PIC: both applications on in-process MPI-style
//! ranks, with mesh partitioning, particle migration and reductions.
//!
//! ```text
//! cargo run --release --example distributed_ranks
//! ```
//!
//! Demonstrates the Section 3.2 machinery end to end on the library's
//! plain N-rank loop (`oppic_resilience::run_distributed`): the
//! directional partitioner, pack/alltoallv/hole-fill/unpack particle
//! migration, and per-step reductions standing in for halo exchanges —
//! and checks conservation against the single-rank run.

use op_pic::cabana::{CabanaConfig, StructuredCabana};
use op_pic::fempic::{FemPic, FemPicConfig};
use oppic_resilience::run_distributed;

fn main() {
    // ---- CabanaPIC across 1, 2, 4 ranks ----
    let cfg = CabanaConfig {
        nx: 8,
        ny: 8,
        nz: 8,
        dx: 0.125,
        dy: 0.125,
        dz: 0.125,
        ppc: 16,
        ..CabanaConfig::tiny()
    };
    println!(
        "CabanaPIC on in-process ranks ({} cells x {} ppc):",
        cfg.n_cells(),
        cfg.ppc
    );
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>12} {:>16}",
        "ranks", "particles", "MainLoop (s)", "migrated", "comm (MB)", "total energy"
    );
    let mut reference_energy = None;
    for r in [1usize, 2, 4] {
        let rep = run_distributed::<StructuredCabana>(&cfg, r, 8);
        let migrated: usize = rep.ranks.iter().map(|x| x.migrated_out).sum();
        println!(
            "{:>6} {:>12} {:>14.4} {:>10} {:>12.3} {:>16.8e}",
            r,
            rep.total_particles,
            rep.main_loop_seconds,
            migrated,
            rep.total_comm_bytes() as f64 / 1e6,
            rep.check_scalar
        );
        match reference_energy {
            None => reference_energy = Some(rep.check_scalar),
            Some(e) => {
                let rel = (rep.check_scalar - e).abs() / e.abs();
                assert!(rel < 1e-9, "distributed physics drifted: {rel}");
            }
        }
    }
    println!("energy identical across rank counts (to reduction-order tolerance)\n");

    // ---- Mini-FEM-PIC across ranks ----
    let cfg = FemPicConfig {
        inject_per_step: 1200,
        ..FemPicConfig::tiny()
    };
    println!(
        "Mini-FEM-PIC on in-process ranks ({} cells):",
        cfg.n_cells()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>12} {:>12}",
        "ranks", "particles", "MainLoop (s)", "migrated", "comm (MB)", "imbalance"
    );
    for r in [1usize, 2, 4] {
        let rep = run_distributed::<FemPic>(&cfg, r, 8);
        let migrated: usize = rep.ranks.iter().map(|x| x.migrated_out).sum();
        println!(
            "{:>6} {:>12} {:>14.4} {:>10} {:>12.3} {:>12.3}",
            r,
            rep.total_particles,
            rep.main_loop_seconds,
            migrated,
            rep.total_comm_bytes() as f64 / 1e6,
            rep.imbalance()
        );
    }
    println!("\ndistributed ranks OK");
}
