//! Figure 13: Mini-FEM-PIC weak scaling — 48k cells and 70M particles
//! per CPU node / V100 / MI250X GCD, 250 iterations, up to 128 units.
//!
//! Two layers, per the substitution policy:
//! 1. a *measured* in-process distributed run (real ranks, real
//!    particle migration, real reductions) at 1–8 ranks, on the
//!    library's plain N-rank loop; a row with more ranks than the
//!    host has cores is labelled oversubscribed, not scaling;
//! 2. a *projected* curve to the paper's 128 units for each Table 2
//!    system, from the measured per-unit compute time and the real
//!    halo volumes of the directional partition.

use oppic_bench::report::{banner, rank_note, scale_factor, steps};
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mesh::TetMesh;
use oppic_model::{weak_scaling_curve, SystemSpec, WorkloadModel};
use oppic_mpi::partition::{directional_partition, partition_stats};
use oppic_resilience::run_distributed;

fn main() {
    banner(
        "Figure 13",
        "Mini-FEM-PIC weak scaling (48k cells + 70M particles per unit)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(10);
    let base = FemPicConfig::paper_scaled(scale);
    println!(
        "scale={scale}: {} cells, {} injected/step/rank-set, {} steps\n",
        base.n_cells(),
        base.inject_per_step,
        n_steps
    );

    // ---- Layer 1: measured in-process ranks ----
    println!("--- measured (in-process ranks, per-rank problem fixed) ---");
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>12}",
        "ranks", "MainLoop (s)", "particles", "migrated", "comm MB"
    );
    let mut t1 = 0.0;
    for r in [1usize, 2, 4, 8] {
        // Weak scaling: total work grows with ranks.
        let mut cfg = base.clone();
        cfg.inject_per_step = base.inject_per_step * r;
        let rep = run_distributed::<FemPic>(&cfg, r, n_steps);
        if r == 1 {
            t1 = rep.main_loop_seconds;
        }
        let migrated: usize = rep.ranks.iter().map(|x| x.migrated_out).sum();
        println!(
            "{:>6} {:>14.4} {:>12} {:>12} {:>12.3}{}",
            r,
            rep.main_loop_seconds,
            rep.total_particles,
            migrated,
            rep.total_comm_bytes() as f64 / 1e6,
            rank_note(r)
        );
    }

    // ---- Layer 2: projection to paper scale ----
    // Halo volume measured from the real partition of the PAPER-size
    // mesh: 20x20x20 hexes = 48k tets is one unit's mesh; at scale the
    // global mesh is 48k x units, but the per-unit interface stays the
    // interface of a 48k slab.
    let mesh = TetMesh::duct(20, 20, 20, base.lx, base.ly, base.lz);
    let centroids: Vec<_> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    let units_axis: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128];
    // Per-unit halo cells at 8 ranks (interior ranks have two
    // interfaces — representative of large R).
    let rank8 = directional_partition(&centroids, 1, 8);
    let stats = partition_stats(&mesh.c2c, &rank8, 8);
    let halo_cells_per_unit = stats.halo_cells as f64 / 8.0;
    // Scale measured host compute (a) to the paper's per-unit particle
    // count (bandwidth-bound work ∝ particles) and (b) to each
    // system's bandwidth.
    let particles_measured = {
        let rep = run_distributed::<FemPic>(&base, 1, n_steps);
        rep.total_particles.max(1)
    };
    let paper_particles_per_unit = 70e6;
    let work_ratio = paper_particles_per_unit / particles_measured as f64;
    let host_bw = 50.0; // conservative laptop-class GB/s
    println!("\n--- projected to paper scale (bandwidth-scaled compute + Table 2 networks) ---");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "units", "ARCHER2 (s)", "Bede V100 (s)", "LUMI GCD (s)"
    );
    let curves: Vec<Vec<f64>> = [
        SystemSpec::archer2(),
        SystemSpec::bede(),
        SystemSpec::lumi_g(),
    ]
    .iter()
    .map(|sys| {
        // GPU units lose ~3x more bandwidth than cached CPUs on
        // the data-dependent gathers that dominate FEM-PIC (see
        // DeviceSpec::gather_efficiency); the host measurement is
        // CPU-cached, so only GPU units get the relative derate.
        let gather_rel = if sys.units_per_node > 1 {
            1.0 / 3.0
        } else {
            1.0
        };
        let w = WorkloadModel {
            compute_s_per_step: (t1 / n_steps as f64) * work_ratio * host_bw
                / (sys.unit_mem_bw_gbs * gather_rel),
            halo_bytes_per_step: halo_cells_per_unit * 2.0 * 8.0 * 2.0,
            msgs_per_step: 8.0,
            // Migration is tiny with the directional partition.
            migration_bytes_per_step: 1e4,
            imbalance: 0.10,
            steps: 250,
        };
        weak_scaling_curve(sys, &w, &units_axis)
            .into_iter()
            .map(|p| p.total_s)
            .collect()
    })
    .collect();
    for (k, &u) in units_axis.iter().enumerate() {
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>14.3}",
            u, curves[0][k], curves[1][k], curves[2][k]
        );
    }
    let eff = |c: &Vec<f64>| c[0] / c[c.len() - 1];
    println!(
        "\nparallel efficiency at 128 units: ARCHER2 {:.0}%, Bede {:.0}%, LUMI-G {:.0}%",
        eff(&curves[0]) * 100.0,
        eff(&curves[1]) * 100.0,
        eff(&curves[2]) * 100.0
    );
    println!(
        "\nShape checks vs Figure 13: near-flat weak scaling to 128 units on every\n\
         system; each GPU unit beats an ARCHER2 node at equal unit counts\n\
         (V100/GCD bandwidth > node bandwidth); Move dominates throughout."
    );
}
