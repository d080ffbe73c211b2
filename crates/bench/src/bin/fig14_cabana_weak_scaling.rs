//! Figure 14: CabanaPIC weak scaling — 96k cells and 144M particles
//! per CPU node / V100 / MI250X GCD, up to 16k cores / 1024 GPUs.
//!
//! Same two-layer scheme as Figure 13, the measured layer on the
//! library's plain N-rank loop. The paper's headline anomaly to
//! reproduce: at 144M particles per unit, **Bede (V100) is slower than
//! ARCHER2** — the single-unit kernel-divergence handicap carries
//! through the whole weak-scaling curve.

use oppic_bench::report::{banner, rank_note, scale_factor, steps};
use oppic_cabana::{CabanaConfig, CabanaPic, StructuredCabana};
use oppic_core::ExecPolicy;
use oppic_device::{analyze_warps, AtomicFlavor, DeviceSpec};
use oppic_model::{weak_scaling_curve, SystemSpec, WorkloadModel};
use oppic_resilience::run_distributed;

fn main() {
    banner(
        "Figure 14",
        "CabanaPIC weak scaling (96k cells + 144M particles per unit)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(8);
    let ppc = 32; // 144M-equivalent regime
    let base = CabanaConfig::paper_scaled(scale, ppc);
    println!(
        "scale={scale}: {} cells × {} ppc, {} steps\n",
        base.n_cells(),
        ppc,
        n_steps
    );

    // ---- Layer 1: measured in-process ranks ----
    println!("--- measured (in-process ranks, y-slab partition) ---");
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>12}",
        "ranks", "MainLoop (s)", "particles", "migrated", "comm MB"
    );
    for r in [1usize, 2, 4] {
        let mut cfg = base.clone();
        cfg.ny = base.ny * r; // weak scaling: grow the mesh with ranks
        let rep = run_distributed::<StructuredCabana>(&cfg, r, n_steps);
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

    // ---- Layer 2: per-unit kernel model, then projection ----
    // Measure single-unit traffic and warp behaviour once.
    let mut cfg = base.clone();
    cfg.policy = ExecPolicy::Par;
    cfg.record_visits = true;
    let mut sim = CabanaPic::new_dsl(cfg);
    sim.run(n_steps);
    let n = sim.ps.len();
    let visits = sim.last_visited.clone();
    let vel_col = sim.ps.col(sim.vel).to_vec();
    let cells = sim.ps.cells().to_vec();
    let per_step = |k: &str| {
        let s = sim.profiler.telemetry().get(k).unwrap_or_default();
        (
            s.bytes as f64 / n_steps as f64,
            s.flops as f64 / n_steps as f64,
        )
    };

    // Per-unit per-step compute time on each system: GPU units include
    // divergence/atomic terms; the CPU node is the pure roofline.
    let unit_step_time = |spec: &DeviceSpec| -> f64 {
        let rep = analyze_warps(
            spec.warp_size,
            n,
            |i| {
                oppic_bench::analysis::move_path_signature(
                    visits.get(i).copied().unwrap_or(1),
                    &vel_col[i * 3..i * 3 + 3],
                )
            },
            |i, out| {
                let c = cells[i] as u32;
                out.extend([c * 3, c * 3 + 1, c * 3 + 2]);
            },
        );
        let mut t = 0.0;
        for k in [
            "Interpolate",
            "Move_Deposit",
            "AccumulateCurrent",
            "AdvanceB",
            "AdvanceE",
        ] {
            let (b, f) = per_step(k);
            t += if k == "Move_Deposit" {
                rep.modeled_seconds(spec, AtomicFlavor::Unsafe, b, f)
            } else {
                spec.roofline_time(b, f)
            };
        }
        t
    };

    // Halo per unit: one ghost cell layer of the slab interface.
    let interface_cells = (base.nx * base.nz) as f64;
    let halo_bytes = interface_cells * 2.0 * 3.0 * 8.0 * 2.0;

    let units_axis: Vec<usize> = vec![1, 4, 16, 64, 128, 256, 512, 1024];
    println!("\n--- projected (per-unit kernel model + Table 2 networks) ---");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "units", "ARCHER2 (s)", "Bede V100 (s)", "LUMI GCD (s)"
    );
    let systems = [
        (SystemSpec::archer2(), DeviceSpec::epyc_7742_x2()),
        (SystemSpec::bede(), DeviceSpec::v100()),
        (SystemSpec::lumi_g(), DeviceSpec::mi250x_gcd()),
    ];
    let curves: Vec<Vec<f64>> = systems
        .iter()
        .map(|(sys, dev)| {
            let w = WorkloadModel {
                compute_s_per_step: unit_step_time(dev),
                halo_bytes_per_step: halo_bytes,
                msgs_per_step: 6.0,
                migration_bytes_per_step: 1e4,
                imbalance: 0.06,
                steps: 500,
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

    let archer_last = curves[0].last().unwrap();
    let bede_last = curves[1].last().unwrap();
    println!(
        "\nBede/ARCHER2 at scale: {:.2}x ({} — the paper's anomaly: the V100 cluster\n\
         is SLOWER than the CPU cluster for the 144M-per-unit problem)",
        bede_last / archer_last,
        if bede_last > archer_last {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
    println!(
        "\nShape checks vs Figure 14: good weak scaling to 16k cores / 1024 GCDs;\n\
         LUMI-G fastest per unit; Bede trails ARCHER2 at this particle density."
    );
}
