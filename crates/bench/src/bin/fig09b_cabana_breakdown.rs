//! Figure 9(b): CabanaPIC runtime breakdown on a single node/device,
//! at two particle counts (the paper: 96k cells with 72M and 144M
//! particles, i.e. 750 and 1500 particles per cell).
//!
//! Host bars are measured; GPU bars are projected through the device
//! cost model, including the Move_Deposit kernel-divergence penalty the
//! paper highlights ("threads within a warp take different execution
//! paths") and the atomic current-deposit serialization.

use oppic_bench::report::{banner, bar_chart, scale_factor, steps, telemetry_from_env};
use oppic_cabana::{CabanaConfig, CabanaPic};
use oppic_core::ExecPolicy;
use oppic_device::{analyze_warps, AtomicFlavor, DeviceSpec};

const KERNELS: [&str; 6] = [
    "Interpolate",
    "Move_Deposit",
    "AccumulateCurrent",
    "AdvanceB",
    "AdvanceE",
    "Update_Ghosts",
];

fn run_case(label: &str, cfg: CabanaConfig, n_steps: usize) -> CabanaPic {
    let mut sim = CabanaPic::new_dsl(cfg);
    let tel = sim.profiler.telemetry().clone();
    let sink = telemetry_from_env(
        &tel,
        "cabana",
        label,
        sim.cfg.policy.threads(),
        &format!("{:?}", sim.cfg),
    );
    sim.run(n_steps);
    if sink {
        let _ = tel.finish();
    }
    let rows: Vec<(String, f64)> = KERNELS
        .iter()
        .map(|k| (k.to_string(), tel.get(k).map_or(0.0, |s| s.seconds)))
        .collect();
    println!(
        "\n--- {label}: {} cells × {} ppc = {} particles, {n_steps} steps ---",
        sim.cfg.n_cells(),
        sim.cfg.ppc,
        sim.ps.len()
    );
    print!("{}", bar_chart(&rows, "s"));
    sim
}

fn main() {
    banner(
        "Figure 9(b)",
        "CabanaPIC runtime breakdown — 96k-cell box, 72M/144M particles (scaled)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(20);
    // The paper's two regimes: 750 and 1500 ppc, scaled down
    // proportionally (keep the 1:2 ratio).
    let ppc_lo = 16;
    let ppc_hi = 32;
    println!("scale={scale}, steps={n_steps}, ppc={ppc_lo}/{ppc_hi} (paper: 750/1500)\n");

    for (ppc, tag) in [(ppc_lo, "72M-equivalent"), (ppc_hi, "144M-equivalent")] {
        let mut cfg = CabanaConfig::paper_scaled(scale, ppc);
        cfg.policy = ExecPolicy::Par;
        cfg.record_visits = true;
        let sim = run_case(tag, cfg, n_steps);

        // GPU projections.
        let n = sim.ps.len();
        let visits = &sim.last_visited;
        let vel_col = sim.ps.col(sim.vel).to_vec();
        let cells = sim.ps.cells();
        println!("GPU projections ({tag}):");
        println!(
            "  {:<22} {:>14} {:>10} {:>12} {:>12}",
            "device", "Move_Deposit", "div.fac", "collisions%", "AdvanceE (s)"
        );
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::h100(),
            DeviceSpec::mi210(),
            DeviceSpec::mi250x_gcd(),
        ] {
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
            let g = |k: &str| {
                let s = sim.profiler.telemetry().get(k).unwrap_or_default();
                (
                    s.bytes as f64 / n_steps as f64,
                    s.flops as f64 / n_steps as f64,
                )
            };
            let (md_b, md_f) = g("Move_Deposit");
            let (ae_b, ae_f) = g("AdvanceE");
            let t_md = rep.modeled_seconds(&spec, AtomicFlavor::Unsafe, md_b, md_f);
            let t_ae = spec.roofline_time(ae_b, ae_f);
            println!(
                "  {:<22} {:>14.6} {:>10.3} {:>11.1}% {:>12.6}",
                spec.name,
                t_md,
                rep.divergence_factor(),
                100.0 * rep.collision_rate(),
                t_ae
            );
        }
    }
    println!(
        "\nShape checks vs the paper: Move_Deposit overwhelmingly dominates; the\n\
         higher-ppc case worsens atomic collisions (compounded serialization);\n\
         kernel divergence inflates GPU Move_Deposit beyond the pure roofline time\n\
         (the effect that lets a 2-socket EPYC beat a V100 at 144M particles)."
    );
}
