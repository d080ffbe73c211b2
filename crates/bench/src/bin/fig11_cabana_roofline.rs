//! Figure 11: CabanaPIC rooflines on the Intel 8268 CPU node, the
//! V100, and one MI250X GCD — 96k cells, 72M-particle regime (scaled).
//!
//! The paper's observation to reproduce: every routine is
//! bandwidth-bound; `Move_Deposit` sits a little *below* the DRAM roof
//! (it fuses move + deposit and suffers kernel divergence);
//! `Update_Ghosts` is excluded (comm-dominated).

use oppic_bench::report::{banner, scale_factor, steps};
use oppic_cabana::{CabanaConfig, CabanaPic};
use oppic_core::ExecPolicy;
use oppic_core::KernelStats;
use oppic_device::{analyze_warps, AtomicFlavor, DeviceSpec};
use oppic_model::RooflineChart;

fn main() {
    banner(
        "Figure 11",
        "CabanaPIC rooflines (CPU node, V100, MI250X GCD)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(15);

    let mut cfg = CabanaConfig::paper_scaled(scale, 16);
    cfg.policy = ExecPolicy::Par;
    cfg.record_visits = true;
    let mut sim = CabanaPic::new_dsl(cfg);
    sim.run(n_steps);

    let n = sim.ps.len();
    let visits = sim.last_visited.clone();
    let vel_col = sim.ps.col(sim.vel).to_vec();
    let cells = sim.ps.cells().to_vec();

    let kernels = [
        "Interpolate",
        "Move_Deposit",
        "AccumulateCurrent",
        "AdvanceB",
        "AdvanceE",
    ];

    for spec in [
        DeviceSpec::xeon_8268_x2(),
        DeviceSpec::v100(),
        DeviceSpec::mi250x_gcd(),
    ] {
        let mut chart = RooflineChart::new(spec.name, spec.mem_bw_gbs, spec.peak_gflops);
        let md_rep = analyze_warps(
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
        for k in kernels {
            let st = sim.profiler.telemetry().get(k).unwrap_or_default();
            if st.bytes == 0 {
                continue;
            }
            let (b, f) = (st.bytes as f64, st.flops as f64);
            let t = if k == "Move_Deposit" {
                md_rep.modeled_seconds(&spec, AtomicFlavor::Unsafe, b, f)
            } else {
                spec.roofline_time(b, f)
            };
            let modeled = KernelStats {
                calls: st.calls,
                seconds: t,
                bytes: st.bytes,
                flops: st.flops,
                class: st.class,
            };
            chart.place(k, &modeled);
        }
        println!("\n{}", chart.table());
    }

    println!(
        "\nShape checks vs Figure 11: all routines at memory-bound intensities;\n\
         Move_Deposit just below the DRAM roof (divergence + fused move/deposit);\n\
         pure field kernels (AdvanceE/AdvanceB/Interpolate) ride the bandwidth roof."
    );
}
