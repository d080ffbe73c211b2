//! Figure 9(a): Mini-FEM-PIC runtime breakdown on a single node/device.
//!
//! The paper runs a 48k-cell mesh with ≈70M particles on two CPU nodes
//! and four GPUs. Here the host runs the real code (sequential, and
//! thread-parallel with MH and DH moves); the GPU bars are projected
//! through the device cost model from the measured per-kernel traffic
//! plus the warp-divergence/atomic-collision analysis of the actual
//! particle data (DESIGN.md, substitutions). Scale with
//! `OPPIC_SCALE` (1.0 = paper size) and `OPPIC_STEPS`.

use oppic_bench::report::{banner, bar_chart, scale_factor, steps, telemetry_from_env};
use oppic_core::{DepositMethod, ExecPolicy};
use oppic_device::{analyze_warps, AtomicFlavor, DeviceSpec};
use oppic_fempic::{FemPic, FemPicConfig, MoveStrategy};

const KERNELS: [&str; 6] = [
    "Inject",
    "CalcPosVel",
    "Move",
    "DepositCharge",
    "ComputeF1Vector+SolvePotential",
    "ComputeElectricField",
];

fn run_variant(name: &str, cfg: FemPicConfig, n_steps: usize) -> (FemPic, Vec<(String, f64)>) {
    let mut sim = FemPic::new(cfg);
    let tel = sim.profiler.telemetry().clone();
    let sink = telemetry_from_env(
        &tel,
        "fempic",
        name,
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
        "\n--- {name} ({} particles after {n_steps} steps) ---",
        sim.ps.len()
    );
    print!("{}", bar_chart(&rows, "s"));
    (sim, rows)
}

fn main() {
    banner(
        "Figure 9(a)",
        "Mini-FEM-PIC runtime breakdown — 48k-cell duct, ~70M particles (scaled)",
    );
    let scale = scale_factor(0.02);
    let n_steps = steps(25);
    println!("scale={scale} (1.0 = paper size), steps={n_steps}\n");

    let base = FemPicConfig::paper_scaled(scale);

    // CPU sequential reference.
    let mut cfg = base.clone();
    cfg.policy = ExecPolicy::Seq;
    cfg.deposit = DepositMethod::Serial;
    run_variant("CPU sequential (seq backend)", cfg, n_steps);

    // CPU parallel, multi-hop (the flat-MPI/OpenMP analogue).
    let mut cfg = base.clone();
    cfg.policy = ExecPolicy::Par;
    cfg.deposit = DepositMethod::ScatterArrays;
    cfg.record_move_chains = true;
    let (sim_mh, _) = run_variant("CPU parallel, multi-hop (MH), scatter arrays", cfg, n_steps);

    // CPU parallel, direct-hop.
    let mut cfg = base.clone();
    cfg.policy = ExecPolicy::Par;
    cfg.deposit = DepositMethod::ScatterArrays;
    cfg.move_strategy = MoveStrategy::DirectHop {
        overlay_res: 2 * base.nx,
    };
    let (sim_dh, _) = run_variant(
        "CPU parallel, direct-hop (DH), scatter arrays",
        cfg,
        n_steps,
    );

    println!(
        "\nMove search work: MH {:.3} visits/particle vs DH {:.3}.\n\
         (DH pays off when particles cross several cells per step — the paper's\n\
         large, fast-flow runs; see `ablation_move_strategies` for that regime.)",
        sim_mh.last_move.mean_visits(sim_mh.ps.len().max(1)),
        sim_dh.last_move.mean_visits(sim_dh.ps.len().max(1)),
    );

    // GPU projections from measured traffic + warp analysis.
    println!("\n--- GPU projections (device cost model; per-step kernel times) ---");
    let n = sim_mh.ps.len();
    let chains = &sim_mh.last_move.chains;
    let cells = sim_mh.ps.cells();
    let c2n = &sim_mh.mesh.c2n;

    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>14}",
        "device", "Move (s)", "CalcPosVel", "Deposit AT", "Deposit SR/UA"
    );
    for spec in [
        DeviceSpec::v100(),
        DeviceSpec::h100(),
        DeviceSpec::mi210(),
        DeviceSpec::mi250x_gcd(),
    ] {
        // Divergence of the Move kernel = spread of hop-chain lengths
        // within a warp.
        let move_rep = analyze_warps(
            spec.warp_size,
            n,
            |i| chains.get(i).copied().unwrap_or(1),
            |_, _| {},
        );
        // Deposit: each particle updates the 4 nodes of its cell.
        let dep_rep = analyze_warps(
            spec.warp_size,
            n,
            |_| 0,
            |i, out| {
                let nd = c2n[cells[i] as usize];
                out.extend(nd.iter().map(|&x| x as u32));
            },
        );
        let g = |k: &str| {
            let s = sim_mh.profiler.telemetry().get(k).unwrap_or_default();
            // Per-step traffic.
            (
                s.bytes as f64 / n_steps as f64,
                s.flops as f64 / n_steps as f64,
            )
        };
        let (mv_b, mv_f) = g("Move");
        let (cp_b, cp_f) = g("CalcPosVel");
        let (dc_b, dc_f) = g("DepositCharge");
        let t_move = move_rep.modeled_gather_seconds(&spec, AtomicFlavor::Safe, mv_b, mv_f);
        let t_push = spec.gather_roofline_time(cp_b, cp_f);
        let t_dep_at = dep_rep.modeled_gather_seconds(&spec, AtomicFlavor::Safe, dc_b, dc_f);
        let t_dep_ua = dep_rep.modeled_gather_seconds(&spec, AtomicFlavor::Unsafe, dc_b, dc_f);
        println!(
            "{:<22} {:>12.6} {:>12.6} {:>14.6} {:>14.6}",
            spec.name, t_move, t_push, t_dep_at, t_dep_ua
        );
    }
    println!(
        "\nShape checks vs the paper: Move dominates on CPUs and NVIDIA GPUs; on AMD\n\
         GPUs safe-atomic DepositCharge (AT) blows up vs UA/SR; DH beats MH."
    );
}
