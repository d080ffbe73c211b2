//! Ablation (Section 4.2 text): multi-hop vs direct-hop particle move.
//!
//! "Comparing MH to DH (not shown) we observed that the DH approach
//! consistently gives 20% faster runtimes." DH wins when particles
//! cross several cells per step — the regime exercised here with a
//! fast-flow duct — and additionally trades memory for hops (the
//! overlay bookkeeping), which this binary reports too. DH probes each
//! particle's current cell and takes one `c2c` hop before it reads the
//! overlay; the `seeded` column is the share of particles that neither
//! visit placed.

use oppic_bench::report::{banner, steps, telemetry_from_env};
use oppic_core::ExecPolicy;
use oppic_fempic::{FemPic, FemPicConfig, MoveStrategy};
use oppic_mesh::{StructuredOverlay, TetMesh};
use std::time::Instant;

/// A hop-heavy configuration: long duct, particles cross ~2–4 cells
/// per step.
fn fast_flow_config() -> FemPicConfig {
    FemPicConfig {
        nx: 24,
        ny: 6,
        nz: 6,
        lx: 12.0,
        ly: 1.0,
        lz: 1.0,
        inlet_velocity: 4.0,
        dt: 0.25,
        inject_per_step: 6000,
        wall_potential: 1.0,
        policy: ExecPolicy::Par,
        ..FemPicConfig::default()
    }
}

fn main() {
    banner(
        "Ablation",
        "particle move: multi-hop (MH) vs direct-hop (DH)",
    );
    let n_steps = steps(20);
    let base = fast_flow_config();
    println!(
        "fast-flow duct: {} cells, v·dt = {} (≈{:.1} hex cells/step), {} steps\n",
        base.n_cells(),
        base.inlet_velocity * base.dt,
        base.inlet_velocity * base.dt / (base.lx / base.nx as f64),
        n_steps
    );

    println!(
        "{:<34} {:>12} {:>14} {:>10} {:>12} {:>14}",
        "strategy", "Move (s)", "visits/ptcl", "seeded", "overlay MB", "total (s)"
    );
    let mut mh_time = 0.0;
    for (label, strategy, res) in [
        ("multi-hop (MH)", MoveStrategy::MultiHop, 0usize),
        (
            "direct-hop (DH), overlay 48³",
            MoveStrategy::DirectHop { overlay_res: 48 },
            48,
        ),
        (
            "direct-hop (DH), overlay 96³",
            MoveStrategy::DirectHop { overlay_res: 96 },
            96,
        ),
        (
            "direct-hop (DH), overlay 24³",
            MoveStrategy::DirectHop { overlay_res: 24 },
            24,
        ),
    ] {
        let mut cfg = base.clone();
        cfg.move_strategy = strategy;
        let mut sim = FemPic::new(cfg);
        let tel = sim.profiler.telemetry().clone();
        let sink = telemetry_from_env(
            &tel,
            "fempic",
            label,
            sim.cfg.policy.threads(),
            &format!("{:?}", sim.cfg),
        );
        let t0 = Instant::now();
        sim.run(n_steps);
        let total = t0.elapsed().as_secs_f64();
        if sink {
            let _ = tel.finish();
        }
        let move_s = tel.get("Move").map_or(0.0, |s| s.seconds);
        if label.starts_with("multi") {
            mh_time = move_s;
        }
        let overlay_mb = if res > 0 {
            let mesh = TetMesh::duct(base.nx, base.ny, base.nz, base.lx, base.ly, base.lz);
            StructuredOverlay::build(&mesh, [res; 3]).memory_bytes() as f64 / 1e6
        } else {
            0.0
        };
        // Particles the last move saw: the survivors plus the removed.
        let moved_over = sim.ps.len() + sim.last_move.removed.len();
        println!(
            "{:<34} {:>12.4} {:>14.3} {:>9.1}% {:>12.3} {:>14.4}",
            label,
            move_s,
            sim.last_move.mean_visits(sim.ps.len().max(1)),
            100.0 * sim.last_move.seeded as f64 / moved_over.max(1) as f64,
            overlay_mb,
            total
        );
        if !label.starts_with("multi") && mh_time > 0.0 {
            println!(
                "{:<34} {:>11.1}% faster Move than MH",
                "",
                (1.0 - move_s / mh_time) * 100.0
            );
        }
    }

    println!(
        "\nShape checks vs the paper: DH reduces search visits (and Move time) in the\n\
         multi-cell-per-step regime — the paper's 'consistently ~20% faster' — at\n\
         the price of the overlay's memory footprint, which grows with resolution.\n\
         DH tests each particle in its current cell and in the one c2c neighbour a\n\
         miss there names before it reads the overlay. Here almost every particle\n\
         crosses more than one cell each step, so those are two extra visits per\n\
         particle that spare few overlay reads; where most particles stay put or\n\
         cross a single face (the small-dt duct of configs/fempic_small.cfg) they\n\
         spare the overlay read for nearly all of them."
    );
}
