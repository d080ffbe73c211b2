//! Mini-FEM-PIC: electrostatic FEM PIC in a duct — the paper's first
//! application, end to end.
//!
//! ```text
//! cargo run --release --example fempic_duct
//! ```
//!
//! Ions stream in at the inlet, the wall potential confines them, the
//! FEM Poisson solve updates the field every step, and particles exit
//! at the outlet. Prints the per-step diagnostics and the final
//! kernel-time breakdown (the Figure 9(a) quantities).

use op_pic::core::{DepositMethod, ExecPolicy};
use op_pic::fempic::{FemPic, FemPicConfig, MoveStrategy};

fn main() {
    let cfg = FemPicConfig {
        nx: 10,
        ny: 8,
        nz: 8,
        lx: 2.0,
        ly: 1.0,
        lz: 1.0,
        inject_per_step: 5000,
        wall_potential: 2.0,
        policy: ExecPolicy::Par,
        deposit: DepositMethod::ScatterArrays,
        move_strategy: MoveStrategy::DirectHop { overlay_res: 32 },
        ..FemPicConfig::default()
    };
    println!(
        "Mini-FEM-PIC: {} tet cells, injecting {}/step, direct-hop move\n",
        cfg.n_cells(),
        cfg.inject_per_step
    );

    let mut sim = FemPic::new(cfg);
    println!(
        "{:>5} {:>10} {:>9} {:>9} {:>13} {:>8}",
        "step", "particles", "injected", "removed", "total charge", "visits"
    );
    for step in 1..=80 {
        let d = sim.step();
        if step % 8 == 0 || step == 1 {
            println!(
                "{:>5} {:>10} {:>9} {:>9} {:>13.5} {:>8.2}",
                d.step, d.n_particles, d.injected, d.removed, d.total_charge, d.mean_move_visits
            );
        }
    }
    sim.check_invariants()
        .expect("all particles inside their cells");

    println!("\nkernel breakdown (the Figure 9(a) decomposition):");
    print!("{}", sim.profiler.telemetry().breakdown_table());
}
