//! Mini-FEM-PIC application binary — the artifact's
//! `bin/fempic <config_file>` workflow. Flags, modes, the run loop and
//! exit codes are the shared front end's (`oppic_obs::cli`); this file
//! holds the config keys, the banner and the per-step report line.
//!
//! Config keys (all optional; `fempic --print-defaults` prints each
//! with its default, as a config file):
//! mesh (`nx ny nz lx ly lz`), physics (`charge mass inlet_velocity
//! wall_potential epsilon0 dt thermal_fraction`), run control (`steps
//! inject_per_step seed`), backend (`parallel deposit move coloring
//! integrator overlay_res`), cell sort (`sort_every sort_dirty` —
//! gather-side CSR index rebuild cadence), `deposit = auto` for the
//! auto-tuner, persistent thread binding
//! (`binding rebalance_every rebalance_drift`) and the numeric guards
//! (`guard_numerics`).

use oppic_core::{DepositMethod, ExecPolicy, Params, Simulation};
use oppic_fempic::{FemPic, FemPicConfig, Integrator, MoveStrategy};
use oppic_obs::cli::{self, App, Cli, Exit};
use std::io::Write;

fn config_from(params: &Params) -> Result<(FemPicConfig, usize, usize), String> {
    let d = FemPicConfig::default();
    let overlay_res = params.get_usize("overlay_res", 32)?;
    let cfg = FemPicConfig {
        nx: params.get_usize("nx", d.nx)?,
        ny: params.get_usize("ny", d.ny)?,
        nz: params.get_usize("nz", d.nz)?,
        lx: params.get_f64("lx", d.lx)?,
        ly: params.get_f64("ly", d.ly)?,
        lz: params.get_f64("lz", d.lz)?,
        inject_per_step: params.get_usize("inject_per_step", d.inject_per_step)?,
        charge: params.get_f64("charge", d.charge)?,
        mass: params.get_f64("mass", d.mass)?,
        inlet_velocity: params.get_f64("inlet_velocity", d.inlet_velocity)?,
        thermal_fraction: params.get_f64("thermal_fraction", d.thermal_fraction)?,
        wall_potential: params.get_f64("wall_potential", d.wall_potential)?,
        epsilon0: params.get_f64("epsilon0", d.epsilon0)?,
        dt: params.get_f64("dt", d.dt)?,
        policy: if params.get_bool("parallel", true)? {
            ExecPolicy::Par
        } else {
            ExecPolicy::Seq
        },
        deposit: match params.get_str("deposit", "sa").as_str() {
            "seq" => DepositMethod::Serial,
            "sa" => DepositMethod::ScatterArrays,
            "at" => DepositMethod::Atomics,
            "ua" => DepositMethod::UnsafeAtomics,
            "sr" => DepositMethod::SegmentedReduction,
            // The tuner picks per step; it starts from the default.
            "auto" => DepositMethod::ScatterArrays,
            other => return Err(format!("deposit = {other:?}: use seq/sa/at/ua/sr/auto")),
        },
        auto_tune: params.get_str("deposit", "sa") == "auto",
        sort_policy: params.sort_policy()?,
        move_strategy: match params.get_str("move", "mh").as_str() {
            "mh" => MoveStrategy::MultiHop,
            "dh" => MoveStrategy::DirectHop { overlay_res },
            other => return Err(format!("move = {other:?}: use mh/dh")),
        },
        seed: params.get_usize("seed", 0x0FF1CE)? as u64,
        record_move_chains: false,
        coloring: params.get_bool("coloring", false)?,
        integrator: match params.get_str("integrator", "leapfrog").as_str() {
            "leapfrog" => Integrator::Leapfrog,
            "verlet" => Integrator::VelocityVerlet,
            other => return Err(format!("integrator = {other:?}: use leapfrog/verlet")),
        },
        collisions: {
            let nd = params.get_f64("neutral_density", 0.0)?;
            let cross_section = params.get_f64("cross_section", 1.0)?;
            (nd > 0.0).then_some(oppic_fempic::CollisionModel {
                neutral_density: nd,
                cross_section,
            })
        },
        binding: params.get_bool("binding", false)?,
        rebalance: params.rebalance_policy()?,
        guard_numerics: params.get_bool("guard_numerics", false)?,
    };
    let steps = params.get_usize("steps", 100)?;
    let report_every = params.get_usize("report_every", 10)?.max(1);
    params.check_all_read()?;
    Ok((cfg, steps, report_every))
}

const TITLE: &str = "Mini-FEM-PIC";

fn main() {
    let cli = Cli::from_env();
    cli::exit(drive(&cli, &mut std::io::stdout()));
}

fn drive(cli: &Cli, out: &mut impl Write) -> Result<(), Exit> {
    let (cfg, steps, report_every) = cli.config(out, TITLE, config_from)?;
    if let Some(path) = &cli.record_schedule {
        return cli::record_schedule(out, TITLE, path, steps, |n| {
            oppic_fempic::record_schedule(&cfg, n)
        });
    }
    if cli.validate {
        let warmup = cli::warmup(steps);
        writeln!(
            out,
            "{TITLE} --validate: {} cells, {warmup} warm-up step(s)",
            cfg.n_cells()
        )?;
        let mut sim = FemPic::new(cfg);
        let app = app(&sim);
        return cli.validate(out, &mut sim, &app, warmup, |sim| {
            let plans = sim.loop_plans();
            let report = sim.validate_all();
            let text = format!("\n{}\n{report}", plans.summary());
            (text, report.exit_code_strict(cli.strict))
        });
    }
    writeln!(
        out,
        "{TITLE}: {} cells, {} nodes-worth duct, {} steps",
        cfg.n_cells(),
        (cfg.nx + 1) * (cfg.ny + 1) * (cfg.nz + 1),
        steps
    )?;
    let mut sim = FemPic::new(cfg);
    let app = app(&sim);
    cli.run(out, &mut sim, &app, steps, report_every, |sim| {
        format!(
            "step {:>5}: particles {:>9}  removed {:>6}  charge {:>12.5}",
            sim.step_count(),
            sim.ps.len(),
            sim.last_step_flux().1,
            sim.node_charge.sum()
        )
    })
}

fn app(sim: &FemPic) -> App {
    App::new(
        "fempic",
        &sim.cfg,
        sim.cfg.policy.threads(),
        sim.profiler.telemetry(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_that_cannot_take_effect_are_refused() {
        for key in [
            "overlap",
            "heartbeat_ms",
            "death_deadline_ms",
            "on_rank_death",
        ] {
            let params = Params::parse(&format!("{key} = 1\n")).unwrap();
            let err = config_from(&params).unwrap_err();
            assert!(err.contains("unknown parameter"), "{key}: {err}");
        }
        let params = Params::parse("overlap = true\n").unwrap();
        let err = config_from(&params).unwrap_err();
        assert!(err.starts_with("unknown parameter 'overlap'"), "{err}");
    }

    #[test]
    fn malformed_cross_section_is_an_error() {
        let params = Params::parse("neutral_density = 8\ncross_section = wide\n").unwrap();
        let err = config_from(&params).unwrap_err();
        assert!(err.contains("cross_section"), "{err}");
        let params = Params::parse("neutral_density = 8\ncross_section = 2.5\n").unwrap();
        let (cfg, _, _) = config_from(&params).unwrap();
        assert_eq!(cfg.collisions.map(|c| c.cross_section), Some(2.5));
    }

    #[test]
    fn printed_defaults_are_a_config_file_for_the_defaults() {
        let cli = Cli {
            print_defaults: true,
            ..Cli::default()
        };
        let mut out = Vec::new();
        assert_eq!(
            cli.config(&mut out, TITLE, config_from).err(),
            Some(Exit(0))
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().any(|l| l == "deposit = sa"), "{text}");
        let printed = config_from(&Params::parse(&text).unwrap()).unwrap();
        let defaults = config_from(&Params::default()).unwrap();
        assert_eq!(format!("{printed:?}"), format!("{defaults:?}"));
    }

    #[test]
    fn retired_matrix_deposit_is_refused() {
        for value in ["mx", "matrix"] {
            let params = Params::parse(&format!("deposit = {value}\n")).unwrap();
            let err = config_from(&params).unwrap_err();
            assert!(err.contains("use seq/sa/at/ua/sr/auto"), "{value}: {err}");
        }
    }
}
