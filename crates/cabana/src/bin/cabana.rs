//! CabanaPIC application binary — the artifact's
//! `bin/cabana <config_file>` workflow (the original generates its
//! mesh from `nx ny nz` at runtime; so does this).
//!
//! Flags, modes, the run loop and exit codes are the shared front
//! end's (`oppic_obs::cli`); this file holds the config keys, the
//! banners and the per-step report line.
//!
//! Config keys (`cabana --print-defaults` prints each with its
//! default, as a config file): `nx ny nz ppc
//! v0 perturbation modes dt charge mass steps parallel structured
//! sort_every sort_dirty binding rebalance_every rebalance_drift
//! report_every` (`sort_every` / `sort_dirty` drive the CSR index
//! rebuild cadence). `dt` defaults to a value derived from the mesh,
//! so it prints as the comment `# dt = 0.5 / max(nx, ny, nz) / sqrt(3)`.

use oppic_cabana::{CabanaConfig, CabanaEngine, CabanaPic, StructuredCabana, Topology};
use oppic_core::{ExecPolicy, Params};
use oppic_obs::cli::{self, App, Cli, Exit};
use std::io::Write;

fn config_from(params: &Params) -> Result<(CabanaConfig, usize, usize, bool), String> {
    let nx = params.get_usize("nx", 16)?;
    let ny = params.get_usize("ny", 8)?;
    let nz = params.get_usize("nz", 8)?;
    let nmax = nx.max(ny).max(nz) as f64;
    let cfg = CabanaConfig {
        nx,
        ny,
        nz,
        dx: 1.0 / nx as f64,
        dy: 1.0 / ny as f64,
        dz: 1.0 / nz as f64,
        ppc: params.get_usize("ppc", 32)?,
        v0: params.get_f64("v0", 0.2)?,
        perturbation: params.get_f64("perturbation", 0.01)?,
        modes: params.get_usize("modes", 1)?,
        dt: params.get_f64_derived(
            "dt",
            0.5 / nmax / (3f64).sqrt(),
            "0.5 / max(nx, ny, nz) / sqrt(3)",
        )?,
        charge: params.get_f64("charge", -1.0)?,
        mass: params.get_f64("mass", 1.0)?,
        policy: if params.get_bool("parallel", true)? {
            ExecPolicy::Par
        } else {
            ExecPolicy::Seq
        },
        record_visits: false,
        sort_policy: params.sort_policy()?,
        binding: params.get_bool("binding", false)?,
        rebalance: params.rebalance_policy()?,
    };
    if cfg.ppc < 2 || !cfg.ppc.is_multiple_of(2) {
        return Err("ppc must be an even number >= 2 (two beams)".into());
    }
    let steps = params.get_usize("steps", 100)?;
    let report_every = params.get_usize("report_every", 10)?.max(1);
    let structured = params.get_bool("structured", false)?;
    params.check_all_read()?;
    Ok((cfg, steps, report_every, structured))
}

const TITLE: &str = "CabanaPIC";

fn main() {
    let cli = Cli::from_env();
    cli::exit(drive(&cli, &mut std::io::stdout()));
}

fn drive(cli: &Cli, out: &mut impl Write) -> Result<(), Exit> {
    let (cfg, steps, report_every, structured) = cli.config(out, TITLE, config_from)?;
    if let Some(path) = &cli.record_schedule {
        return cli::record_schedule(out, TITLE, path, steps, |n| {
            oppic_cabana::record_schedule(&cfg, n)
        });
    }
    if structured {
        go(
            cli,
            out,
            StructuredCabana::new_structured(cfg),
            steps,
            report_every,
        )
    } else {
        go(cli, out, CabanaPic::new_dsl(cfg), steps, report_every)
    }
}

fn go<T: Topology>(
    cli: &Cli,
    out: &mut impl Write,
    mut sim: CabanaEngine<T>,
    steps: usize,
    report_every: usize,
) -> Result<(), Exit> {
    let mut app = App::new(
        "cabana",
        &sim.cfg,
        sim.cfg.policy.threads(),
        sim.profiler.telemetry(),
    );
    app.info
        .extra
        .push(("topology".into(), sim.topo.name().to_string()));
    if cli.validate {
        let warmup = cli::warmup(steps);
        writeln!(
            out,
            "{TITLE} ({}) --validate: {} cells, {warmup} warm-up step(s)",
            sim.topo.name(),
            sim.cfg.n_cells()
        )?;
        return cli.validate(out, &mut sim, &app, warmup, |sim| {
            let plans = sim.loop_plans();
            let report = sim.validate_all();
            let text = format!("\n{}\n{report}", plans.summary());
            (text, report.exit_code_strict(cli.strict))
        });
    }
    writeln!(
        out,
        "{TITLE} ({}): {} cells x {} ppc = {} particles, {} steps",
        sim.topo.name(),
        sim.cfg.n_cells(),
        sim.cfg.ppc,
        sim.ps.len(),
        steps
    )?;
    cli.run(out, &mut sim, &app, steps, report_every, |sim| {
        let d = sim.energies();
        format!(
            "step {:>5}: E {:>12.5e}  B {:>12.5e}  kinetic {:>12.5e}",
            d.step, d.e_field, d.b_field, d.kinetic
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(text.lines().any(|l| l == "ppc = 32"), "{text}");
        let printed = config_from(&Params::parse(&text).unwrap()).unwrap();
        let defaults = config_from(&Params::default()).unwrap();
        assert_eq!(format!("{printed:?}"), format!("{defaults:?}"));
    }

    /// `dt` derives from the mesh, so the printed file re-derives it:
    /// editing `nx` there gives the config that `nx` alone gives.
    #[test]
    fn printed_dt_follows_an_edited_mesh() {
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
        assert!(
            text.lines()
                .any(|l| l == "# dt = 0.5 / max(nx, ny, nz) / sqrt(3)"),
            "{text}"
        );
        let edited = text.replace("nx = 16\n", "nx = 32\n");
        assert_ne!(edited, text);
        let printed = config_from(&Params::parse(&edited).unwrap()).unwrap();
        let alone = config_from(&Params::parse("nx = 32\n").unwrap()).unwrap();
        assert_eq!(format!("{printed:?}"), format!("{alone:?}"));
    }
}
