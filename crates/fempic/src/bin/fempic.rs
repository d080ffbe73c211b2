//! Mini-FEM-PIC application binary — the artifact's
//! `bin/fempic <config_file>` workflow.
//!
//! Config keys (all optional; `fempic --print-defaults` lists them):
//! mesh (`nx ny nz lx ly lz`), physics (`charge mass inlet_velocity
//! wall_potential epsilon0 dt thermal_fraction`), run control (`steps
//! inject_per_step seed`), backend (`parallel deposit move coloring
//! integrator overlay_res`), cell sort (`sort_every sort_dirty` —
//! gather-side CSR index rebuild cadence), `deposit = auto` for the
//! auto-tuner, persistent thread binding
//! (`binding rebalance_every rebalance_drift`) and the numeric guards
//! (`guard_numerics`).

use oppic_core::telemetry::fnv1a;
use oppic_core::{DepositMethod, ExecPolicy, Params, RunInfo, SortPolicy};
use oppic_fempic::{FemPic, FemPicConfig, Integrator, MoveStrategy};
use oppic_obs::{ObsArgs, StepObs};

const KNOWN: &[&str] = &[
    "nx",
    "ny",
    "nz",
    "lx",
    "ly",
    "lz",
    "charge",
    "mass",
    "inlet_velocity",
    "wall_potential",
    "epsilon0",
    "dt",
    "thermal_fraction",
    "steps",
    "inject_per_step",
    "seed",
    "parallel",
    "deposit",
    "move",
    "coloring",
    "integrator",
    "overlay_res",
    "report_every",
    "neutral_density",
    "cross_section",
    "sort_every",
    "sort_dirty",
    "binding",
    "rebalance_every",
    "rebalance_drift",
    "guard_numerics",
];

fn config_from(params: &Params) -> Result<(FemPicConfig, usize, usize), String> {
    params.check_known(KNOWN)?;
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
        sort_policy: {
            let every = params.get_usize("sort_every", 0)?;
            let dirty = params.get_f64("sort_dirty", 0.0)?;
            if every > 0 {
                SortPolicy::EveryN(every)
            } else if dirty > 0.0 {
                SortPolicy::DirtyFraction(dirty)
            } else {
                SortPolicy::Never
            }
        },
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
            (nd > 0.0).then(|| oppic_fempic::CollisionModel {
                neutral_density: nd,
                cross_section: params.get_f64("cross_section", 1.0).unwrap_or(1.0),
            })
        },
        binding: params.get_bool("binding", false)?,
        rebalance: {
            let every = params.get_usize("rebalance_every", 0)?;
            let drift = params.get_f64("rebalance_drift", 0.0)?;
            if every > 0 {
                oppic_core::RebalancePolicy::EveryN(every)
            } else if drift > 0.0 {
                oppic_core::RebalancePolicy::DriftFraction(drift)
            } else {
                d.rebalance
            }
        },
        guard_numerics: params.get_bool("guard_numerics", false)?,
    };
    let steps = params.get_usize("steps", 100)?;
    let report_every = params.get_usize("report_every", 10)?.max(1);
    Ok((cfg, steps, report_every))
}

/// Open the `--telemetry <path>` JSONL sink on the sim's hub, with a
/// run-header carrying the config fingerprint, build profile, and
/// thread count.
fn attach_telemetry(sim: &FemPic, path: &str, steps: usize) {
    let info = RunInfo {
        app: "fempic".into(),
        config_hash: format!("{:016x}", fnv1a(format!("{:?}", sim.cfg).as_bytes())),
        threads: sim.cfg.policy.threads(),
        extra: vec![("steps".into(), steps.to_string())],
    };
    if let Err(e) = sim
        .profiler
        .telemetry()
        .attach_sink(std::path::Path::new(path), &info)
    {
        eprintln!("error: cannot open telemetry sink {path}: {e}");
        std::process::exit(2);
    }
}

/// `--record-schedule <path>` mode: run the distributed step schedule
/// under a recorder and write the `oppic-schedule-v1` trace for
/// `oppic-analyzer --audit-schedule`.
fn run_record_schedule(cfg: FemPicConfig, steps: usize, path: &str) -> ! {
    let steps = steps.clamp(1, 5);
    let trace = oppic_fempic::record_schedule(&cfg, steps);
    let events = trace.events.len();
    if let Err(e) = std::fs::write(path, trace.to_json()) {
        eprintln!("error: cannot write schedule trace {path}: {e}");
        std::process::exit(2);
    }
    println!("Mini-FEM-PIC --record-schedule: {steps} step(s), {events} event(s) -> {path}");
    std::process::exit(0);
}

/// `--validate` mode: build the simulation, run a few steps to
/// populate the dynamic maps, then run all three analyzer passes and
/// exit non-zero on any Error finding. With `--strict`, Warn findings
/// fail the run too.
fn run_validation(cfg: FemPicConfig, steps: usize, telemetry: Option<&str>, strict: bool) -> ! {
    let warmup = steps.clamp(1, 5);
    println!(
        "Mini-FEM-PIC --validate: {} cells, {warmup} warm-up step(s)",
        cfg.n_cells()
    );
    let mut sim = FemPic::new(cfg);
    if let Some(path) = telemetry {
        attach_telemetry(&sim, path, warmup);
    }
    sim.run(warmup);
    let plans = sim.loop_plans();
    println!("\n{}", plans.summary());
    let report = sim.validate_all();
    println!("{report}");
    if let Err(e) = sim.profiler.telemetry().finish() {
        eprintln!("error: telemetry sink: {e}");
        std::process::exit(2);
    }
    std::process::exit(report.exit_code_strict(strict));
}

/// Strip `--telemetry <path>` from the argument list, returning the
/// path if present.
fn take_telemetry_arg(args: &mut Vec<String>) -> Option<String> {
    take_path_arg(args, "--telemetry")
}

/// Strip `<flag> <path>` from the argument list, returning the path if
/// the flag is present.
fn take_path_arg(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} requires a file path");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let validate = args.iter().any(|a| a == "--validate");
    args.retain(|a| a != "--validate");
    let strict = args.iter().any(|a| a == "--strict");
    args.retain(|a| a != "--strict");
    let telemetry = take_telemetry_arg(&mut args);
    let record_schedule = take_path_arg(&mut args, "--record-schedule");
    let obs_args = ObsArgs::extract(&mut args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let params = match args.get(1).map(String::as_str) {
        Some("--print-defaults") => {
            println!("# Mini-FEM-PIC configuration keys and defaults");
            for k in KNOWN {
                println!("# {k}");
            }
            return;
        }
        Some(path) => Params::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None => Params::default(),
    };
    let (cfg, steps, report_every) = config_from(&params).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    if let Some(path) = &record_schedule {
        run_record_schedule(cfg, steps, path);
    }
    if validate {
        run_validation(cfg, steps, telemetry.as_deref(), strict);
    }

    println!(
        "Mini-FEM-PIC: {} cells, {} nodes-worth duct, {} steps",
        cfg.n_cells(),
        (cfg.nx + 1) * (cfg.ny + 1) * (cfg.nz + 1),
        steps
    );
    let mut sim = FemPic::new(cfg);
    if let Some(path) = &telemetry {
        attach_telemetry(&sim, path, steps);
    }
    let tel = sim.profiler.telemetry().clone();
    let threads = sim.cfg.policy.threads();
    let mut plane = obs_args.build(&tel, "fempic", threads).unwrap_or_else(|e| {
        eprintln!("error: observability plane: {e}");
        std::process::exit(2);
    });
    if let Some(addr) = plane.as_ref().and_then(|p| p.metrics_addr()) {
        println!("metrics: serving http://{addr}/metrics");
    }
    let t0 = std::time::Instant::now();
    for s in 1..=steps {
        let st = std::time::Instant::now();
        if obs_args.inject_stall_step == Some(s as u64) {
            // Negative control for the watchdog: a deliberate stall
            // inside the timed window (see `ci.sh obs`).
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        let d = sim.step();
        if let Some(plane) = plane.as_mut() {
            plane.on_step(StepObs {
                step: s as u64,
                ms: st.elapsed().as_secs_f64() * 1e3,
                alive: d.n_particles as u64,
                injected: d.injected as u64,
                removed: d.removed as u64,
            });
        }
        if s % report_every == 0 || s == steps {
            println!(
                "step {:>5}: particles {:>9}  removed {:>6}  charge {:>12.5}",
                d.step, d.n_particles, d.removed, d.total_charge
            );
        }
    }
    println!("\nMainLoop TotalTime = {:.4} s", t0.elapsed().as_secs_f64());
    print!("{}", tel.breakdown_table());
    if let Err(e) = tel.finish() {
        eprintln!("error: telemetry sink: {e}");
        std::process::exit(2);
    }
    if let Err(e) = sim.check_invariants() {
        eprintln!("INVARIANT VIOLATION: {e}");
        std::process::exit(1);
    }
    if let Some(mut plane) = plane {
        let summary = plane.finish().unwrap_or_else(|e| {
            eprintln!("error: observability plane: {e}");
            std::process::exit(2);
        });
        println!("watchdog: {} alert(s)", summary.alerts.len());
        for a in &summary.alerts {
            eprintln!("  [{}] step {}: {}", a.rule, a.step, a.message);
        }
        if !summary.alerts.is_empty() {
            std::process::exit(3);
        }
    }
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
    fn retired_matrix_deposit_is_refused() {
        for value in ["mx", "matrix"] {
            let params = Params::parse(&format!("deposit = {value}\n")).unwrap();
            let err = config_from(&params).unwrap_err();
            assert!(err.contains("use seq/sa/at/ua/sr/auto"), "{value}: {err}");
        }
    }
}
