//! CabanaPIC application binary — the artifact's
//! `bin/cabana <config_file>` workflow (the original generates its
//! mesh from `nx ny nz` at runtime; so does this).
//!
//! Config keys: `nx ny nz ppc v0 perturbation modes dt charge mass
//! steps parallel structured sort_every sort_dirty binding
//! rebalance_every rebalance_drift report_every` (`sort_every` /
//! `sort_dirty` drive the CSR index rebuild cadence).

use oppic_cabana::{CabanaConfig, CabanaPic, StructuredCabana};
use oppic_core::telemetry::fnv1a;
use oppic_core::{ExecPolicy, Params, RunInfo, SortPolicy};
use oppic_obs::{ObsArgs, StepObs};

const KNOWN: &[&str] = &[
    "nx",
    "ny",
    "nz",
    "ppc",
    "v0",
    "perturbation",
    "modes",
    "dt",
    "charge",
    "mass",
    "steps",
    "parallel",
    "structured",
    "sort_every",
    "sort_dirty",
    "binding",
    "rebalance_every",
    "rebalance_drift",
    "report_every",
];

fn config_from(params: &Params) -> Result<(CabanaConfig, usize, usize, bool), String> {
    params.check_known(KNOWN)?;
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
        dt: params.get_f64("dt", 0.5 / nmax / (3f64).sqrt())?,
        charge: params.get_f64("charge", -1.0)?,
        mass: params.get_f64("mass", 1.0)?,
        policy: if params.get_bool("parallel", true)? {
            ExecPolicy::Par
        } else {
            ExecPolicy::Seq
        },
        record_visits: false,
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
        binding: params.get_bool("binding", false)?,
        rebalance: {
            let every = params.get_usize("rebalance_every", 0)?;
            let drift = params.get_f64("rebalance_drift", 0.0)?;
            if every > 0 {
                oppic_core::RebalancePolicy::EveryN(every)
            } else if drift > 0.0 {
                oppic_core::RebalancePolicy::DriftFraction(drift)
            } else {
                oppic_core::RebalancePolicy::DriftFraction(0.5)
            }
        },
    };
    if cfg.ppc < 2 || !cfg.ppc.is_multiple_of(2) {
        return Err("ppc must be an even number >= 2 (two beams)".into());
    }
    let steps = params.get_usize("steps", 100)?;
    let report_every = params.get_usize("report_every", 10)?.max(1);
    let structured = params.get_bool("structured", false)?;
    Ok((cfg, steps, report_every, structured))
}

/// Open the `--telemetry <path>` JSONL sink on the sim's hub, with a
/// run-header carrying the config fingerprint, build profile, and
/// thread count.
fn attach_telemetry<T: oppic_cabana::Topology>(
    sim: &oppic_cabana::CabanaEngine<T>,
    path: &str,
    steps: usize,
) {
    let info = RunInfo {
        app: "cabana".into(),
        config_hash: format!("{:016x}", fnv1a(format!("{:?}", sim.cfg).as_bytes())),
        threads: sim.cfg.policy.threads(),
        extra: vec![
            ("steps".into(), steps.to_string()),
            ("topology".into(), sim.topo.name().to_string()),
        ],
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

/// `--record-schedule <path>` mode: run the distributed step schedule
/// under a recorder and write the `oppic-schedule-v1` trace for
/// `oppic-analyzer --audit-schedule`.
fn run_record_schedule(cfg: CabanaConfig, steps: usize, path: &str) -> ! {
    let steps = steps.clamp(1, 5);
    let trace = oppic_cabana::record_schedule(&cfg, steps);
    let events = trace.events.len();
    if let Err(e) = std::fs::write(path, trace.to_json()) {
        eprintln!("error: cannot write schedule trace {path}: {e}");
        std::process::exit(2);
    }
    println!("CabanaPIC --record-schedule: {steps} step(s), {events} event(s) -> {path}");
    std::process::exit(0);
}

fn run<T: oppic_cabana::Topology>(
    mut sim: oppic_cabana::CabanaEngine<T>,
    steps: usize,
    report_every: usize,
    telemetry: Option<&str>,
    obs_args: &ObsArgs,
) {
    if let Some(path) = telemetry {
        attach_telemetry(&sim, path, steps);
    }
    println!(
        "CabanaPIC ({}): {} cells x {} ppc = {} particles, {} steps",
        sim.topo.name(),
        sim.cfg.n_cells(),
        sim.cfg.ppc,
        sim.ps.len(),
        steps
    );
    let threads = sim.cfg.policy.threads();
    let mut plane = obs_args
        .build(sim.profiler.telemetry(), "cabana", threads)
        .unwrap_or_else(|e| {
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
            // CabanaPIC's two-beam population is closed: no injection,
            // no removal, periodic boundaries.
            plane.on_step(StepObs {
                step: s as u64,
                ms: st.elapsed().as_secs_f64() * 1e3,
                alive: sim.ps.len() as u64,
                injected: 0,
                removed: 0,
            });
        }
        if s % report_every == 0 || s == steps {
            println!(
                "step {:>5}: E {:>12.5e}  B {:>12.5e}  kinetic {:>12.5e}",
                d.step, d.e_field, d.b_field, d.kinetic
            );
        }
    }
    println!("\nMainLoop TotalTime = {:.4} s", t0.elapsed().as_secs_f64());
    print!("{}", sim.profiler.breakdown_table());
    if let Err(e) = sim.profiler.telemetry().finish() {
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

/// `--validate` mode: build the simulation, run a few steps to
/// populate the dynamic maps, then run all three analyzer passes and
/// exit non-zero on any Error finding.
fn run_validation<T: oppic_cabana::Topology>(
    mut sim: oppic_cabana::CabanaEngine<T>,
    steps: usize,
    telemetry: Option<&str>,
    strict: bool,
) -> ! {
    let warmup = steps.clamp(1, 5);
    println!(
        "CabanaPIC ({}) --validate: {} cells, {warmup} warm-up step(s)",
        sim.topo.name(),
        sim.cfg.n_cells()
    );
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

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let validate = args.iter().any(|a| a == "--validate");
    args.retain(|a| a != "--validate");
    let strict = args.iter().any(|a| a == "--strict");
    args.retain(|a| a != "--strict");
    let record_schedule = take_path_arg(&mut args, "--record-schedule");
    let telemetry = take_telemetry_arg(&mut args);
    let obs_args = ObsArgs::extract(&mut args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let tel = telemetry.as_deref();
    let params = match args.get(1).map(String::as_str) {
        Some(path) => Params::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None => Params::default(),
    };
    let (cfg, steps, report_every, structured) = config_from(&params).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    if let Some(path) = &record_schedule {
        run_record_schedule(cfg, steps, path);
    }
    match (structured, validate) {
        (true, true) => run_validation(StructuredCabana::new_structured(cfg), steps, tel, strict),
        (false, true) => run_validation(CabanaPic::new_dsl(cfg), steps, tel, strict),
        (true, false) => run(
            StructuredCabana::new_structured(cfg),
            steps,
            report_every,
            tel,
            &obs_args,
        ),
        (false, false) => run(CabanaPic::new_dsl(cfg), steps, report_every, tel, &obs_args),
    }
}
