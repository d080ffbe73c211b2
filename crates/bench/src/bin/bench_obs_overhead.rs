//! Overhead gate for the observability plane (ISSUE PR 8 acceptance):
//! Mini-FEM-PIC with the flight recorder + /metrics exporter attached
//! must stay within 3% of the telemetry-only median step time.
//!
//! Both arms attach the same JSONL telemetry sink; the obs arm
//! additionally installs the full plane (recorder observer, live
//! gauges, watchdog, HTTP exporter) and feeds it every step. Arms are
//! interleaved rep-by-rep so thermal / scheduling drift hits both
//! equally, and the comparison uses the median over all recorded
//! steps — the statistic the 3% gate is defined on.
//!
//! ```text
//! bench_obs_overhead [--steps N] [--reps N] [--out results/BENCH_obs_overhead.json]
//! ```
//!
//! Exits non-zero when the gate fails so `ci.sh obs` can enforce it.

use oppic_core::json;
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_obs::{ObsConfig, ObsPlane, StepObs, WatchdogConfig};
use std::process::ExitCode;
use std::time::Instant;

const GATE_PCT: f64 = 3.0;

fn config() -> FemPicConfig {
    FemPicConfig {
        nx: 6,
        ny: 6,
        nz: 6,
        inject_per_step: 500,
        ..FemPicConfig::default()
    }
}

/// One rep: run `steps` steps, returning each step's wall-clock ms.
fn run_arm(steps: usize, with_plane: bool, sink: &std::path::Path) -> Vec<f64> {
    let mut sim = FemPic::new(config());
    let info = oppic_core::RunInfo {
        app: "fempic".into(),
        config_hash: "bench_obs_overhead".into(),
        threads: sim.cfg.policy.threads(),
        extra: Vec::new(),
    };
    let tel = sim.profiler.telemetry().clone();
    tel.attach_sink(sink, &info).expect("telemetry sink");
    let mut plane = with_plane.then(|| {
        ObsPlane::install(
            tel.clone(),
            ObsConfig {
                app: "fempic".into(),
                threads: sim.cfg.policy.threads(),
                metrics_addr: Some("127.0.0.1:0".into()),
                watchdog: Some(WatchdogConfig::default()),
                ..ObsConfig::default()
            },
        )
        .expect("observability plane")
    });
    let mut ms = Vec::with_capacity(steps);
    for s in 1..=steps {
        let t = Instant::now();
        let d = sim.step();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(plane) = plane.as_mut() {
            plane.on_step(StepObs {
                step: s as u64,
                ms: *ms.last().expect("just pushed"),
                alive: d.n_particles as u64,
                injected: d.injected as u64,
                removed: d.removed as u64,
            });
        }
    }
    if let Some(mut plane) = plane {
        let summary = plane.finish().expect("plane finish");
        assert!(
            summary.alerts.is_empty(),
            "watchdog tripped during the overhead bench: {:?}",
            summary.alerts
        );
    }
    tel.finish().expect("telemetry finish");
    ms
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let steps = arg_usize(&args, "--steps", 30);
    let reps = arg_usize(&args, "--reps", 3);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_obs_overhead.json".into());

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut base_ms = Vec::new();
    let mut obs_ms = Vec::new();
    println!("bench_obs_overhead: {reps} rep(s) x {steps} step(s), interleaved arms");
    for rep in 0..reps {
        // One warm-up step's worth of allocator/page-cache churn lands
        // on whichever arm goes first; alternate the order per rep.
        let sink_a = dir.join(format!("obs_overhead_{pid}_{rep}_a.jsonl"));
        let sink_b = dir.join(format!("obs_overhead_{pid}_{rep}_b.jsonl"));
        if rep % 2 == 0 {
            base_ms.extend(run_arm(steps, false, &sink_a));
            obs_ms.extend(run_arm(steps, true, &sink_b));
        } else {
            obs_ms.extend(run_arm(steps, true, &sink_b));
            base_ms.extend(run_arm(steps, false, &sink_a));
        }
        std::fs::remove_file(&sink_a).ok();
        std::fs::remove_file(&sink_b).ok();
    }

    let base = median(&mut base_ms);
    let obs = median(&mut obs_ms);
    let overhead_pct = if base > 0.0 {
        100.0 * (obs - base) / base
    } else {
        0.0
    };
    let pass = overhead_pct <= GATE_PCT;
    println!(
        "telemetry-only median {base:.3} ms/step, with plane {obs:.3} ms/step \
         -> overhead {overhead_pct:+.2}% (gate {GATE_PCT}%): {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let doc = format!(
        "{{\"schema\":1,\"bench\":\"obs_overhead\",\"app\":\"fempic\",\
         \"steps_per_rep\":{steps},\"reps\":{reps},\
         \"median_baseline_ms\":{},\"median_obs_ms\":{},\
         \"overhead_pct\":{},\"gate_pct\":{},\"pass\":{pass}}}\n",
        json::num(base),
        json::num(obs),
        json::num(overhead_pct),
        json::num(GATE_PCT),
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("bench_obs_overhead: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
