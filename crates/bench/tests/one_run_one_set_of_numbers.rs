//! One run gives one set of numbers: the hub's kernel table, the JSONL
//! footer that `oppic-report` parses, the `/metrics` exposition and
//! the per-span events of the stream all describe the same calls and
//! seconds, because spans are the only way a kernel is timed.
//!
//! Each app runs a few steps with a JSONL sink and a
//! `MetricsRegistry` on the same hub. For every kernel the hub's `get`,
//! the parsed footer and `oppic_kernel_{calls,seconds}_total` must
//! agree (calls exactly, seconds within 1 µs); for every kernel timed
//! inside a step, `calls` is its number of `span` events and `seconds`
//! their summed `ms`.

use oppic_bench::telemetry_report::parse_run;
use oppic_cabana::{CabanaConfig, CabanaPic};
use oppic_core::json::{self, Json};
use oppic_core::{RunInfo, Telemetry};
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

const STEPS: usize = 3;
const SECONDS_TOL: f64 = 1e-6;

/// `(calls, seconds)` per kernel.
type Table = BTreeMap<String, (u64, f64)>;

/// Kernel label and value of every sample of `family` in a text
/// exposition.
fn metric_samples(text: &str, family: &str) -> BTreeMap<String, f64> {
    let prefix = format!("{family}{{kernel=\"");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            let (name, _) = rest.split_once('"').expect("closed kernel label");
            let (_, value) = rest.rsplit_once(' ').expect("sample value");
            (name.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

/// Attach a sink and a registry to `tel`, run `steps`, and check that
/// every view of the kernel table agrees. Returns the kernels that
/// have span events.
fn check_one_set_of_numbers(app: &str, tel: &Arc<Telemetry>, steps: impl FnOnce()) -> Vec<String> {
    let path =
        std::env::temp_dir().join(format!("oppic_one_set_{app}_{}.jsonl", std::process::id()));
    let info = RunInfo {
        app: app.into(),
        config_hash: "one-set".into(),
        threads: 1,
        extra: Vec::new(),
    };
    tel.attach_sink(&path, &info).unwrap();
    let registry = MetricsRegistry::new(tel.clone(), app, 1);
    steps();
    let exposition = registry.render();
    tel.finish().unwrap();
    let src = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let hub: Table = tel
        .kernels_snapshot()
        .into_iter()
        .map(|(n, k)| (n, (k.calls, k.seconds)))
        .collect();
    assert!(!hub.is_empty(), "{app}: no kernels");

    let run = parse_run(&src).unwrap();
    assert!(!run.truncated, "{app}: stream has no footer");
    let footer: Table = run
        .kernels
        .into_iter()
        .map(|(n, k)| (n, (k.calls, k.seconds)))
        .collect();
    let calls = metric_samples(&exposition, "oppic_kernel_calls_total");
    let seconds = metric_samples(&exposition, "oppic_kernel_seconds_total");

    let names = |t: &Table| t.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&footer), names(&hub), "{app}: footer kernels");
    let metric_names: Vec<String> = calls.keys().cloned().collect();
    assert_eq!(metric_names, names(&hub), "{app}: /metrics kernels");
    assert_eq!(
        seconds.keys().collect::<Vec<_>>(),
        calls.keys().collect::<Vec<_>>()
    );

    for (name, &(n, s)) in &hub {
        let live = tel.get(name).expect("kernel in the hub");
        assert_eq!((live.calls, live.seconds), (n, s), "{app}/{name}: get");
        let (fc, fs) = footer[name];
        assert_eq!(fc, n, "{app}/{name}: footer calls");
        assert!(
            (fs - s).abs() <= SECONDS_TOL,
            "{app}/{name}: footer {fs} vs {s}"
        );
        assert_eq!(calls[name], n as f64, "{app}/{name}: /metrics calls");
        let ms = seconds[name];
        assert!(
            (ms - s).abs() <= SECONDS_TOL,
            "{app}/{name}: /metrics {ms} vs {s}"
        );
    }

    // The span events inside steps, summed per kernel.
    let mut spans: Table = BTreeMap::new();
    for line in src.lines() {
        let ev = json::parse(line).unwrap();
        if ev.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        assert!(
            ev.get("step").is_some(),
            "{app}: span outside a step: {line}"
        );
        let name = ev.get("name").and_then(Json::as_str).unwrap();
        let ms = ev.get("ms").and_then(Json::as_f64).unwrap();
        let e = spans.entry(name.to_string()).or_default();
        e.0 += 1;
        e.1 += ms * 1e-3;
    }
    for (name, &(n, s)) in &spans {
        let (hc, hs) = hub[name];
        assert_eq!(hc, n, "{app}/{name}: calls vs span events");
        assert!(
            (hs - s).abs() <= SECONDS_TOL,
            "{app}/{name}: {hs} s vs spans' {s} s"
        );
    }
    spans.into_keys().collect()
}

#[test]
fn fempic_kernel_table_footer_metrics_and_spans_agree() {
    let mut sim = FemPic::new(FemPicConfig::tiny());
    let tel = sim.profiler.telemetry().clone();
    let timed = check_one_set_of_numbers("fempic", &tel, || {
        sim.run(STEPS);
    });
    for name in [
        "Inject",
        "Move",
        "DepositCharge",
        "ComputeF1Vector+SolvePotential",
        "ComputeElectricField",
    ] {
        assert!(
            timed.iter().any(|t| t == name),
            "{name} not timed: {timed:?}"
        );
        assert_eq!(tel.get(name).unwrap().calls, STEPS as u64, "{name}");
    }
    // Setup kernels are timed before the sink opens: in the table,
    // with no span events.
    assert!(tel.get("ComputeJMatrix").is_some());
    assert!(!timed.iter().any(|t| t == "ComputeJMatrix"));
}

#[test]
fn cabana_kernel_table_footer_metrics_and_spans_agree() {
    let mut sim = CabanaPic::new_dsl(CabanaConfig::tiny());
    let tel = sim.profiler.telemetry().clone();
    let timed = check_one_set_of_numbers("cabana", &tel, || {
        sim.run(STEPS);
    });
    for name in ["Interpolate", "Move_Deposit", "AdvanceE", "Update_Ghosts"] {
        assert!(
            timed.iter().any(|t| t == name),
            "{name} not timed: {timed:?}"
        );
        assert_eq!(tel.get(name).unwrap().calls, STEPS as u64, "{name}");
    }
}
