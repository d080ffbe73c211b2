//! Offline digestion of telemetry JSONL streams (`--telemetry` runs)
//! into the paper's presentation artifacts: the Figure 9 runtime
//! breakdown table, per-class totals, the Figure 10/11 roofline
//! operand CSV, and the `BENCH_step_timings.json` per-step record.
//!
//! The `run_footer`'s kernel aggregates are the same numbers the
//! hub's in-process breakdown table prints, so a report built from the
//! stream reproduces that breakdown exactly. Truncated streams (no
//! footer — the run died) degrade gracefully: kernels are rebuilt by
//! summing the individual span events.

use oppic_core::json::{self, Json};
use oppic_core::telemetry::{KernelClass, KernelStats};
use std::fmt::Write as _;

/// One per-step summary (`step` event) of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRow {
    pub step: u64,
    pub ms: f64,
    /// The `alive` gauge, when the app reports one.
    pub alive: Option<f64>,
}

/// Everything the report needs from one telemetry stream.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    pub app: String,
    pub config_hash: String,
    pub build: String,
    pub threads: u64,
    pub kernels: Vec<(String, KernelStats)>,
    pub steps: Vec<StepRow>,
    pub counters: Vec<(String, u64)>,
    /// `true` when no `run_footer` was found (the kernel table is then
    /// a reconstruction from span events).
    pub truncated: bool,
    /// Lines that failed to parse as JSON and were skipped — typically
    /// the torn tail of a crashed run's stream.
    pub torn_lines: u64,
}

impl RunSummary {
    pub fn total_seconds(&self) -> f64 {
        self.kernels.iter().map(|(_, k)| k.seconds).sum()
    }

    /// Per-class `(class, calls, seconds)` totals in [`KernelClass`]
    /// declaration order — the Figure 9 stacked-bar quantities.
    /// Unclassified kernels aggregate under `"-"` at the end.
    pub fn class_totals(&self) -> Vec<(String, u64, f64)> {
        let classes = [
            KernelClass::FieldSolve,
            KernelClass::WeightFields,
            KernelClass::Move,
            KernelClass::Deposit,
            KernelClass::Inject,
            KernelClass::Comm,
            KernelClass::Other,
        ];
        let mut out = Vec::new();
        for c in classes {
            let (mut calls, mut secs) = (0u64, 0.0f64);
            for (_, k) in self.kernels.iter().filter(|(_, k)| k.class == Some(c)) {
                calls += k.calls;
                secs += k.seconds;
            }
            if calls > 0 {
                out.push((c.as_str().to_string(), calls, secs));
            }
        }
        let (mut calls, mut secs) = (0u64, 0.0f64);
        for (_, k) in self.kernels.iter().filter(|(_, k)| k.class.is_none()) {
            calls += k.calls;
            secs += k.seconds;
        }
        if calls > 0 {
            out.push(("-".to_string(), calls, secs));
        }
        out
    }
}

/// Parse one telemetry JSONL stream into a [`RunSummary`].
pub fn parse_run(src: &str) -> Result<RunSummary, String> {
    let mut run = RunSummary::default();
    // Span-event fallback aggregation, used only without a footer.
    let mut span_kernels: Vec<(String, KernelStats)> = Vec::new();
    let mut saw_footer = false;

    for line in src.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // A crashed run leaves a torn final line (and a missing
        // footer); skip what doesn't parse rather than refusing the
        // whole stream — the report is most needed for exactly those
        // runs. `torn_lines` surfaces the count in the table header.
        let Ok(ev) = json::parse(line) else {
            run.torn_lines += 1;
            continue;
        };
        match ev.get("type").and_then(Json::as_str) {
            Some("run_header") => {
                run.app = ev.get("app").and_then(Json::as_str).unwrap_or("?").into();
                run.config_hash = ev
                    .get("config_hash")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .into();
                run.build = ev.get("build").and_then(Json::as_str).unwrap_or("?").into();
                run.threads = ev.get("threads").and_then(Json::as_u64).unwrap_or(0);
            }
            Some("span") => {
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("?");
                let ms = ev.get("ms").and_then(Json::as_f64).unwrap_or(0.0);
                // Only leaves (depth 1 under the step root) count, so
                // nested spans aren't double-counted into the total.
                if ev.get("depth").and_then(Json::as_u64) <= Some(1) {
                    let slot = match span_kernels.iter_mut().find(|(n, _)| n == name) {
                        Some((_, k)) => k,
                        None => {
                            span_kernels.push((name.to_string(), KernelStats::default()));
                            &mut span_kernels.last_mut().unwrap().1
                        }
                    };
                    slot.calls += 1;
                    slot.seconds += ms * 1e-3;
                }
            }
            Some("step") => {
                let step = ev.get("step").and_then(Json::as_u64).unwrap_or(0);
                let ms = ev.get("ms").and_then(Json::as_f64).unwrap_or(0.0);
                let alive = ev
                    .get("gauges")
                    .and_then(|g| g.get("alive"))
                    .and_then(Json::as_f64);
                run.steps.push(StepRow { step, ms, alive });
            }
            Some("run_footer") => {
                saw_footer = true;
                if let Some(ks) = ev.get("kernels").and_then(Json::as_arr) {
                    run.kernels = ks
                        .iter()
                        .map(|k| {
                            let name = k.get("name").and_then(Json::as_str).unwrap_or("?");
                            let stats = KernelStats {
                                calls: k.get("calls").and_then(Json::as_u64).unwrap_or(0),
                                seconds: k.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                                bytes: k.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                                flops: k.get("flops").and_then(Json::as_u64).unwrap_or(0),
                                class: k
                                    .get("class")
                                    .and_then(Json::as_str)
                                    .and_then(KernelClass::from_str_opt),
                            };
                            (name.to_string(), stats)
                        })
                        .collect();
                }
                if let Some(cs) = ev.get("counters").and_then(Json::as_obj) {
                    run.counters = cs
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                        .collect();
                }
            }
            _ => {}
        }
    }
    if run.app.is_empty() {
        return Err(if run.torn_lines > 0 {
            format!(
                "no run_header record ({} unparseable line(s) skipped)",
                run.torn_lines
            )
        } else {
            "no run_header record".into()
        });
    }
    if !saw_footer {
        run.truncated = true;
        span_kernels.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds));
        run.kernels = span_kernels;
    }
    Ok(run)
}

/// The paper-style breakdown table: per-kernel rows (calls, seconds,
/// share, achieved GB/s, GFLOP/s) and per-class totals.
pub fn breakdown_table(run: &RunSummary) -> String {
    let total = run.total_seconds().max(1e-30);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} [{} build, {} thread(s), config {}]{}",
        run.app,
        run.build,
        run.threads,
        run.config_hash,
        if run.truncated {
            "  (truncated stream: kernels rebuilt from spans)"
        } else {
            ""
        }
    );
    if run.torn_lines > 0 {
        let _ = writeln!(
            s,
            "warning: {} unparseable line(s) skipped (torn stream tail)",
            run.torn_lines
        );
    }
    let _ = writeln!(
        s,
        "{:<28} {:>12} {:>8} {:>12} {:>7} {:>12} {:>12}",
        "kernel", "class", "calls", "seconds", "%", "GB/s", "GFLOP/s"
    );
    for (name, k) in &run.kernels {
        let _ = writeln!(
            s,
            "{:<28} {:>12} {:>8} {:>12.4} {:>6.1}% {:>12} {:>12}",
            name,
            k.class.map_or("-", KernelClass::as_str),
            k.calls,
            k.seconds,
            100.0 * k.seconds / total,
            k.gbytes_per_s()
                .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
            k.gflops().map_or_else(|| "-".into(), |v| format!("{v:.2}")),
        );
    }
    let _ = writeln!(s, "{:<28} {:>12} {:>8} {:>12.4}", "TOTAL", "", "", total);
    let classes = run.class_totals();
    if !classes.is_empty() {
        s.push_str("per-class totals:\n");
        for (class, calls, secs) in &classes {
            let _ = writeln!(
                s,
                "  {class:<26} {calls:>10} {secs:>12.4} {:>6.1}%",
                100.0 * secs / total
            );
        }
    }
    if !run.steps.is_empty() {
        let step_ms: f64 = run.steps.iter().map(|r| r.ms).sum();
        let _ = writeln!(
            s,
            "steps: {} in {:.4} s (mean {:.3} ms/step)",
            run.steps.len(),
            step_ms * 1e-3,
            step_ms / run.steps.len() as f64
        );
    }
    s
}

/// Roofline operand CSV (one row per kernel with traffic/flop counts):
/// the Figure 10/11 inputs.
pub fn roofline_csv(runs: &[RunSummary]) -> String {
    let mut s = String::from("app,kernel,class,calls,seconds,bytes,flops,intensity,gflops,gbs\n");
    for run in runs {
        for (name, k) in &run.kernels {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{},{},{},{},{}",
                run.app,
                name,
                k.class.map_or("-", KernelClass::as_str),
                k.calls,
                json::num(k.seconds),
                k.bytes,
                k.flops,
                k.arithmetic_intensity()
                    .map_or_else(|| "-".into(), json::num),
                k.gflops().map_or_else(|| "-".into(), json::num),
                k.gbytes_per_s().map_or_else(|| "-".into(), json::num),
            );
        }
    }
    s
}

/// The `results/BENCH_step_timings.json` document: per-run step
/// timings and populations, machine-readable for plotting.
pub fn step_timings_json(runs: &[RunSummary]) -> String {
    let mut s = String::from("{\"schema\":1,\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"app\":{},\"config_hash\":{},\"build\":{},\"threads\":{},\"steps\":[",
            json::quote(&run.app),
            json::quote(&run.config_hash),
            json::quote(&run.build),
            run.threads,
        );
        for (j, row) in run.steps.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"step\":{},\"ms\":{}", row.step, json::num(row.ms));
            if let Some(alive) = row.alive {
                let _ = write!(s, ",\"alive\":{}", json::num(alive));
            }
            s.push('}');
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = concat!(
        r#"{"type":"run_header","schema":1,"app":"fempic","config_hash":"abc","build":"release","threads":4}"#,
        "\n",
        r#"{"type":"span","step":1,"name":"Move","path":"step>Move","depth":1,"ms":2.0}"#,
        "\n",
        r#"{"type":"step","step":1,"ms":3.0,"gauges":{"alive":100},"counters":{"move.relocated":7}}"#,
        "\n",
        r#"{"type":"span","step":2,"name":"Move","path":"step>Move","depth":1,"ms":2.5}"#,
        "\n",
        r#"{"type":"step","step":2,"ms":3.5,"gauges":{"alive":110},"counters":{}}"#,
        "\n",
        r#"{"type":"run_footer","open_spans":0,"total_ms":5.0,"events":7,"traces_dropped":0,"#,
        r#""kernels":[{"name":"Move","class":"Move","calls":2,"seconds":0.0045,"bytes":9000,"flops":450},"#,
        r#"{"name":"Solve","class":"FieldSolve","calls":2,"seconds":0.001,"bytes":0,"flops":0}],"#,
        r#""counters":{"move.relocated":7},"histograms":{}}"#,
        "\n",
    );

    #[test]
    fn footer_kernels_reproduce_profiler_aggregates_exactly() {
        let run = parse_run(STREAM).unwrap();
        assert!(!run.truncated);
        assert_eq!(run.app, "fempic");
        assert_eq!(run.threads, 4);
        assert_eq!(run.kernels.len(), 2);
        let (name, k) = &run.kernels[0];
        assert_eq!(name, "Move");
        assert_eq!(k.calls, 2);
        assert_eq!(k.seconds, 0.0045);
        assert_eq!(k.bytes, 9000);
        assert_eq!(k.class, Some(KernelClass::Move));
        assert_eq!(run.counters, vec![("move.relocated".to_string(), 7)]);
    }

    #[test]
    fn class_totals_group_by_kernel_class() {
        let run = parse_run(STREAM).unwrap();
        let totals = run.class_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "FieldSolve");
        assert_eq!(totals[1], ("Move".to_string(), 2, 0.0045));
    }

    #[test]
    fn truncated_stream_rebuilds_kernels_from_spans() {
        // Drop the footer line.
        let cut: String = STREAM
            .lines()
            .filter(|l| !l.contains("run_footer"))
            .map(|l| format!("{l}\n"))
            .collect();
        let run = parse_run(&cut).unwrap();
        assert!(run.truncated);
        assert_eq!(run.kernels.len(), 1);
        assert_eq!(run.kernels[0].0, "Move");
        assert_eq!(run.kernels[0].1.calls, 2);
        assert!((run.kernels[0].1.seconds - 0.0045).abs() < 1e-12);
    }

    #[test]
    fn table_lists_kernels_and_classes() {
        let run = parse_run(STREAM).unwrap();
        let t = breakdown_table(&run);
        assert!(t.contains("Move"), "{t}");
        assert!(t.contains("per-class totals:"), "{t}");
        assert!(t.contains("FieldSolve"), "{t}");
        assert!(t.contains("steps: 2"), "{t}");
    }

    #[test]
    fn roofline_csv_has_one_row_per_kernel() {
        let run = parse_run(STREAM).unwrap();
        let csv = roofline_csv(std::slice::from_ref(&run));
        assert_eq!(csv.lines().count(), 3);
        let move_row = csv.lines().find(|l| l.contains(",Move,")).unwrap();
        assert!(move_row.starts_with("fempic,Move,Move,2,"), "{move_row}");
        assert!(move_row.contains(",9000,450,"), "{move_row}");
    }

    #[test]
    fn step_timings_json_round_trips() {
        let run = parse_run(STREAM).unwrap();
        let doc = step_timings_json(std::slice::from_ref(&run));
        let v = json::parse(&doc).unwrap();
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        let steps = runs[0].get("steps").and_then(Json::as_arr).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[1].get("alive").and_then(Json::as_f64), Some(110.0));
    }

    #[test]
    fn headerless_stream_is_rejected() {
        assert!(parse_run(r#"{"type":"step","step":1,"ms":1}"#).is_err());
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        // A crashed run: footer missing AND the last line cut mid-write.
        let cut: String = STREAM
            .lines()
            .filter(|l| !l.contains("run_footer"))
            .map(|l| format!("{l}\n"))
            .collect();
        let torn = format!("{cut}{{\"type\":\"span\",\"step\":3,\"name\":\"Mo");
        let run = parse_run(&torn).unwrap();
        assert!(run.truncated);
        assert_eq!(run.torn_lines, 1);
        // The intact records still landed.
        assert_eq!(run.steps.len(), 2);
        assert_eq!(run.kernels[0].1.calls, 2);
        let t = breakdown_table(&run);
        assert!(t.contains("warning: 1 unparseable line(s) skipped"), "{t}");
        assert!(t.contains("truncated stream"), "{t}");
    }

    #[test]
    fn garbage_only_stream_reports_skip_count() {
        let err = parse_run("not json at all\nalso not json\n").unwrap_err();
        assert!(err.contains("2 unparseable line(s)"), "{err}");
    }
}
