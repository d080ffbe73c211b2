//! Metrics registry and Prometheus-style text exposition.
//!
//! The registry does not maintain parallel copies of the telemetry
//! state — a scrape snapshots the hub (kernels, counters, histograms)
//! at request time, so there is zero bookkeeping on the hot path
//! beyond the three gauges the plane updates once per step. The
//! exposition format is the Prometheus text format 0.0.4, hand-rolled
//! like `core::json` (no new dependencies), and [`audit_exposition`]
//! re-parses a scrape against [`METRIC_SCHEMA`] — the contract CI
//! enforces via `oppic-analyzer --audit-metrics`.

use crate::recorder::FlightRecorder;
use oppic_core::telemetry::{Telemetry, HIST_BUCKETS};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every metric family this exporter may emit: `(name, type, help)`.
/// The order here is the exposition order; `audit_exposition` rejects
/// any family outside this table.
pub const METRIC_SCHEMA: &[(&str, &str, &str)] = &[
    (
        "oppic_build_info",
        "gauge",
        "Constant 1, labeled with the app, build profile, and thread count",
    ),
    (
        "oppic_kernel_seconds_total",
        "counter",
        "Accumulated wall-clock seconds per kernel",
    ),
    (
        "oppic_kernel_calls_total",
        "counter",
        "Accumulated invocations per kernel",
    ),
    (
        "oppic_events_total",
        "counter",
        "Telemetry counter totals, one series per counter name",
    ),
    (
        "oppic_step",
        "gauge",
        "Last completed simulation step index",
    ),
    (
        "oppic_step_seconds",
        "gauge",
        "Wall-clock duration of the last completed step",
    ),
    (
        "oppic_alive_particles",
        "gauge",
        "Alive particle count after the last completed step",
    ),
    (
        "oppic_watchdog_alerts_total",
        "counter",
        "Watchdog alerts raised, one series per rule",
    ),
    (
        "oppic_recorder_events_total",
        "counter",
        "Events recorded by the flight recorder since start",
    ),
    (
        "oppic_recorder_dropped_total",
        "counter",
        "Flight-recorder events lost to ring wraparound",
    ),
    (
        "oppic_hist",
        "histogram",
        "Telemetry log2 histograms, one series per histogram name",
    ),
    (
        "oppic_rank_deaths_total",
        "counter",
        "Ranks declared dead by the failure detector (resilience.rank_deaths)",
    ),
    (
        "oppic_recovery_seconds",
        "histogram",
        "Shrinking-recovery latency per death verdict (resilience.recovery_ms, scaled to seconds)",
    ),
    (
        "oppic_scrapes_total",
        "counter",
        "Scrapes served by this exporter",
    ),
];

/// Scrape-time view over a telemetry hub plus the plane's own gauges.
pub struct MetricsRegistry {
    tel: Arc<Telemetry>,
    app: String,
    threads: usize,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
    scrapes: AtomicU64,
}

impl MetricsRegistry {
    pub fn new(tel: Arc<Telemetry>, app: &str, threads: usize) -> Self {
        MetricsRegistry {
            tel,
            app: app.to_string(),
            threads,
            gauges: Mutex::new(BTreeMap::new()),
            recorder: Mutex::new(None),
            scrapes: AtomicU64::new(0),
        }
    }

    /// Wire the flight recorder so its totals are exported.
    pub fn set_recorder(&self, fr: Arc<FlightRecorder>) {
        *self.recorder.lock() = Some(fr);
    }

    /// Upsert one of the per-step gauges (`oppic_step`,
    /// `oppic_step_seconds`, `oppic_alive_particles`).
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        self.gauges.lock().insert(name, v);
    }

    /// Scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Render one scrape in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let scrapes = self.scrapes.fetch_add(1, Ordering::Relaxed) + 1;
        let kernels = self.tel.kernels_snapshot();
        let mut kernels_by_name = kernels;
        kernels_by_name.sort_by(|a, b| a.0.cmp(&b.0));
        let counters = self.tel.counters_snapshot();
        let hists = self.tel.histograms_snapshot();
        let gauges = self.gauges.lock().clone();
        let recorder = self.recorder.lock().clone();

        let mut out = String::with_capacity(4096);
        for (family, ty, help) in METRIC_SCHEMA {
            let _ = writeln!(out, "# HELP {family} {help}");
            let _ = writeln!(out, "# TYPE {family} {ty}");
            match *family {
                "oppic_build_info" => {
                    let _ = writeln!(
                        out,
                        "oppic_build_info{{app={},build={},threads={}}} 1",
                        label(&self.app),
                        label(if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }),
                        label(&self.threads.to_string()),
                    );
                }
                "oppic_kernel_seconds_total" => {
                    for (name, k) in &kernels_by_name {
                        let _ = writeln!(
                            out,
                            "oppic_kernel_seconds_total{{kernel={},class={}}} {}",
                            label(name),
                            label(k.class.map_or("unclassified", |c| c.as_str())),
                            num(k.seconds),
                        );
                    }
                }
                "oppic_kernel_calls_total" => {
                    for (name, k) in &kernels_by_name {
                        let _ = writeln!(
                            out,
                            "oppic_kernel_calls_total{{kernel={},class={}}} {}",
                            label(name),
                            label(k.class.map_or("unclassified", |c| c.as_str())),
                            k.calls,
                        );
                    }
                }
                "oppic_events_total" => {
                    for (name, total) in &counters {
                        let _ = writeln!(out, "oppic_events_total{{name={}}} {total}", label(name));
                    }
                }
                "oppic_step" | "oppic_step_seconds" | "oppic_alive_particles" => {
                    if let Some(v) = gauges.get(family) {
                        let _ = writeln!(out, "{family} {}", num(*v));
                    }
                }
                "oppic_watchdog_alerts_total" => {
                    for (name, total) in &counters {
                        if let Some(rule) = name.strip_prefix("alerts.") {
                            if rule != "total" {
                                let _ = writeln!(
                                    out,
                                    "oppic_watchdog_alerts_total{{rule={}}} {total}",
                                    label(rule)
                                );
                            }
                        }
                    }
                }
                "oppic_recorder_events_total" => {
                    if let Some(fr) = &recorder {
                        let _ = writeln!(out, "oppic_recorder_events_total {}", fr.total());
                    }
                }
                "oppic_recorder_dropped_total" => {
                    if let Some(fr) = &recorder {
                        let _ = writeln!(out, "oppic_recorder_dropped_total {}", fr.dropped());
                    }
                }
                "oppic_hist" => {
                    for (name, h) in &hists {
                        let mut cum = 0u64;
                        for (b, c) in h.buckets.iter().enumerate() {
                            if *c == 0 {
                                continue;
                            }
                            cum += c;
                            // Bucket b covers values ≤ 2^b - 1 (b = 0
                            // holds exactly the zeros).
                            let le = if b == 0 {
                                0
                            } else {
                                (1u64 << b.min(HIST_BUCKETS - 1)) - 1
                            };
                            let _ = writeln!(
                                out,
                                "oppic_hist_bucket{{name={},le=\"{le}\"}} {cum}",
                                label(name)
                            );
                        }
                        let _ = writeln!(
                            out,
                            "oppic_hist_bucket{{name={},le=\"+Inf\"}} {}",
                            label(name),
                            h.count
                        );
                        let _ = writeln!(out, "oppic_hist_sum{{name={}}} {}", label(name), h.sum);
                        let _ =
                            writeln!(out, "oppic_hist_count{{name={}}} {}", label(name), h.count);
                    }
                }
                "oppic_rank_deaths_total" => {
                    if let Some((_, total)) =
                        counters.iter().find(|(n, _)| n == "resilience.rank_deaths")
                    {
                        let _ = writeln!(out, "oppic_rank_deaths_total {total}");
                    }
                }
                "oppic_recovery_seconds" => {
                    // The telemetry hub records recovery latency in
                    // milliseconds (log2 buckets); the exposition
                    // follows the Prometheus base-unit convention and
                    // rescales the bucket bounds and sum to seconds.
                    if let Some((_, h)) = hists.iter().find(|(n, _)| n == "resilience.recovery_ms")
                    {
                        let mut cum = 0u64;
                        for (b, c) in h.buckets.iter().enumerate() {
                            if *c == 0 {
                                continue;
                            }
                            cum += c;
                            let le_ms = if b == 0 {
                                0
                            } else {
                                (1u64 << b.min(HIST_BUCKETS - 1)) - 1
                            };
                            let _ = writeln!(
                                out,
                                "oppic_recovery_seconds_bucket{{le=\"{}\"}} {cum}",
                                num(le_ms as f64 / 1e3)
                            );
                        }
                        let _ = writeln!(
                            out,
                            "oppic_recovery_seconds_bucket{{le=\"+Inf\"}} {}",
                            h.count
                        );
                        let _ = writeln!(
                            out,
                            "oppic_recovery_seconds_sum {}",
                            num(h.sum as f64 / 1e3)
                        );
                        let _ = writeln!(out, "oppic_recovery_seconds_count {}", h.count);
                    }
                }
                "oppic_scrapes_total" => {
                    let _ = writeln!(out, "oppic_scrapes_total {scrapes}");
                }
                _ => {}
            }
        }
        out
    }
}

/// Quote and escape a label value (`\\`, `\"`, `\n`).
fn label(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a sample value (Prometheus accepts `NaN`, `+Inf`, `-Inf`).
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------
// Exposition audit
// ---------------------------------------------------------------------

/// Validate a text exposition against [`METRIC_SCHEMA`]: every HELP /
/// TYPE names a known family with the right type, every sample belongs
/// to a declared family (histogram samples may use the `_bucket` /
/// `_sum` / `_count` suffixes), labels are well-formed, and values
/// parse. Returns the number of samples on success, the list of
/// violations otherwise.
pub fn audit_exposition(text: &str) -> Result<usize, Vec<String>> {
    let schema: HashMap<&str, &str> = METRIC_SCHEMA.iter().map(|(n, t, _)| (*n, *t)).collect();
    let mut errors = Vec::new();
    let mut declared: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let family = parts.next().unwrap_or("");
            let tail = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !schema.contains_key(family) {
                        errors.push(format!("line {lineno}: HELP for unknown family {family:?}"));
                    }
                    if tail.is_empty() {
                        errors.push(format!("line {lineno}: HELP for {family} has no text"));
                    }
                }
                "TYPE" => match schema.get(family) {
                    None => {
                        errors.push(format!("line {lineno}: TYPE for unknown family {family:?}"))
                    }
                    Some(want) => {
                        if tail != *want {
                            errors.push(format!(
                                "line {lineno}: {family} declared {tail:?}, schema says {want:?}"
                            ));
                        }
                        if declared
                            .insert(family.to_string(), tail.to_string())
                            .is_some()
                        {
                            errors.push(format!("line {lineno}: duplicate TYPE for {family}"));
                        }
                    }
                },
                other => errors.push(format!("line {lineno}: unknown comment keyword {other:?}")),
            }
            continue;
        }
        samples += 1;
        let (name, labels, value) = match split_sample(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        let family = base_family(&name, &schema);
        match family {
            None => errors.push(format!(
                "line {lineno}: sample {name:?} matches no known family"
            )),
            Some(f) => {
                if !declared.contains_key(f) {
                    errors.push(format!(
                        "line {lineno}: sample for {f} appears before its TYPE declaration"
                    ));
                }
            }
        }
        for (k, v) in &labels {
            let name_ok = !k.is_empty()
                && k.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if !name_ok {
                errors.push(format!("line {lineno}: bad label name {k:?}"));
            }
            if k == "le" && v != "+Inf" && v.parse::<f64>().is_err() {
                errors.push(format!(
                    "line {lineno}: le label {v:?} is not numeric or +Inf"
                ));
            }
        }
        let value_ok =
            matches!(value.as_str(), "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            errors.push(format!(
                "line {lineno}: sample value {value:?} does not parse"
            ));
        }
    }
    if samples == 0 {
        errors.push("exposition holds no samples".to_string());
    }
    if errors.is_empty() {
        Ok(samples)
    } else {
        Err(errors)
    }
}

/// Split a sample line into `(metric_name, labels, value)`.
#[allow(clippy::type_complexity)]
fn split_sample(line: &str) -> Result<(String, Vec<(String, String)>, String), String> {
    let (head, value) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label block".to_string())?;
            let labels = parse_labels(&line[open + 1..close])?;
            let value = line[close + 1..].trim();
            return Ok((line[..open].to_string(), labels, value.to_string()));
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let value = parts.next().unwrap_or("").trim().to_string();
            (name, value)
        }
    };
    if head.is_empty() || value.is_empty() {
        return Err("sample line needs a name and a value".to_string());
    }
    Ok((head, Vec::new(), value))
}

/// Parse `k="v",k2="v2"` with `\\`, `\"`, `\n` escapes.
fn parse_labels(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if chars.next() != Some('=') {
            return Err(format!("label {name:?} has no '='"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {name:?} value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {name:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label {name:?}")),
            }
        }
        out.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected {c:?} after label value")),
        }
    }
    Ok(out)
}

/// Resolve a sample name to its schema family, honouring histogram
/// suffixes.
fn base_family<'a>(name: &str, schema: &HashMap<&'a str, &'a str>) -> Option<&'a str> {
    if let Some((&f, _)) = schema.get_key_value(name) {
        return Some(f);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if let Some((&f, &ty)) = schema.get_key_value(stem) {
                if ty == "histogram" {
                    return Some(f);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::telemetry::KernelClass;

    fn sample_registry() -> MetricsRegistry {
        let tel = Arc::new(Telemetry::new());
        drop(tel.span_class("Move", KernelClass::Move));
        tel.counter_add("move.relocated", 42);
        tel.counter_add("alerts.total", 1);
        tel.counter_add("alerts.step_time_regression", 1);
        tel.hist_record("move.hops_per_particle", 0);
        tel.hist_record("move.hops_per_particle", 3);
        tel.counter_add("resilience.rank_deaths", 1);
        tel.hist_record("resilience.recovery_ms", 240);
        let reg = MetricsRegistry::new(tel, "fempic", 4);
        reg.set_gauge("oppic_step", 7.0);
        reg.set_gauge("oppic_step_seconds", 0.0123);
        reg.set_gauge("oppic_alive_particles", 512.0);
        reg.set_recorder(Arc::new(FlightRecorder::new(64)));
        reg
    }

    #[test]
    fn render_passes_its_own_audit() {
        let reg = sample_registry();
        let text = reg.render();
        let n = audit_exposition(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
        assert!(n >= 10, "only {n} samples:\n{text}");
        assert!(text.contains("oppic_kernel_seconds_total{kernel=\"Move\",class=\"Move\"}"));
        assert!(text.contains("oppic_events_total{name=\"move.relocated\"} 42"));
        assert!(text.contains("oppic_watchdog_alerts_total{rule=\"step_time_regression\"} 1"));
        assert!(text.contains("oppic_hist_bucket{name=\"move.hops_per_particle\",le=\"+Inf\"} 2"));
        assert!(text.contains("oppic_step 7"));
        assert!(text.contains("oppic_rank_deaths_total 1"));
        // 240 ms lands in the log2 bucket bounded by 255 ms = 0.255 s.
        assert!(text.contains("oppic_recovery_seconds_bucket{le=\"0.255\"} 1"));
        assert!(text.contains("oppic_recovery_seconds_sum 0.24"));
        assert!(text.contains("oppic_recovery_seconds_count 1"));
        assert!(text.contains("oppic_scrapes_total 1"));
        // Second scrape bumps the counter.
        assert!(reg.render().contains("oppic_scrapes_total 2"));
    }

    #[test]
    fn label_escaping_round_trips() {
        assert_eq!(label("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let parsed = parse_labels("name=\"a\\\"b\\\\c\\nd\"").unwrap();
        assert_eq!(parsed, vec![("name".into(), "a\"b\\c\nd".into())]);
    }

    #[test]
    fn audit_rejects_unknown_family_and_bad_values() {
        let bad = "# TYPE oppic_bogus counter\noppic_bogus 1\n";
        let errs = audit_exposition(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("unknown family")),
            "{errs:?}"
        );
        let bad = "# TYPE oppic_step gauge\noppic_step abc\n";
        let errs = audit_exposition(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("does not parse")),
            "{errs:?}"
        );
        let bad = "oppic_step 1\n";
        let errs = audit_exposition(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("before its TYPE")),
            "{errs:?}"
        );
    }

    #[test]
    fn audit_rejects_type_mismatch_and_duplicates() {
        let bad = "# TYPE oppic_step counter\noppic_step 1\n";
        let errs = audit_exposition(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema says")), "{errs:?}");
        let bad = "# TYPE oppic_step gauge\n# TYPE oppic_step gauge\noppic_step 1\n";
        let errs = audit_exposition(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("duplicate TYPE")),
            "{errs:?}"
        );
    }
}
