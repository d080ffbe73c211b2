//! Shared reporting helpers for the figure/table binaries: consistent
//! headers, simple ASCII bar charts (the terminal stand-in for the
//! paper's matplotlib plots), environment scaling knobs, and the
//! `OPPIC_TELEMETRY` sink hookup.

use oppic_core::telemetry::fnv1a;
use oppic_core::{RunInfo, Telemetry};

/// Print a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("{}", "=".repeat(78));
    println!("{id}: {caption}");
    println!("{}", "=".repeat(78));
}

/// Problem-size scale factor from `OPPIC_SCALE` (default keeps each
/// binary under ~a minute on a laptop; 1.0 = the paper's sizes).
pub fn scale_factor(default: f64) -> f64 {
    std::env::var("OPPIC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Steps override from `OPPIC_STEPS`.
pub fn steps(default: usize) -> usize {
    std::env::var("OPPIC_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The note of a measured row run on `ranks` in-process ranks: when
/// they outnumber the host's cores (`available_parallelism`), the row
/// measures ranks sharing cores, not scaling, and says so.
pub fn rank_note(ranks: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if ranks > cores {
        format!("  oversubscribed: {ranks} ranks on {cores} cores")
    } else {
        String::new()
    }
}

/// A horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Derive the per-variant sink path: the variant slug is inserted
/// before the extension (`out.jsonl` + `"CPU seq"` → `out.cpu-seq.jsonl`)
/// so multi-variant binaries write one stream per run.
pub fn telemetry_variant_path(base: &str, variant: &str) -> String {
    let mut slug = String::new();
    for c in variant.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('-') {
            slug.push('-');
        }
    }
    let slug = slug.trim_matches('-');
    if slug.is_empty() {
        return base.to_string();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{slug}.{ext}"),
        None => format!("{base}.{slug}"),
    }
}

/// Attach a telemetry JSONL sink when `OPPIC_TELEMETRY` names a path —
/// the bench binaries' counterpart of the applications' `--telemetry`
/// flag. Returns whether a sink opened; the caller must
/// [`Telemetry::finish`] once the variant's run ends.
pub fn telemetry_from_env(
    tel: &Telemetry,
    app: &str,
    variant: &str,
    threads: usize,
    config_debug: &str,
) -> bool {
    let Ok(base) = std::env::var("OPPIC_TELEMETRY") else {
        return false;
    };
    let path = telemetry_variant_path(&base, variant);
    let mut extra = vec![("bench".to_string(), "1".to_string())];
    if !variant.is_empty() {
        extra.push(("variant".to_string(), variant.to_string()));
    }
    let info = RunInfo {
        app: app.into(),
        config_hash: format!("{:016x}", fnv1a(config_debug.as_bytes())),
        threads,
        extra,
    };
    match tel.attach_sink(std::path::Path::new(&path), &info) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: cannot open telemetry sink {path}: {e}");
            false
        }
    }
}

/// Render a labelled bar chart.
pub fn bar_chart(rows: &[(String, f64)], unit: &str) -> String {
    let max = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let mut out = String::new();
    for (label, v) in rows {
        out.push_str(&format!(
            "{label:<34} {v:>10.4} {unit}  |{}\n",
            bar(*v, max, 34)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn chart_renders_all_rows() {
        let rows = vec![
            ("Move".to_string(), 3.0),
            ("DepositCharge".to_string(), 1.5),
        ];
        let c = bar_chart(&rows, "s");
        assert!(c.contains("Move"));
        assert!(c.contains("DepositCharge"));
        assert_eq!(c.lines().count(), 2);
    }

    #[test]
    fn variant_paths_slug_before_extension() {
        assert_eq!(
            telemetry_variant_path("out.jsonl", "CPU parallel, multi-hop (MH)"),
            "out.cpu-parallel-multi-hop-mh.jsonl"
        );
        assert_eq!(telemetry_variant_path("out.jsonl", ""), "out.jsonl");
        assert_eq!(telemetry_variant_path("noext", "A B"), "noext.a-b");
    }

    #[test]
    fn env_knobs_default() {
        // No env vars set in tests: defaults come back.
        std::env::remove_var("OPPIC_SCALE");
        std::env::remove_var("OPPIC_STEPS");
        assert_eq!(scale_factor(0.25), 0.25);
        assert_eq!(steps(50), 50);
    }
}
