//! Golden test for the telemetry event stream: a 2-step Mini-FEM-PIC
//! run with a JSONL sink attached must emit a schema-valid stream —
//! header first, footer last, balanced spans, coherent step summaries
//! — that passes the analyzer's telemetry audit with no findings.

use oppic_analyzer::{audit_telemetry, Severity};
use oppic_core::json::{self, Json};
use oppic_core::RunInfo;
use oppic_fempic::{FemPic, FemPicConfig};

#[test]
fn two_step_run_emits_schema_valid_jsonl() {
    let path = std::env::temp_dir().join(format!(
        "oppic_telemetry_golden_{}.jsonl",
        std::process::id()
    ));
    let mut sim = FemPic::new(FemPicConfig::tiny());
    let tel = sim.profiler.telemetry().clone();
    tel.attach_sink(
        &path,
        &RunInfo {
            app: "fempic".into(),
            config_hash: "golden".into(),
            threads: 1,
            extra: vec![("steps".into(), "2".into())],
        },
    )
    .unwrap();
    sim.run(2);
    tel.finish().unwrap();
    let src = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Every line parses as a JSON object with a type tag; the stream
    // is header-first, footer-last.
    let events: Vec<Json> = src.lines().map(|l| json::parse(l).unwrap()).collect();
    let types: Vec<&str> = events
        .iter()
        .map(|e| e.get("type").and_then(Json::as_str).expect("typed record"))
        .collect();
    assert_eq!(types.first(), Some(&"run_header"));
    assert_eq!(types.last(), Some(&"run_footer"));
    assert!(types.contains(&"span"), "{types:?}");

    let header = &events[0];
    assert_eq!(header.get("schema").and_then(Json::as_u64), Some(1));
    assert_eq!(header.get("app").and_then(Json::as_str), Some("fempic"));
    assert_eq!(header.get("steps").and_then(Json::as_str), Some("2"));

    // Exactly the two step summaries, indexed 1 and 2, each carrying
    // the alive-population gauge and the injection counter delta.
    let steps: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("type").and_then(Json::as_str) == Some("step"))
        .collect();
    assert_eq!(steps.len(), 2);
    for (i, s) in steps.iter().enumerate() {
        assert_eq!(s.get("step").and_then(Json::as_u64), Some(i as u64 + 1));
        let alive = s
            .get("gauges")
            .and_then(|g| g.get("alive"))
            .and_then(Json::as_f64)
            .expect("alive gauge");
        assert!(alive > 0.0);
        let injected = s
            .get("counters")
            .and_then(|c| c.get("inject.particles"))
            .and_then(Json::as_u64)
            .expect("injection delta");
        assert!(injected > 0);
    }

    // The footer closes the book: balanced spans and the same kernel
    // aggregates the hub holds in memory.
    let footer = events.last().unwrap();
    assert_eq!(footer.get("open_spans").and_then(Json::as_u64), Some(0));
    let kernels = footer.get("kernels").and_then(Json::as_arr).unwrap();
    for k in kernels {
        let name = k.get("name").and_then(Json::as_str).unwrap();
        let live = tel.get(name).expect("kernel in the hub");
        assert_eq!(k.get("calls").and_then(Json::as_u64), Some(live.calls));
        assert_eq!(k.get("seconds").and_then(Json::as_f64), Some(live.seconds));
    }

    // The analyzer's audit pass agrees: nothing to report.
    let report = audit_telemetry(&src);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(report.count(Severity::Warn), 0, "{report}");
}
