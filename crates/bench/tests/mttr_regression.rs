//! Rank-failure MTTR regression against the committed artifact.
//!
//! Table-driven over `results/BENCH_rank_failure_mttr.json` (written
//! by `fig_rank_failure_mttr`). Wall-clock is machine-dependent, so
//! the pins are *bounded invariants* of the recovery protocol rather
//! than exact timings:
//!
//! * every site row is `bit_identical` — the binary refuses to record
//!   anything else, and this test refuses to accept a hand-edit;
//! * detection latency, recorded as the time it takes beyond the
//!   configured death deadline, is at least the deadline (the detector
//!   grants a frozen suspect the full deadline — a smaller number
//!   would mean the verdict was rushed) and under a generous loaded-box
//!   ceiling;
//! * replay cost is bounded by the checkpoint cadence: at most
//!   `checkpoint_every` steps for an in-step kill, one more for a
//!   mid-checkpoint kill that forces the fallback version;
//! * one killed rank is recorded as one death, not one per survivor;
//! * all three kill sites are present with the expected fallback
//!   behaviour (the checkpoint-site row replays more than the cadence,
//!   proving it fell back a full version).

use oppic_core::json::{self, Json};

fn load_artifact() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_rank_failure_mttr.json"
    );
    let src = std::fs::read_to_string(path).expect("committed MTTR artifact must exist");
    json::parse(&src).expect("MTTR artifact must be valid JSON")
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
        panic!("MTTR row missing numeric field '{key}'");
    })
}

#[test]
fn mttr_artifact_pins_the_recovery_contract() {
    let doc = load_artifact();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("oppic-mttr-v3"),
        "schema drifted — regenerate with fig_rank_failure_mttr"
    );
    let deadline_ms = num(&doc, "death_deadline_ms");
    let cadence = num(&doc, "checkpoint_every") as u64;
    assert!(deadline_ms > 0.0 && cadence > 0);

    let sites = doc
        .get("sites")
        .and_then(Json::as_arr)
        .expect("sites array");
    let names: Vec<&str> = sites
        .iter()
        .map(|r| r.get("site").and_then(Json::as_str).expect("site name"))
        .collect();
    assert_eq!(
        names,
        vec!["step", "exchange", "checkpoint"],
        "all three kill sites must be recorded"
    );

    for row in sites {
        let site = row.get("site").and_then(Json::as_str).unwrap();
        assert_eq!(
            row.get("bit_identical"),
            Some(&Json::Bool(true)),
            "site {site}: survivors must match the planned-shrink twin bit-for-bit"
        );
        // detection >= 0.99 deadline and detection <= 100 deadline,
        // with detection = deadline + beyond.
        let beyond = num(row, "detection_beyond_deadline_ms");
        assert!(
            beyond >= -deadline_ms * 0.01,
            "site {site}: detection {beyond} ms past the deadline undercuts the {deadline_ms} ms death deadline"
        );
        assert!(
            beyond <= deadline_ms * 99.0,
            "site {site}: detection {beyond} ms past the deadline is implausibly slow"
        );
        // recovery = agreement + restore.
        let agreement = num(row, "agreement_ms");
        let restore = num(row, "restore_ms");
        let recovery = agreement + restore;
        assert!(
            agreement >= 0.0 && restore > 0.0 && recovery < 60_000.0,
            "site {site}: recovery {agreement} + {restore} ms out of bounds"
        );
        let mttr = num(row, "mttr_ms");
        assert!(
            (mttr - (deadline_ms + beyond + agreement + restore)).abs() < 0.01,
            "site {site}: mttr must be deadline + detection beyond it + agreement + restore"
        );
        let replayed = num(row, "steps_replayed") as u64;
        let bound = if site == "checkpoint" {
            cadence + 1 // the fallback version is one full cadence older
        } else {
            cadence
        };
        assert!(
            (1..=bound).contains(&replayed),
            "site {site}: replayed {replayed} steps, cadence bound is {bound}"
        );
        assert!(
            num(row, "post_steps_per_s") > 0.0,
            "site {site}: no post-recovery throughput recorded"
        );
        assert_eq!(
            num(row, "rank_deaths") as u64,
            1,
            "site {site}: one killed rank is one death"
        );
    }

    // The checkpoint-site kill must actually have exercised the
    // fallback: it replays past the cadence.
    let ckpt = &sites[2];
    assert!(
        num(ckpt, "steps_replayed") as u64 > cadence - 1,
        "checkpoint-site kill did not fall back a version"
    );
}
