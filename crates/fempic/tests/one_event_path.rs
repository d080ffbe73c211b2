//! One event path: the JSONL sink and the live observer see the same
//! events. A 3-step Mini-FEM-PIC run with the deposit auto-tuner on
//! (one decision trace per step) and an alert between steps publishes
//! to both. Every event the observer receives must be in the stream,
//! as the same record in the same order, and the step records must
//! carry their gauges and counter deltas.

use oppic_core::telemetry::{AlertSeverity, EventObserver, Record, TelemetryEvent};
use oppic_core::RunInfo;
use oppic_fempic::{FemPic, FemPicConfig};
use std::sync::{Arc, Mutex};

/// The record of every event the observer receives.
#[derive(Default)]
struct Lines(Mutex<Vec<String>>);

impl EventObserver for Lines {
    fn on_event(&self, ev: &TelemetryEvent<'_>) {
        self.0.lock().unwrap().push(ev.encode());
    }
}

#[test]
fn sink_and_observer_see_the_same_events() {
    let path =
        std::env::temp_dir().join(format!("oppic_one_event_path_{}.jsonl", std::process::id()));
    let mut sim = FemPic::new(FemPicConfig {
        auto_tune: true,
        ..FemPicConfig::tiny()
    });
    let tel = sim.profiler.telemetry().clone();
    let observed = Arc::new(Lines::default());
    tel.attach_sink(&path, &RunInfo::default()).unwrap();
    tel.set_observer(Some(observed.clone()));
    sim.run(1);
    tel.alert("test_rule", AlertSeverity::Warn, "between steps");
    sim.run(2);
    tel.set_observer(None);
    tel.finish().unwrap();
    let src = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = src.lines().collect();
    let (first, last) = (lines[0], lines[lines.len() - 1]);
    assert!(matches!(Record::parse(first), Ok(Record::Header(_))));
    assert!(matches!(Record::parse(last), Ok(Record::Footer(_))));
    let events = &lines[1..lines.len() - 1];
    assert_eq!(events, observed.0.lock().unwrap().as_slice());

    let (mut spans, mut decisions, mut alerts, mut steps) = (0, 0, Vec::new(), Vec::new());
    for line in events {
        match Record::parse(line).unwrap() {
            Record::Event(TelemetryEvent::SpanClose { step, .. }) => {
                assert!(step.is_some(), "{line}");
                spans += 1;
            }
            Record::Event(TelemetryEvent::Decision { step, .. }) => {
                assert!(step.is_some(), "{line}");
                decisions += 1;
            }
            Record::Event(TelemetryEvent::Alert { rule, step, .. }) => alerts.push((rule, step)),
            Record::Event(TelemetryEvent::StepEnd {
                step,
                gauges,
                counters,
                ..
            }) => {
                assert!(!gauges.is_empty() && !counters.is_empty(), "{line}");
                steps.push(step);
            }
            other => panic!("not an event record: {other:?}"),
        }
    }
    assert_eq!(steps, [1, 2, 3]);
    assert_eq!(decisions, 3);
    assert_eq!(alerts, [("test_rule".into(), None)]);
    assert!(spans >= 3 * 5, "{spans} span records");
}
