//! Merged timeline exporter: telemetry JSONL streams + an optional
//! `ScheduleTrace`, rendered as Chrome-trace JSON (loadable in
//! `chrome://tracing` and Perfetto).
//!
//! Mapping:
//! * each telemetry run is one process (`pid` 1, 2, ...); its spans
//!   are `ph:"X"` complete events on `tid` 1 and its step summaries
//!   synthetic `step N` events on `tid` 0; alerts are global instant
//!   events;
//! * the schedule trace (if given) is one extra process after the
//!   runs, with loop dispatches on `tid` 1 and exchanges on `tid` 2 as
//!   instant events placed inside the matching step window of run 1;
//! * all timestamps are microseconds on the run's own `ts` clock, as
//!   [`Record::parse`] reads them (every event record carries one).
//!
//! Output ordering is deterministic: metadata first, then events
//! sorted by `(pid, tid, ts, name)` — pinned by the golden test.

use oppic_core::json::{self, Obj};
use oppic_core::schedule::{ScheduleEvent, ScheduleTrace};
use oppic_core::telemetry::{Record, TelemetryEvent as E};

/// One event row, pre-serialization.
struct Row {
    pid: u64,
    tid: u64,
    ts_us: u64,
    /// `Some(dur)` renders a complete (`"X"`) event, `None` an
    /// instant (`"i"`).
    dur_us: Option<u64>,
    name: String,
    /// The `"args"` object, as JSON text.
    args: Option<String>,
}

/// A step window on run 1's clock, used to place schedule events.
#[derive(Clone, Copy)]
struct StepWindow {
    start_us: u64,
    dur_us: u64,
}

/// Render the merged Chrome-trace JSON. Each element of `runs` is a
/// `(label, jsonl_source)` pair; lines that [`Record::parse`] refuses
/// are skipped (a crashed run's torn tail must not block its timeline).
pub fn chrome_trace(runs: &[(&str, &str)], schedule: Option<&ScheduleTrace>) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    let mut first_windows: Vec<(u64, StepWindow)> = Vec::new();

    for (i, (label, src)) in runs.iter().enumerate() {
        let pid = i as u64 + 1;
        meta.push(lane(pid, None, &format!("run:{label}")));
        meta.push(lane(pid, Some(0), "steps"));
        meta.push(lane(pid, Some(1), "kernels"));
        for line in src.lines() {
            let Ok(rec) = Record::parse(line) else {
                continue;
            };
            // Every event record's `ts` stamps its close; a span or
            // step starts `ms` earlier.
            let window = |ts_us: u64, ms: f64| {
                let dur_us = (ms.max(0.0) * 1e3) as u64;
                (ts_us.saturating_sub(dur_us), dur_us)
            };
            match rec {
                Record::Event(E::SpanClose {
                    ts_us,
                    name,
                    path,
                    ms,
                    ..
                }) => {
                    let (start, dur_us) = window(ts_us, ms);
                    rows.push(Row {
                        pid,
                        tid: 1,
                        ts_us: start,
                        dur_us: Some(dur_us),
                        name: name.into_owned(),
                        args: Some(Obj::default().str("path", &path).end()),
                    });
                }
                Record::Event(E::StepEnd {
                    step, ts_us, ms, ..
                }) => {
                    let (start_us, dur_us) = window(ts_us, ms);
                    if pid == 1 {
                        first_windows.push((step, StepWindow { start_us, dur_us }));
                    }
                    rows.push(Row {
                        pid,
                        tid: 0,
                        ts_us: start_us,
                        dur_us: Some(dur_us),
                        name: format!("step {step}"),
                        args: None,
                    });
                }
                Record::Event(E::Alert {
                    ts_us,
                    rule,
                    severity,
                    message,
                    ..
                }) => rows.push(Row {
                    pid,
                    tid: 0,
                    ts_us,
                    dur_us: None,
                    name: format!("ALERT {rule}"),
                    args: Some(
                        Obj::default()
                            .str("message", &message)
                            .str("severity", severity.as_str())
                            .end(),
                    ),
                }),
                _ => {}
            }
        }
    }

    if let Some(trace) = schedule {
        let pid = runs.len() as u64 + 1;
        meta.push(lane(pid, None, "schedule"));
        meta.push(lane(pid, Some(1), "loops"));
        meta.push(lane(pid, Some(2), "exchanges"));
        // Group events by step, then spread each step's events evenly
        // across run 1's recorded window for that step (or a synthetic
        // 1 ms-per-step lane when the runs carry no step records).
        let mut by_step: Vec<(u64, Vec<&oppic_core::schedule::TraceEvent>)> = Vec::new();
        for ev in &trace.events {
            let step = ev.step as u64;
            match by_step.last_mut() {
                Some((s, v)) if *s == step => v.push(ev),
                _ => by_step.push((step, vec![ev])),
            }
        }
        for (step, events) in &by_step {
            let window = first_windows
                .iter()
                .find(|(s, _)| s == step)
                .map(|(_, w)| *w)
                .unwrap_or(StepWindow {
                    start_us: step.saturating_sub(1) * 1000,
                    dur_us: 1000,
                });
            let n = events.len() as u64;
            for (j, ev) in events.iter().enumerate() {
                let ts_us = window.start_us + (j as u64 + 1) * window.dur_us / (n + 1);
                let (tid, name, args) = match &ev.event {
                    ScheduleEvent::Loop { name } => (1, name.clone(), None),
                    ScheduleEvent::Exchange { dat, dir, tag } => (
                        2,
                        format!("{} {dat}", dir.label()),
                        Some(
                            Obj::default()
                                .str("dat", dat)
                                .str("dir", dir.label())
                                .str("tag", tag)
                                .end(),
                        ),
                    ),
                };
                rows.push(Row {
                    pid,
                    tid,
                    ts_us,
                    dur_us: None,
                    name,
                    args,
                });
            }
        }
    }

    rows.sort_by(|a, b| (a.pid, a.tid, a.ts_us, &a.name).cmp(&(b.pid, b.tid, b.ts_us, &b.name)));

    let events = rows.iter().map(|row| {
        let o = Obj::default()
            .str("name", &row.name)
            .str("ph", if row.dur_us.is_some() { "X" } else { "i" })
            .raw("pid", row.pid)
            .raw("tid", row.tid)
            .raw("ts", row.ts_us);
        let o = match row.dur_us {
            Some(dur) => o.raw("dur", dur),
            None => o.str("s", "t"),
        };
        match &row.args {
            Some(args) => o.raw("args", args),
            None => o,
        }
        .end()
    });
    Obj::default()
        .raw("traceEvents", json::array(meta.into_iter().chain(events)))
        .str("displayTimeUnit", "ms")
        .end()
}

/// A `process_name` (no `tid`) or `thread_name` metadata event. These
/// lead the stream so viewers label lanes before any event arrives.
fn lane(pid: u64, tid: Option<u64>, name: &str) -> String {
    let kind = if tid.is_some() {
        "thread_name"
    } else {
        "process_name"
    };
    let o = Obj::default()
        .str("name", kind)
        .str("ph", "M")
        .raw("pid", pid);
    match tid {
        Some(tid) => o.raw("tid", tid),
        None => o,
    }
    .raw("args", Obj::default().str("name", name).end())
    .end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::json::Json;

    #[test]
    fn output_is_valid_json_and_sorted() {
        let src = concat!(
            "{\"type\":\"run_header\",\"schema\":1,\"app\":\"t\",\"config_hash\":\"0\",\"build\":\"debug\",\"threads\":1}\n",
            "{\"type\":\"span\",\"step\":1,\"ts\":1500,\"name\":\"Move\",\"path\":\"step>Move\",\"depth\":1,\"ms\":1.0}\n",
            "{\"type\":\"step\",\"step\":1,\"ts\":2000,\"ms\":2.0,\"gauges\":{},\"counters\":{}}\n",
            "garbage line that must be skipped\n",
        );
        let out = chrome_trace(&[("fempic", src)], None);
        let parsed = json::parse(&out).expect("valid json");
        let events = parsed.get("traceEvents").expect("traceEvents");
        let Json::Arr(items) = events else {
            panic!("traceEvents is not an array")
        };
        // 3 metadata + span + step.
        assert_eq!(items.len(), 5);
        // Span starts at close - dur = 1500 - 1000.
        let span = items
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("Move"))
            .unwrap();
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(500));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(1000));
        assert_eq!(span.get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(1));
    }
}
