//! Golden test for the merged Chrome-trace exporter (ISSUE PR 8,
//! satellite c): pins the exact byte output — event ordering, JSON
//! string escaping, and the pid/tid lane mapping — for a fixture with
//! two telemetry runs and a schedule trace. Any intentional format
//! change must update the golden string here *and* the §6 timeline
//! table in DESIGN.md.

use oppic_core::schedule::{ExchangeDir, ScheduleEvent, ScheduleTrace, TraceEvent};
use oppic_obs::timeline::chrome_trace;

fn fixture_schedule() -> ScheduleTrace {
    ScheduleTrace {
        app: "fempic".into(),
        steps: 1,
        events: vec![
            TraceEvent {
                step: 1,
                event: ScheduleEvent::Loop {
                    name: "Move".into(),
                },
            },
            TraceEvent {
                step: 1,
                event: ScheduleEvent::Exchange {
                    dat: "node_charge".into(),
                    dir: ExchangeDir::ReduceSum,
                    tag: "fempic/deposit".into(),
                },
            },
        ],
        ..ScheduleTrace::default()
    }
}

#[test]
fn merged_trace_matches_golden() {
    // Run 1 has a step window [1000, 3000)µs; its span closes at 2500.
    // The name carries a quote and a backslash to pin the escaping.
    let run1 = concat!(
        "{\"type\":\"run_header\",\"schema\":1,\"app\":\"fempic\",\"config_hash\":\"0\",\"build\":\"release\",\"threads\":1}\n",
        "{\"type\":\"span\",\"step\":1,\"ts\":2500,\"name\":\"Mo\\\\ve \\\"x\\\"\",\"path\":\"step>Move\",\"depth\":1,\"ms\":1.0}\n",
        "{\"type\":\"step\",\"step\":1,\"ts\":3000,\"ms\":2.0,\"gauges\":{},\"counters\":{}}\n",
        "{\"type\":\"alert\",\"step\":1,\"ts\":2900,\"rule\":\"quarantine_rate\",\"severity\":\"warn\",\"message\":\"2 quarantined\"}\n",
    );
    // Run 2 is a legacy stream without ts: cursor layout.
    let run2 = "{\"type\":\"span\",\"name\":\"Push\",\"path\":\"Push\",\"depth\":0,\"ms\":0.5}\n";

    let out = chrome_trace(
        &[("baseline", run1), ("legacy", run2)],
        Some(&fixture_schedule()),
    );

    let golden = concat!(
        "{\"traceEvents\":[",
        // Metadata: one process per run, then the schedule lane.
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"run:baseline\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"steps\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"kernels\"}},",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"run:legacy\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"steps\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"kernels\"}},",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"args\":{\"name\":\"schedule\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":1,\"args\":{\"name\":\"loops\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":2,\"args\":{\"name\":\"exchanges\"}},",
        // Run 1, tid 0 (steps lane): step window then the alert instant.
        "{\"name\":\"step 1\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1000,\"dur\":2000},",
        "{\"name\":\"ALERT quarantine_rate\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":2900,\"s\":\"t\",",
        "\"args\":{\"message\":\"2 quarantined\",\"severity\":\"warn\"}},",
        // Run 1, tid 1 (kernels lane): the span, escaped, ts = close - dur.
        "{\"name\":\"Mo\\\\ve \\\"x\\\"\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1500,\"dur\":1000,",
        "\"args\":{\"path\":\"step>Move\"}},",
        // Run 2: legacy cursor starts at 0.
        "{\"name\":\"Push\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0,\"dur\":500,\"args\":{\"path\":\"Push\"}},",
        // Schedule lane: 2 events spread across run 1's step window
        // [1000, 3000) at start + j*dur/(n+1) = 1666, 2333.
        "{\"name\":\"Move\",\"ph\":\"i\",\"pid\":3,\"tid\":1,\"ts\":1666,\"s\":\"t\"},",
        "{\"name\":\"reduce_sum node_charge\",\"ph\":\"i\",\"pid\":3,\"tid\":2,\"ts\":2333,\"s\":\"t\",",
        "\"args\":{\"dat\":\"node_charge\",\"dir\":\"reduce_sum\",\"tag\":\"fempic/deposit\"}}",
        "],\"displayTimeUnit\":\"ms\"}",
    );
    assert_eq!(out, golden);
}

#[test]
fn rendering_is_deterministic() {
    let run = "{\"type\":\"span\",\"step\":1,\"ts\":100,\"name\":\"A\",\"path\":\"A\",\"depth\":0,\"ms\":0.05}\n";
    let a = chrome_trace(&[("r", run)], Some(&fixture_schedule()));
    let b = chrome_trace(&[("r", run)], Some(&fixture_schedule()));
    assert_eq!(a, b);
}
