//! Property tests on the flight-recorder ring: for any capacity and
//! any mix of span, decision, step and alert events, a dump parses back
//! to exactly the newest window of events, oldest first; a corrupted
//! dump never parses; and concurrent writers never surface a torn event
//! in a dump taken while they run.

use oppic_core::telemetry::{AlertSeverity, EventObserver, TelemetryEvent};
use oppic_obs::recorder::{FlightDump, FlightRecorder};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Characters the codec must escape or pass through.
const ALPHABET: [char; 8] = ['a', 'Z', '"', '\\', '>', 'é', '\n', '\u{1}'];

/// JSON numbers are f64: integers stay exact below 2^53.
const EXACT: u64 = 1 << 53;

/// A drawn event: kind (span, decision, step, alert), a finite float
/// as `(mantissa, exponent)`, a text, a gauge class (NaN, +inf, -inf,
/// else the float) and a step number.
type Drawn = (usize, (f64, i32), Vec<usize>, usize, u64);

fn drawn() -> impl Strategy<Value = Drawn> {
    (
        0usize..4,
        (-1.0f64..1.0, -30i32..30),
        prop::collection::vec(0..ALPHABET.len(), 0..8),
        0usize..6,
        0..EXACT,
    )
}

/// Event `i` as recorded, and as the codec reads it back: a gauge that
/// is not finite is written as `null` and reads back as NaN.
fn event(i: u64, (kind, (m, e), text, gauge, step): &Drawn) -> [TelemetryEvent<'static>; 2] {
    let text: String = text.iter().map(|&c| ALPHABET[c]).collect();
    let x = m * 10f64.powi(*e);
    let step_or_none = i.is_multiple_of(2).then_some(*step);
    let ev = |g: f64| match kind {
        0 => TelemetryEvent::SpanClose {
            name: text.clone().into(),
            path: format!("step>{text}").into(),
            depth: i as usize % 3,
            ms: x,
            step: step_or_none,
            ts_us: i,
        },
        1 => TelemetryEvent::Decision {
            name: text.clone().into(),
            text: format!("{text} #{i}").into(),
            step: step_or_none,
            ts_us: i,
        },
        2 => TelemetryEvent::StepEnd {
            step: *step,
            ms: x,
            ts_us: i,
            gauges: vec![("alive".to_string(), g)].into(),
            counters: vec![("moved".to_string(), i), (text.clone(), *step)].into(),
        },
        _ => TelemetryEvent::Alert {
            rule: text.clone().into(),
            severity: if i.is_multiple_of(2) {
                AlertSeverity::Warn
            } else {
                AlertSeverity::Critical
            },
            message: format!("{text} at {i}").into(),
            step: step_or_none,
            ts_us: i,
        },
    };
    let g = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .get(*gauge)
        .copied()
        .unwrap_or(x);
    [ev(g), ev(if g.is_finite() { g } else { f64::NAN })]
}

/// Events compared through their `Debug` text: it prints every finite
/// f64 in its shortest round-trip form, so equal text means equal bits,
/// and every NaN as "NaN", which `==` would not equate.
fn text_of(events: &[TelemetryEvent<'_>]) -> Vec<String> {
    events.iter().map(|ev| format!("{ev:?}")).collect()
}

fn dump(rec: &FlightRecorder) -> Vec<u8> {
    rec.dump(Vec::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring's bookkeeping survives the dump: capacity, total and
    /// dropped agree with the recorder, and the window holds the newest
    /// `min(n, capacity)` events in the order they were recorded.
    #[test]
    fn wraparound_drains_newest_window_oldest_first(
        capacity in 8usize..64,
        n in 0u64..300,
    ) {
        let rec = FlightRecorder::new(capacity);
        let d: Drawn = (0, (0.5, 0), Vec::new(), 5, 1);
        for i in 0..n {
            rec.on_event(&event(i, &d)[0]);
        }
        prop_assert_eq!(rec.total(), n);
        prop_assert_eq!(rec.dropped(), n.saturating_sub(capacity as u64));
        let parsed = FlightDump::parse(&dump(&rec)).unwrap();
        prop_assert_eq!(parsed.capacity, capacity as u64);
        prop_assert_eq!(parsed.total, n);
        prop_assert_eq!(parsed.dropped(), rec.dropped());
        let ts: Vec<u64> = parsed.events.iter().map(|ev| match ev {
            TelemetryEvent::SpanClose { ts_us, .. } => *ts_us,
            other => panic!("not a span: {other:?}"),
        }).collect();
        let kept = n.min(capacity as u64);
        prop_assert_eq!(ts, (n - kept..n).collect::<Vec<_>>());
    }

    /// dump → parse returns exactly the newest `min(n, capacity)`
    /// events, oldest first, equal to what was recorded bit for bit,
    /// but for non-finite gauges, which read back as NaN.
    #[test]
    fn dump_parse_roundtrip_is_lossless(
        capacity in 8usize..48,
        draws in prop::collection::vec(drawn(), 0..120),
    ) {
        let rec = FlightRecorder::new(capacity);
        let mut expected = Vec::new();
        for (i, d) in draws.iter().enumerate() {
            let [recorded, read_back] = event(i as u64, d);
            rec.on_event(&recorded);
            expected.push(read_back);
        }
        let parsed = FlightDump::parse(&dump(&rec)).unwrap();
        let kept = draws.len().min(capacity);
        prop_assert_eq!(parsed.total, draws.len() as u64);
        prop_assert_eq!(text_of(&parsed.events), text_of(&expected[draws.len() - kept..]));
    }

    /// Flipping any single byte of a dump never parses: the CRC-64
    /// spans the whole body and is checked before any length is read.
    #[test]
    fn single_byte_corruption_is_never_silent(
        draws in prop::collection::vec(drawn(), 1..40),
        flip in any::<u64>(),
        mask in 1u64..256,
    ) {
        let rec = FlightRecorder::new(16);
        for (i, d) in draws.iter().enumerate() {
            rec.on_event(&event(i as u64, d)[0]);
        }
        let mut bad = dump(&rec);
        let at = (flip % bad.len() as u64) as usize;
        bad[at] ^= mask as u8;
        prop_assert!(FlightDump::parse(&bad).is_err(), "byte {} ^ {:#x} parsed", at, mask);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Writers on several threads, dumps taken while they run: every
    /// dump returns and parses, holds at most `capacity` events, and
    /// each event is whole (all its fields encode the same number) and
    /// after its writer's previous one.
    #[test]
    fn concurrent_writers_never_tear_an_event(
        capacity in 8usize..64,
        writers in 2u64..5,
    ) {
        let rec = FlightRecorder::new(capacity);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..2000u64 {
                            let v = w << 32 | i;
                            rec.on_event(&TelemetryEvent::Decision {
                                name: format!("w{w}").into(),
                                text: v.to_string().into(),
                                step: Some(v),
                                ts_us: v,
                            });
                        }
                    })
                })
                .collect();
            let dumper = s.spawn(|| {
                let mut dumps = 0;
                while !done.load(Ordering::Relaxed) || dumps == 0 {
                    let parsed = FlightDump::parse(&dump(&rec)).expect("dump parses");
                    assert!(parsed.events.len() <= capacity);
                    let mut last = vec![None; writers as usize];
                    for ev in parsed.events {
                        let TelemetryEvent::Decision { name, text, step, ts_us } = ev else {
                            panic!("not a decision: {ev:?}");
                        };
                        let w = ts_us >> 32;
                        assert_eq!((name.as_ref(), text.as_ref()), (format!("w{w}").as_str(), ts_us.to_string().as_str()));
                        assert_eq!(step, Some(ts_us));
                        let prev = last[w as usize].replace(ts_us);
                        assert!(prev < Some(ts_us), "writer {w}: {prev:?} then {ts_us}");
                    }
                    dumps += 1;
                }
            });
            for h in handles {
                h.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            dumper.join().unwrap();
        });
        prop_assert_eq!(rec.total(), writers * 2000);
    }
}
