//! Property-based tests on the telemetry subsystem: histogram
//! snapshot merging forms a commutative monoid (the distributed
//! drivers rely on merge order not mattering), and the span stack
//! stays balanced under arbitrary nesting, drop orders, and
//! panic-unwind.

use oppic_core::{Histogram, HistogramSnapshot, Telemetry};
use proptest::prelude::*;
use std::sync::Arc;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), and merging equals recording the
    /// concatenated stream into one histogram.
    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..50),
        b in prop::collection::vec(0u64..1_000_000, 0..50),
        c in prop::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);

        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = snapshot_of(&all);
        prop_assert_eq!(&left, &direct);
        prop_assert_eq!(left.count, all.len() as u64);
        prop_assert_eq!(left.sum, all.iter().sum::<u64>());
    }

    /// Merge is commutative and the empty snapshot is its identity.
    #[test]
    fn histogram_merge_commutes_with_identity(
        a in prop::collection::vec(0u64..1_000_000, 0..50),
        b in prop::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        let mut with_empty = sa.clone();
        with_empty.merge(&HistogramSnapshot::default());
        prop_assert_eq!(&with_empty, &sa);
    }

    /// Whatever order span guards are dropped in — nested scopes,
    /// out-of-order explicit drops, interleaved re-opens — the stack
    /// is balanced once they are all gone, and every opened span
    /// records exactly one kernel call.
    #[test]
    fn span_stack_balances_under_any_drop_order(
        script in prop::collection::vec((any::<bool>(), any::<u32>()), 1..40),
    ) {
        let tel = Arc::new(Telemetry::new());
        let mut open = Vec::new();
        let mut opened = 0u64;
        for (push, pick) in script {
            if push || open.is_empty() {
                open.push(tel.span(format!("k{}", opened % 5).as_str()));
                opened += 1;
            } else {
                // Dropping a non-top guard truncates the stack down to
                // its depth; the stranded inner guards become no-ops.
                let i = pick as usize % open.len();
                open.remove(i);
            }
        }
        drop(open);
        prop_assert_eq!(tel.open_spans(), 0);
        let calls: u64 = tel
            .kernels_snapshot()
            .iter()
            .map(|(_, k)| k.calls)
            .sum();
        prop_assert_eq!(calls, opened);
    }

    /// A panic in a nested span scope unwinds through the guards and
    /// leaves the stack balanced (the structural guarantee behind the
    /// run-footer's `open_spans: 0` invariant).
    #[test]
    fn span_stack_survives_panic_unwind(
        depth in 1usize..8,
        panic_at in 0usize..8,
    ) {
        let tel = Arc::new(Telemetry::new());
        let panic_at = panic_at % depth;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fn descend(tel: &Arc<Telemetry>, level: usize, depth: usize, panic_at: usize) {
                if level == depth {
                    return;
                }
                let _s = tel.span(&format!("level{level}"));
                assert_ne!(level, panic_at, "scripted panic");
                descend(tel, level + 1, depth, panic_at);
            }
            descend(&tel, 0, depth, panic_at);
        }));
        prop_assert!(result.is_err(), "the scripted panic must fire");
        prop_assert_eq!(tel.open_spans(), 0);
        // The spans that did open were recorded on unwind.
        let calls: u64 = tel
            .kernels_snapshot()
            .iter()
            .map(|(_, k)| k.calls)
            .sum();
        prop_assert_eq!(calls, (panic_at + 1) as u64);
    }
}

// ---------------------------------------------------------------------
// The record codec: every record the hub writes reads back unchanged.
// ---------------------------------------------------------------------

use oppic_core::telemetry::{AlertSeverity, Record, RunFooter, RunHeader, TelemetryEvent};
use oppic_core::{KernelClass, KernelStats, RunInfo};

/// Characters the encoder must escape or pass through: quotes,
/// backslashes, the span-path separator, control and non-ASCII text.
const ALPHABET: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '>', '/', 'é', '漢', '🦀', '\n', '\t', '\u{1}',
];

fn text(idx: &[usize]) -> String {
    idx.iter().map(|&i| ALPHABET[i]).collect()
}

fn text_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..ALPHABET.len(), 0..10)
}

/// A finite f64 spanning many magnitudes, from `(mantissa, exponent)`.
fn magnitude((m, e): (f64, i32)) -> f64 {
    m * 10f64.powi(e)
}

/// JSON numbers are f64: integers stay exact below 2^53.
const EXACT: u64 = 1 << 53;

/// A drawn kernel row: name, calls, seconds, class index (7 = none).
type KernelRow = (Vec<usize>, u64, (f64, i32), usize);

fn kernels(rows: &[KernelRow]) -> Vec<(String, KernelStats)> {
    rows.iter()
        .map(|(name, n, secs, class)| {
            let stats = KernelStats {
                calls: *n,
                seconds: magnitude(*secs),
                bytes: n / 3,
                flops: n / 7,
                class: KernelClass::ALL.get(*class).copied(),
            };
            (text(name), stats)
        })
        .collect()
}

fn round_trip(line: &str) -> Record {
    assert!(!line.contains('\n'), "one record per line: {line:?}");
    Record::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Span, decision, step and alert events encode to one line that
    /// parses back to the same event.
    #[test]
    fn every_event_kind_round_trips(
        texts in (text_strategy(), text_strategy()),
        clock in (0..EXACT, 0..EXACT, any::<bool>()),
        shape in ((0.0f64..1.0, -12i32..12), 0usize..8, any::<bool>()),
        gauges in prop::collection::vec((text_strategy(), (-1.0f64..1.0, -30i32..30), 0usize..6), 0..5),
        counters in prop::collection::vec((text_strategy(), 0..EXACT), 0..5),
    ) {
        let ((name, body), (ts_us, step_no, in_step), (ms, depth, critical)) = (texts, clock, shape);
        let (name, body, ms) = (text(&name), text(&body), magnitude(ms));
        let step = in_step.then_some(step_no);
        let severity = if critical { AlertSeverity::Critical } else { AlertSeverity::Warn };
        let events = [
            TelemetryEvent::SpanClose {
                name: name.clone().into(), path: body.clone().into(), depth, ms, step, ts_us,
            },
            TelemetryEvent::Decision { name: name.clone().into(), text: body.clone().into(), step, ts_us },
            TelemetryEvent::Alert {
                rule: name.clone().into(), severity, message: body.clone().into(), step, ts_us,
            },
        ];
        for ev in events {
            prop_assert_eq!(round_trip(&ev.encode()), Record::Event(ev));
        }

        // Gauges take every f64 class. A non-finite one is written as
        // `null` and reads back as NaN; NaN != NaN, so this record is
        // compared through its `Debug` text, where NaN reads "NaN".
        let gauge = |(n, v, kind): &(Vec<usize>, (f64, i32), usize), null: f64| {
            let v = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => magnitude(*v),
            };
            (text(n), if v.is_finite() { v } else { null })
        };
        let step_end = |null| TelemetryEvent::StepEnd {
            step: step_no,
            ms,
            ts_us,
            gauges: gauges.iter().map(|g| gauge(g, null)).collect::<Vec<_>>().into(),
            counters: counters.iter().map(|(n, v)| (text(n), *v)).collect::<Vec<_>>().into(),
        };
        let written = step_end(f64::INFINITY).encode();
        prop_assert_eq!(
            format!("{:?}", round_trip(&written)),
            format!("{:?}", Record::Event(step_end(f64::NAN)))
        );
    }

    /// The run header and footer read back field for field: extras in
    /// order, kernel rows with or without a class, and histograms
    /// (an empty one keeps its `u64::MAX` min).
    #[test]
    fn header_and_footer_round_trip(
        run in (text_strategy(), text_strategy(), 0usize..512),
        extra in prop::collection::vec((text_strategy(), text_strategy()), 0..4),
        rows in prop::collection::vec((text_strategy(), 0..EXACT, (0.0f64..1.0, -9i32..4), 0usize..8), 0..5),
        tallies in (0..EXACT, (0.0f64..1.0, -3i32..9), 0..EXACT, 0..EXACT),
        counters in prop::collection::vec((text_strategy(), 0..EXACT), 0..5),
        hists in prop::collection::vec((text_strategy(), prop::collection::vec(0u64..1 << 40, 0..20)), 0..4),
    ) {
        let ((app, hash, threads), (open_spans, total, events, dropped)) = (run, tallies);
        let header = RunHeader {
            build: "release".into(),
            info: RunInfo {
                app: text(&app),
                config_hash: text(&hash),
                threads,
                // Prefixed so no extra takes a fixed header key's name.
                extra: extra.iter().map(|(k, v)| (format!("x_{}", text(k)), text(v))).collect(),
            },
            kernels: kernels(&rows),
        };
        prop_assert_eq!(round_trip(&header.encode()), Record::Header(header.clone()));

        let footer = RunFooter {
            open_spans,
            total_ms: magnitude(total),
            events,
            traces_dropped: dropped,
            kernels: kernels(&rows),
            counters: counters.iter().map(|(n, v)| (text(n), *v)).collect(),
            histograms: hists
                .iter()
                .map(|(n, values)| {
                    let mut h = HistogramSnapshot::default();
                    values.iter().for_each(|&v| h.record(v));
                    (text(n), h)
                })
                .collect(),
        };
        prop_assert_eq!(round_trip(&footer.encode()), Record::Footer(footer.clone()));
    }
}

#[test]
fn lines_that_break_the_format_are_refused() {
    for line in [
        // Torn mid-write.
        r#"{"type":"span","step":3,"name":"Mo"#,
        // An event record without its `ts`.
        r#"{"type":"span","name":"A","path":"A","depth":0,"ms":1.0}"#,
        r#"{"type":"step","step":1,"ms":1.0,"gauges":{},"counters":{}}"#,
        // A record type no writer emits.
        r#"{"type":"checkpoint","ts":1}"#,
        r#"{"type":"alert","ts":1,"rule":"r","severity":"fatal","message":""}"#,
    ] {
        assert!(Record::parse(line).is_err(), "{line}");
    }
}
