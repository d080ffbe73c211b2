//! Property tests on the flight-recorder ring: for any capacity and
//! event stream, wraparound never tears an event, the drain order is
//! oldest-first by sequence number, and the binary dump/parse cycle is
//! lossless (ISSUE PR 8, satellite c).

use oppic_core::telemetry::{EventObserver, TelemetryEvent};
use oppic_obs::recorder::{EventKind, FlightDump, FlightRecorder};
use proptest::prelude::*;

/// Feed `n` counter events whose payload encodes their own index, so
/// any torn or reordered slot is detectable from the drained record.
fn fill(rec: &FlightRecorder, n: u64) {
    for i in 0..n {
        rec.on_event(&TelemetryEvent::Count {
            name: format!("ctr{}", i % 7).into(),
            delta: i,
            step: (i % 5 != 0).then_some(i / 5),
            ts_us: i * 3,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drained sequence numbers are exactly the newest
    /// `min(n, capacity)` in ascending order, and every record's
    /// payload matches the event that sequence number wrote.
    #[test]
    fn wraparound_drains_newest_window_oldest_first(
        capacity in 8usize..64,
        n in 0u64..300,
    ) {
        let rec = FlightRecorder::new(capacity);
        fill(&rec, n);
        prop_assert_eq!(rec.total(), n);
        prop_assert_eq!(rec.dropped(), n.saturating_sub(capacity as u64));

        let drained = rec.drain();
        let kept = n.min(capacity as u64);
        prop_assert_eq!(drained.len() as u64, kept);
        let expect_first = n - kept + 1;
        for (j, (seq, _)) in drained.iter().enumerate() {
            prop_assert_eq!(*seq, expect_first + j as u64);
        }
    }

    /// dump → parse round-trips the window: counts, strings, payloads,
    /// and ring bookkeeping all survive the binary format.
    #[test]
    fn dump_parse_roundtrip_is_lossless(
        capacity in 8usize..48,
        n in 1u64..200,
    ) {
        let rec = FlightRecorder::new(capacity);
        fill(&rec, n);
        let bytes = rec.dump(Vec::new()).unwrap();
        let dump = FlightDump::parse(&bytes).unwrap();

        prop_assert_eq!(dump.capacity, rec.capacity() as u64);
        prop_assert_eq!(dump.total, n);
        prop_assert_eq!(dump.dropped, rec.dropped());
        prop_assert_eq!(dump.records.len() as u64, n.min(capacity as u64));

        for r in &dump.records {
            let i = r.seq - 1; // fill() wrote event i as sequence i+1
            prop_assert_eq!(r.kind, EventKind::Count);
            prop_assert_eq!(r.value_bits, i);
            prop_assert_eq!(r.ts_us, i * 3);
            prop_assert_eq!(r.step, (i % 5 != 0).then_some(i / 5));
            let expect_name = format!("ctr{}", i % 7);
            prop_assert_eq!(r.name.as_deref(), Some(expect_name.as_str()));
            prop_assert!(r.severity.is_none());
        }
    }

    /// Flipping any single byte inside the dump can never yield a
    /// silently-wrong parse: either the parse fails (CRC, magic,
    /// version, kind, string id) or the mutation landed somewhere the
    /// format genuinely does not cover (it never does — the CRC spans
    /// the whole body — so a success must equal the original).
    #[test]
    fn single_byte_corruption_is_never_silent(
        n in 1u64..40,
        flip in any::<u64>(),
    ) {
        let rec = FlightRecorder::new(16);
        fill(&rec, n);
        let bytes = rec.dump(Vec::new()).unwrap();
        let original = FlightDump::parse(&bytes).unwrap();

        let mut bad = bytes.clone();
        let at = (flip % bad.len() as u64) as usize;
        bad[at] ^= 0x5a;
        match FlightDump::parse(&bad) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(parsed, original),
        }
    }
}
