//! Flight recorder: a fixed-size ring of the hub's most recent
//! telemetry events, dumped to disk when something goes wrong.
//!
//! The ring keeps the events themselves, as owned copies of what the
//! hub publishes, so a dump holds exactly the records the JSONL stream
//! holds: each is written by [`TelemetryEvent::encode`] and read back
//! by [`Record::parse`].
//!
//! A writer claims a sequence number with one `fetch_add` and stores
//! its event, tagged with that number, in `slots[(seq-1) % capacity]`
//! under the slot's own lock. A slot keeps the newest sequence that
//! reaches it, so a writer overtaken by one a full lap later drops its
//! event. A drain only `try_lock`s: it skips a slot a writer holds, so
//! a dump never blocks (the panic hook takes one, possibly on a thread
//! stopped mid-write) and never returns a half-written event.
//!
//! Dumps use the CRC-64-footed `BinWriter` container from
//! `core::checkpoint`: magic `OPFR`, format version, capacity, total,
//! then the window's records as length-prefixed JSONL lines, oldest
//! first.

use oppic_core::checkpoint::{BinReader, BinWriter};
use oppic_core::telemetry::{EventObserver, Record, TelemetryEvent};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dump format version (`OPFR` v2: JSONL records).
pub const DUMP_VERSION: u64 = 2;

/// Magic bytes opening a flight-recorder dump.
pub const DUMP_MAGIC: u64 = u64::from_le_bytes(*b"OPFR\0\0\0\0");

/// Default ring capacity (slots); DESIGN.md §6b gives its footprint.
pub const DEFAULT_CAPACITY: usize = 16384;

/// One ring slot: the sequence number of the event it holds and the
/// event, or `None` while no event has reached it.
type Slot = Mutex<Option<(u64, TelemetryEvent<'static>)>>;

/// The fixed-size event ring. Cheap to share (`Arc`); implements
/// [`EventObserver`] so it plugs straight into `Telemetry::set_observer`.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Total events ever claimed (the next event takes `head + 1`).
    head: AtomicU64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity.max(8)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded since creation (including overwritten).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.total().saturating_sub(self.slots.len() as u64)
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[((seq - 1) % self.slots.len() as u64) as usize]
    }

    /// The window's records, oldest first: the newest
    /// `min(total, capacity)` events, less any slot a writer holds or
    /// has claimed but not yet filled.
    fn records(&self) -> Vec<String> {
        let head = self.head.load(Ordering::SeqCst);
        let first = head.saturating_sub(self.slots.len() as u64) + 1;
        (first..=head)
            .filter_map(|seq| match self.slot(seq).try_lock()?.as_ref() {
                Some((s, ev)) if *s == seq => Some(ev.encode()),
                _ => None,
            })
            .collect()
    }

    /// Serialize the current window into the `OPFR` dump format
    /// (CRC-64 footer included).
    pub fn dump<W: io::Write>(&self, w: W) -> io::Result<W> {
        let records = self.records();
        let mut bw = BinWriter::new(w)?;
        for word in [
            DUMP_MAGIC,
            DUMP_VERSION,
            self.slots.len() as u64,
            self.total(),
            records.len() as u64,
        ] {
            bw.u64(word)?;
        }
        for r in &records {
            bw.string(r)?;
        }
        bw.finish()
    }

    /// [`Self::dump`] straight to a file path.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.dump(io::BufWriter::new(file)).map(|_| ())
    }
}

impl EventObserver for FlightRecorder {
    fn on_event(&self, ev: &TelemetryEvent<'_>) {
        let ev = ev.clone().into_owned();
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.slot(seq).lock();
        if slot.as_ref().is_none_or(|(s, _)| *s < seq) {
            *slot = Some((seq, ev));
        }
    }
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    pub capacity: u64,
    /// Events recorded since the ring was made, overwritten ones
    /// included.
    pub total: u64,
    /// The ring's window, oldest first.
    pub events: Vec<TelemetryEvent<'static>>,
}

impl FlightDump {
    /// Events lost to ring wraparound before the dump.
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.capacity)
    }

    /// Parse and CRC-verify a dump produced by [`FlightRecorder::dump`].
    pub fn parse(bytes: &[u8]) -> Result<Self, String> {
        // Verify the integrity footer over the whole slice up front:
        // corrupted bytes must never reach the field parser, where a
        // damaged length prefix would otherwise drive a huge allocation
        // before the streaming CRC check got its turn.
        if bytes.len() < 16 {
            return Err(format!(
                "dump truncated: {} bytes, no room for a footer",
                bytes.len()
            ));
        }
        let (body, footer) = bytes.split_at(bytes.len() - 16);
        if &footer[..8] != b"OPPICEND" {
            return Err("dump truncated or corrupt: integrity footer missing".into());
        }
        let stored = u64::from_le_bytes(footer[8..].try_into().expect("8-byte crc"));
        let computed = oppic_core::checkpoint::crc64(body);
        if stored != computed {
            return Err(format!(
                "dump CRC mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ));
        }
        let mut br = BinReader::new(bytes).map_err(|e| e.to_string())?;
        let mut word = || br.u64().map_err(|e| e.to_string());
        let (magic, version, capacity, total, n) = (word()?, word()?, word()?, word()?, word()?);
        if magic != DUMP_MAGIC {
            return Err(format!("bad magic {magic:#018x}: not an OPFR dump"));
        }
        if version != DUMP_VERSION {
            return Err(format!(
                "dump format v{version} is not supported (this decoder knows v{DUMP_VERSION})"
            ));
        }
        let mut events = Vec::with_capacity(n.min(capacity) as usize);
        for i in 0..n {
            let line = br.string().map_err(|e| e.to_string())?;
            match Record::parse(&line) {
                Ok(Record::Event(ev)) => events.push(ev),
                Ok(_) => return Err(format!("record {i} is not an event: {line}")),
                Err(e) => return Err(format!("record {i}: {e}")),
            }
        }
        br.verify_footer().map_err(|e| e.to_string())?;
        Ok(FlightDump {
            capacity,
            total,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::telemetry::AlertSeverity;
    use std::sync::Arc;

    fn span_ev(name: &'static str, ts: u64) -> TelemetryEvent<'static> {
        TelemetryEvent::SpanClose {
            name: name.into(),
            path: name.into(),
            depth: 0,
            ms: 1.5,
            step: Some(1),
            ts_us: ts,
        }
    }

    fn parse(fr: &FlightRecorder) -> FlightDump {
        FlightDump::parse(&fr.dump(Vec::new()).unwrap()).unwrap()
    }

    #[test]
    fn roundtrip_through_dump_and_parse() {
        let fr = FlightRecorder::new(64);
        let events = [
            span_ev("Move", 10),
            TelemetryEvent::StepEnd {
                step: 1,
                ms: 2.25,
                ts_us: 11,
                gauges: vec![("alive".to_string(), 40.0)].into(),
                counters: vec![("move.moved".to_string(), 7)].into(),
            },
            TelemetryEvent::Alert {
                rule: "nan_rate".into(),
                severity: AlertSeverity::Critical,
                message: "3 quarantined".into(),
                step: None,
                ts_us: 12,
            },
        ];
        for ev in &events {
            fr.on_event(ev);
        }
        let dump = parse(&fr);
        assert_eq!((dump.capacity, dump.total, dump.dropped()), (64, 3, 0));
        assert_eq!(dump.events, events);
    }

    #[test]
    fn wraparound_keeps_newest_oldest_first() {
        let fr = FlightRecorder::new(8);
        for i in 0..20u64 {
            fr.on_event(&span_ev("Move", i));
        }
        assert_eq!(fr.total(), 20);
        assert_eq!(fr.dropped(), 12);
        let dump = parse(&fr);
        assert_eq!(
            dump.events,
            (12..20).map(|i| span_ev("Move", i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_dump_is_rejected() {
        let fr = FlightRecorder::new(8);
        fr.on_event(&span_ev("Move", 1));
        let mut bytes = fr.dump(Vec::new()).unwrap();
        // Corrupt a byte of the record (CRC mismatch), then truncate
        // the footer.
        let i = bytes.len() - 20;
        bytes[i] ^= 0xff;
        assert!(FlightDump::parse(&bytes).is_err());
        bytes[i] ^= 0xff;
        let cut = bytes.len() - 4;
        assert!(FlightDump::parse(&bytes[..cut]).is_err());
    }

    /// A slot locked by a writer stopped mid-write (a panicking thread)
    /// is left out of the dump; the dump does not wait for it.
    #[test]
    fn dump_skips_a_slot_held_mid_write() {
        let fr = FlightRecorder::new(8);
        for i in 0..3 {
            fr.on_event(&span_ev("Move", i));
        }
        let _held = fr.slots[1].lock();
        let dump = parse(&fr);
        assert_eq!(dump.total, 3);
        assert_eq!(dump.events, [span_ev("Move", 0), span_ev("Move", 2)]);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let fr = Arc::new(FlightRecorder::new(32));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..5000u64 {
                        // Every field encodes `v`; a torn record would
                        // break their agreement.
                        let v = t * 1_000_000 + i;
                        fr.on_event(&TelemetryEvent::Decision {
                            name: format!("w{v}").into(),
                            text: v.to_string().into(),
                            step: Some(v),
                            ts_us: v,
                        });
                    }
                });
            }
            for _ in 0..50 {
                for ev in parse(&fr).events {
                    let TelemetryEvent::Decision {
                        name,
                        text,
                        step,
                        ts_us,
                    } = ev
                    else {
                        panic!("not a decision: {ev:?}");
                    };
                    assert_eq!(name, format!("w{ts_us}"));
                    assert_eq!(text, ts_us.to_string());
                    assert_eq!(step, Some(ts_us));
                }
            }
        });
        assert_eq!(fr.total(), 20000);
    }
}
