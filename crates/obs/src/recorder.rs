//! Flight recorder: a fixed-size, lock-light ring buffer of recent
//! telemetry events, dumped to disk when something goes wrong.
//!
//! Writers claim a global sequence number with one `fetch_add` and
//! publish the event into `slots[(seq-1) % capacity]` under a seqlock
//! commit protocol: the slot's commit word is zeroed, the four payload
//! words are stored, and the sequence number is stored last with
//! release ordering. A drain accepts a slot only when the commit word
//! reads the exact sequence it expects *both before and after* the
//! payload loads, so a record being overwritten concurrently is
//! rejected rather than surfaced torn. The only lock on the write
//! path is the name-interning table, hit once per distinct string.
//!
//! Dumps use the CRC-64-footed `BinWriter` wire format from
//! `core::checkpoint` (magic `OPFR`, format version, totals, string
//! table, raw records) so a decoder can verify integrity even when
//! the dump was written mid-panic.

use oppic_core::checkpoint::{BinReader, BinWriter};
use oppic_core::telemetry::{AlertSeverity, EventObserver, TelemetryEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Dump format version (`OPFR` v1).
pub const DUMP_VERSION: u64 = 1;

/// Magic bytes opening a flight-recorder dump.
pub const DUMP_MAGIC: u64 = u64::from_le_bytes(*b"OPFR\0\0\0\0");

/// Default ring capacity (slots). At ~40 bytes per slot this is a
/// fixed ~650 KiB footprint.
pub const DEFAULT_CAPACITY: usize = 16384;

/// Sentinel string id for "no auxiliary string".
const NO_STR: u32 = u32::MAX;

/// Sentinel packed step for "outside any step".
const NO_STEP: u32 = u32::MAX;

/// Kind tag of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Span,
    Count,
    Decision,
    Step,
    Alert,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => EventKind::Span,
            2 => EventKind::Count,
            3 => EventKind::Decision,
            4 => EventKind::Step,
            5 => EventKind::Alert,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            EventKind::Span => 1,
            EventKind::Count => 2,
            EventKind::Decision => 3,
            EventKind::Step => 4,
            EventKind::Alert => 5,
        }
    }

    /// Stable lowercase label used when rendering a decoded dump.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Count => "count",
            EventKind::Decision => "decision",
            EventKind::Step => "step",
            EventKind::Alert => "alert",
        }
    }
}

/// One event packed into four u64 payload words:
///
/// ```text
/// w0: kind (bits 0..8) | severity (8..16) | step-or-NO_STEP (32..64)
/// w1: name string id (0..32) | aux string id (32..64)
/// w2: ts_us
/// w3: value (f64 bits for durations, raw u64 for counter deltas)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawEvent {
    w0: u64,
    w1: u64,
    w2: u64,
    w3: u64,
}

impl RawEvent {
    fn pack(
        kind: EventKind,
        severity: u8,
        step: Option<u64>,
        name: u32,
        aux: u32,
        ts_us: u64,
        value: u64,
    ) -> Self {
        let step = step.map_or(NO_STEP, |s| s.min((NO_STEP - 1) as u64) as u32);
        RawEvent {
            w0: kind.as_u8() as u64 | (severity as u64) << 8 | (step as u64) << 32,
            w1: name as u64 | (aux as u64) << 32,
            w2: ts_us,
            w3: value,
        }
    }
}

/// One ring slot: a seqlock commit word plus the payload words.
struct Slot {
    /// 0 = empty or mid-write; otherwise the 1-based sequence number
    /// of the committed event.
    commit: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    fn new() -> Self {
        Slot {
            commit: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The fixed-size event ring. Cheap to share (`Arc`); implements
/// [`EventObserver`] so it plugs straight into `Telemetry::set_observer`.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Total events ever claimed (the next event takes `head + 1`).
    head: AtomicU64,
    strings: Mutex<StringTable>,
}

#[derive(Default)]
struct StringTable {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            strings: Mutex::new(StringTable::default()),
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

    fn intern(&self, s: &str) -> u32 {
        let mut tab = self.strings.lock();
        if let Some(&id) = tab.ids.get(s) {
            return id;
        }
        let id = tab.names.len() as u32;
        tab.ids.insert(s.to_string(), id);
        tab.names.push(s.to_string());
        id
    }

    /// Record one pre-packed event: claim a sequence number, zero the
    /// slot's commit word, store the payload, commit.
    fn push(&self, ev: RawEvent) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[((seq - 1) % self.slots.len() as u64) as usize];
        slot.commit.store(0, Ordering::SeqCst);
        for (w, v) in slot.words.iter().zip([ev.w0, ev.w1, ev.w2, ev.w3]) {
            w.store(v, Ordering::Relaxed);
        }
        slot.commit.store(seq, Ordering::SeqCst);
    }

    /// Drain the committed contents, oldest first. Slots whose commit
    /// word does not match the expected sequence (empty, mid-write, or
    /// overwritten while we read) are skipped — never surfaced torn.
    pub fn drain(&self) -> Vec<(u64, RawRecord)> {
        let head = self.head.load(Ordering::SeqCst);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap) + 1;
        let mut out = Vec::with_capacity(head.saturating_sub(first.saturating_sub(1)) as usize);
        for seq in first..=head {
            if head == 0 {
                break;
            }
            let slot = &self.slots[((seq - 1) % cap) as usize];
            let c1 = slot.commit.load(Ordering::SeqCst);
            if c1 != seq {
                continue;
            }
            let words: [u64; 4] = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::SeqCst);
            let c2 = slot.commit.load(Ordering::SeqCst);
            if c2 != seq {
                continue;
            }
            out.push((
                seq,
                RawRecord {
                    w0: words[0],
                    w1: words[1],
                    w2: words[2],
                    w3: words[3],
                },
            ));
        }
        out
    }

    /// Serialize the current ring contents into the `OPFR` v1 binary
    /// dump format (CRC-64 footer included).
    pub fn dump<W: io::Write>(&self, w: W) -> io::Result<W> {
        let records = self.drain();
        let strings: Vec<String> = self.strings.lock().names.clone();
        let mut bw = BinWriter::new(w)?;
        bw.u64(DUMP_MAGIC)?;
        bw.u64(DUMP_VERSION)?;
        bw.u64(self.slots.len() as u64)?;
        bw.u64(self.total())?;
        bw.u64(self.dropped())?;
        bw.u64(strings.len() as u64)?;
        for s in &strings {
            bw.string(s)?;
        }
        bw.u64(records.len() as u64)?;
        for (seq, r) in &records {
            bw.u64(*seq)?;
            bw.u64(r.w0)?;
            bw.u64(r.w1)?;
            bw.u64(r.w2)?;
            bw.u64(r.w3)?;
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
        let raw = match ev {
            TelemetryEvent::SpanClose {
                name,
                path,
                ms,
                step,
                ts_us,
                ..
            } => RawEvent::pack(
                EventKind::Span,
                0,
                *step,
                self.intern(name),
                self.intern(path),
                *ts_us,
                ms.to_bits(),
            ),
            TelemetryEvent::Count {
                name,
                delta,
                step,
                ts_us,
            } => RawEvent::pack(
                EventKind::Count,
                0,
                *step,
                self.intern(name),
                NO_STR,
                *ts_us,
                *delta,
            ),
            TelemetryEvent::Decision {
                name,
                text,
                step,
                ts_us,
            } => RawEvent::pack(
                EventKind::Decision,
                0,
                *step,
                self.intern(name),
                self.intern(text),
                *ts_us,
                0,
            ),
            TelemetryEvent::StepEnd {
                step, ms, ts_us, ..
            } => RawEvent::pack(
                EventKind::Step,
                0,
                Some(*step),
                NO_STR,
                NO_STR,
                *ts_us,
                ms.to_bits(),
            ),
            TelemetryEvent::Alert {
                rule,
                severity,
                message,
                step,
                ts_us,
            } => RawEvent::pack(
                EventKind::Alert,
                match severity {
                    AlertSeverity::Warn => 1,
                    AlertSeverity::Critical => 2,
                },
                *step,
                self.intern(rule),
                self.intern(message),
                *ts_us,
                0,
            ),
        };
        self.push(raw);
    }
}

/// Raw payload words of one drained record (decoded into a
/// [`FlightRecord`] against the dump's string table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord {
    pub w0: u64,
    pub w1: u64,
    pub w2: u64,
    pub w3: u64,
}

/// One decoded flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    pub seq: u64,
    pub kind: EventKind,
    /// `None` for non-alert kinds.
    pub severity: Option<AlertSeverity>,
    pub step: Option<u64>,
    /// Span/counter/decision/alert-rule name (`None` for step events).
    pub name: Option<String>,
    /// Span path, decision text, or alert message.
    pub aux: Option<String>,
    pub ts_us: u64,
    /// f64 bits for span/step durations, raw delta for counters.
    pub value_bits: u64,
}

impl FlightRecord {
    fn decode(seq: u64, r: RawRecord, strings: &[String]) -> Result<Self, String> {
        let kind = EventKind::from_u8((r.w0 & 0xff) as u8)
            .ok_or_else(|| format!("record {seq}: unknown kind {}", r.w0 & 0xff))?;
        let sev = ((r.w0 >> 8) & 0xff) as u8;
        let step = ((r.w0 >> 32) & NO_STEP as u64) as u32;
        let name_id = (r.w1 & NO_STR as u64) as u32;
        let aux_id = ((r.w1 >> 32) & NO_STR as u64) as u32;
        let lookup = |id: u32| -> Result<Option<String>, String> {
            if id == NO_STR {
                return Ok(None);
            }
            strings
                .get(id as usize)
                .map(|s| Some(s.clone()))
                .ok_or_else(|| format!("record {seq}: string id {id} out of table range"))
        };
        Ok(FlightRecord {
            seq,
            kind,
            severity: match sev {
                0 => None,
                1 => Some(AlertSeverity::Warn),
                _ => Some(AlertSeverity::Critical),
            },
            step: (step != NO_STEP).then_some(step as u64),
            name: lookup(name_id)?,
            aux: lookup(aux_id)?,
            ts_us: r.w2,
            value_bits: r.w3,
        })
    }

    /// Duration in milliseconds for span/step records.
    pub fn ms(&self) -> Option<f64> {
        matches!(self.kind, EventKind::Span | EventKind::Step)
            .then(|| f64::from_bits(self.value_bits))
    }

    /// One human-readable line for `oppic-report --decode-recorder`.
    pub fn render(&self) -> String {
        let step = self
            .step
            .map_or_else(|| "    -".into(), |s| format!("{s:>5}"));
        let name = self.name.as_deref().unwrap_or("-");
        let detail = match self.kind {
            EventKind::Span => format!(
                "{name} [{}] {:.3} ms",
                self.aux.as_deref().unwrap_or(name),
                f64::from_bits(self.value_bits)
            ),
            EventKind::Count => format!("{name} += {}", self.value_bits),
            EventKind::Decision => {
                format!("{name}: {}", self.aux.as_deref().unwrap_or(""))
            }
            EventKind::Step => format!("step close {:.3} ms", f64::from_bits(self.value_bits)),
            EventKind::Alert => format!(
                "{} {name}: {}",
                self.severity.map_or("?", AlertSeverity::as_str),
                self.aux.as_deref().unwrap_or("")
            ),
        };
        format!(
            "#{:<8} {:>12}us step {step} {:<8} {detail}",
            self.seq,
            self.ts_us,
            self.kind.as_str()
        )
    }
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    pub version: u64,
    pub capacity: u64,
    pub total: u64,
    pub dropped: u64,
    pub strings: Vec<String>,
    pub records: Vec<FlightRecord>,
}

impl FlightDump {
    /// Parse and CRC-verify a dump produced by [`FlightRecorder::dump`].
    pub fn parse(bytes: &[u8]) -> Result<Self, String> {
        // Verify the integrity footer over the whole slice up front:
        // corrupted bytes must never reach the field parser, where a
        // damaged string-length prefix would otherwise drive a huge
        // allocation before the streaming CRC check got its turn.
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
        let magic = br.u64().map_err(|e| e.to_string())?;
        if magic != DUMP_MAGIC {
            return Err(format!("bad magic {magic:#018x}: not an OPFR dump"));
        }
        let version = br.u64().map_err(|e| e.to_string())?;
        if version != DUMP_VERSION {
            return Err(format!(
                "dump format v{version} is not supported (this decoder knows v{DUMP_VERSION})"
            ));
        }
        let capacity = br.u64().map_err(|e| e.to_string())?;
        let total = br.u64().map_err(|e| e.to_string())?;
        let dropped = br.u64().map_err(|e| e.to_string())?;
        let n_strings = br.u64().map_err(|e| e.to_string())?;
        let mut strings = Vec::with_capacity(n_strings.min(1 << 20) as usize);
        for _ in 0..n_strings {
            strings.push(br.string().map_err(|e| e.to_string())?);
        }
        let n_records = br.u64().map_err(|e| e.to_string())?;
        let mut records = Vec::with_capacity(n_records.min(1 << 24) as usize);
        for _ in 0..n_records {
            let seq = br.u64().map_err(|e| e.to_string())?;
            let raw = RawRecord {
                w0: br.u64().map_err(|e| e.to_string())?,
                w1: br.u64().map_err(|e| e.to_string())?,
                w2: br.u64().map_err(|e| e.to_string())?,
                w3: br.u64().map_err(|e| e.to_string())?,
            };
            records.push(FlightRecord::decode(seq, raw, &strings)?);
        }
        br.verify_footer().map_err(|e| e.to_string())?;
        Ok(FlightDump {
            version,
            capacity,
            total,
            dropped,
            strings,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn roundtrip_through_dump_and_parse() {
        let fr = FlightRecorder::new(64);
        fr.on_event(&span_ev("Move", 10));
        fr.on_event(&TelemetryEvent::Count {
            name: "moved".into(),
            delta: 7,
            step: Some(1),
            ts_us: 11,
        });
        fr.on_event(&TelemetryEvent::Alert {
            rule: "nan_rate".into(),
            severity: AlertSeverity::Critical,
            message: "3 quarantined".into(),
            step: None,
            ts_us: 12,
        });
        let bytes = fr.dump(Vec::new()).unwrap();
        let dump = FlightDump::parse(&bytes).unwrap();
        assert_eq!(dump.version, DUMP_VERSION);
        assert_eq!(dump.total, 3);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.records.len(), 3);
        let span = &dump.records[0];
        assert_eq!(span.kind, EventKind::Span);
        assert_eq!(span.name.as_deref(), Some("Move"));
        assert_eq!(span.ms(), Some(1.5));
        assert_eq!(span.step, Some(1));
        let count = &dump.records[1];
        assert_eq!(count.kind, EventKind::Count);
        assert_eq!(count.value_bits, 7);
        let alert = &dump.records[2];
        assert_eq!(alert.kind, EventKind::Alert);
        assert_eq!(alert.severity, Some(AlertSeverity::Critical));
        assert_eq!(alert.aux.as_deref(), Some("3 quarantined"));
        assert_eq!(alert.step, None);
        assert!(!alert.render().is_empty());
    }

    #[test]
    fn wraparound_keeps_newest_oldest_first() {
        let fr = FlightRecorder::new(8);
        for i in 0..20u64 {
            fr.on_event(&TelemetryEvent::Count {
                name: "c".into(),
                delta: i,
                step: None,
                ts_us: i,
            });
        }
        assert_eq!(fr.total(), 20);
        assert_eq!(fr.dropped(), 12);
        let drained = fr.drain();
        assert_eq!(drained.len(), 8);
        let seqs: Vec<u64> = drained.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
        // Payload sequence matches: event seq k carried delta k-1.
        for (seq, r) in &drained {
            assert_eq!(r.w3, seq - 1);
        }
    }

    #[test]
    fn corrupt_dump_is_rejected() {
        let fr = FlightRecorder::new(8);
        fr.on_event(&span_ev("Move", 1));
        let mut bytes = fr.dump(Vec::new()).unwrap();
        // Corrupt a payload byte in the record region (CRC mismatch),
        // then truncate the footer entirely.
        let i = bytes.len() - 20;
        bytes[i] ^= 0xff;
        assert!(FlightDump::parse(&bytes).is_err());
        bytes[i] ^= 0xff;
        let cut = bytes.len() - 4;
        assert!(FlightDump::parse(&bytes[..cut]).is_err());
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let fr = Arc::new(FlightRecorder::new(32));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..5000u64 {
                        // Writer t always stores delta == ts; a torn
                        // record would break that equality.
                        let v = t * 1_000_000 + i;
                        fr.on_event(&TelemetryEvent::Count {
                            name: "c".into(),
                            delta: v,
                            step: None,
                            ts_us: v,
                        });
                    }
                });
            }
            for _ in 0..50 {
                for (_, r) in fr.drain() {
                    assert_eq!(r.w2, r.w3, "torn record: ts {} vs value {}", r.w2, r.w3);
                }
            }
        });
        assert_eq!(fr.total(), 20000);
    }
}
