//! Structured runtime telemetry — the measurement layer behind the
//! paper's evaluation ("OP-PIC code instrumentation", Section 4.1.2).
//!
//! The paper's per-kernel runtime breakdowns (Fig. 9) and roofline
//! points (Figs. 10–11) come from instrumenting every DSL loop. This
//! module is that instrumentation, in three coordinated pieces:
//!
//! * **Spans** — nestable timed scopes (`step > Move`,
//!   `step > DepositCharge`), the one way to time a kernel. A [`Span`]
//!   guard records into the per-kernel aggregate on drop and emits one
//!   JSONL event per close, so the kernel table, the event stream and
//!   `/metrics` read the same numbers.
//!   Balance is structural: the guard truncates the span stack back to
//!   its own depth, so panic-unwind and leaked inner guards cannot
//!   desynchronise it.
//! * **Counters and histograms** — monotonic event counts (particles
//!   moved/removed/injected, hole-fill swaps, CSR rebuilds, auto-tuner
//!   decisions) and log₂-bucketed distributions (move hops per
//!   particle, cell segment lengths). [`Histogram`] uses atomic buckets
//!   so parallel loop bodies can record without locks, and snapshots
//!   merge associatively (property-tested).
//! * **Events** — every span close, decision trace, step summary and
//!   alert is built once as a [`TelemetryEvent`] and handed to one
//!   publish path, which writes it to the optional JSON Lines sink
//!   (`--telemetry out.jsonl`) and passes it to the live
//!   [`EventObserver`]: the stream and the observer see the same events.
//!   The sink brackets them with a run-header record (config hash, build
//!   profile, thread count) and a run-footer with final aggregates. The
//!   record format has one home, [`codec`]: its encoders write every
//!   line and [`Record::parse`] reads them back for the report and the
//!   timeline. The end-of-run human table is
//!   [`Telemetry::breakdown_table`].
//!
//! The DSL executors (`parloop`, `move_engine`, `deposit`, `particles`)
//! publish counters through a scoped thread-local handle
//! ([`Telemetry::make_current`] / [`current`]): an application step
//! installs its telemetry for the duration of the step and the
//! executors pick it up without signature changes. When no telemetry is
//! current the hooks cost one thread-local read and a branch — not
//! measurable in the criterion deposit bench.
//!
//! Each app owns its hub through a [`Profiler`] handle, whose only
//! method is [`Profiler::telemetry`].

use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod codec;
pub use codec::{Record, RunFooter, RunHeader};

/// Event-stream schema version, carried in the run-header record.
pub const SCHEMA_VERSION: u64 = 1;

/// Default cap on retained decision traces: the log stays bounded
/// over a long run.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Sentinel for "not inside a step".
const NO_STEP: u64 = u64::MAX;

/// Bits of [`Telemetry::consumers`]: a JSONL sink is open, a live
/// observer is attached.
const SINK: u8 = 1;
const OBSERVER: u8 = 2;

/// Broad classification of a kernel, used to group the breakdown plots
/// the way the paper does (field solve vs particle work vs comm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    FieldSolve,
    WeightFields,
    Move,
    Deposit,
    Inject,
    Comm,
    Other,
}

impl KernelClass {
    /// Every class, in declaration order.
    pub const ALL: [KernelClass; 7] = [
        KernelClass::FieldSolve,
        KernelClass::WeightFields,
        KernelClass::Move,
        KernelClass::Deposit,
        KernelClass::Inject,
        KernelClass::Comm,
        KernelClass::Other,
    ];

    /// Stable string form used in the JSONL footer / report CSV.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelClass::FieldSolve => "FieldSolve",
            KernelClass::WeightFields => "WeightFields",
            KernelClass::Move => "Move",
            KernelClass::Deposit => "Deposit",
            KernelClass::Inject => "Inject",
            KernelClass::Comm => "Comm",
            KernelClass::Other => "Other",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// Accumulated statistics for one kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    pub calls: u64,
    pub seconds: f64,
    pub bytes: u64,
    pub flops: u64,
    pub class: Option<KernelClass>,
}

impl KernelStats {
    /// Arithmetic intensity in FLOP/byte (None with no byte count).
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.flops as f64 / self.bytes as f64)
    }

    /// Achieved GFLOP/s (None without timing or flops).
    pub fn gflops(&self) -> Option<f64> {
        (self.seconds > 0.0 && self.flops > 0).then(|| self.flops as f64 / self.seconds / 1e9)
    }

    /// Achieved GB/s.
    pub fn gbytes_per_s(&self) -> Option<f64> {
        (self.seconds > 0.0 && self.bytes > 0).then(|| self.bytes as f64 / self.seconds / 1e9)
    }
}

/// The paper-style kernel table: one row per kernel (class, calls,
/// seconds, share of the rows' total, achieved GB/s and GFLOP/s) and a
/// TOTAL line. Both the hub's end-of-run breakdown and `oppic-report`
/// render their kernels through it, so one run prints one table. The
/// name column is as wide as the longest name, so every row aligns.
pub fn kernel_table(rows: &[(String, KernelStats)]) -> String {
    let total = rows.iter().map(|(_, k)| k.seconds).sum::<f64>().max(1e-30);
    let w = rows
        .iter()
        .map(|(name, _)| name.chars().count())
        .fold("kernel".len(), usize::max);
    let rate = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.2}"));
    let mut s = format!(
        "{:<w$} {:>12} {:>8} {:>12} {:>7} {:>12} {:>12}\n",
        "kernel", "class", "calls", "seconds", "%", "GB/s", "GFLOP/s"
    );
    for (name, k) in rows {
        let _ = writeln!(
            s,
            "{:<w$} {:>12} {:>8} {:>12.4} {:>6.1}% {:>12} {:>12}",
            name,
            k.class.map_or("-", KernelClass::as_str),
            k.calls,
            k.seconds,
            100.0 * k.seconds / total,
            rate(k.gbytes_per_s()),
            rate(k.gflops()),
        );
    }
    let _ = writeln!(s, "{:<w$} {:>12} {:>8} {:>12.4}", "TOTAL", "", "", total);
    s
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Number of log₂ buckets: bucket 0 holds value 0, bucket k holds
/// values in [2^(k-1), 2^k), and the last bucket absorbs everything
/// ≥ 2^31.
pub const HIST_BUCKETS: usize = 33;

/// Lock-free log₂ histogram. Recording is a relaxed atomic increment so
/// parallel loop bodies (hop chains on rayon workers) can share one via
/// `Arc` without coordination.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Publish a locally accumulated snapshot in one go: the same end
    /// state as [`Histogram::record`]ing each of its values, for a
    /// handful of atomic operations instead of five per value. Hot
    /// loops fill a [`HistogramSnapshot`] per piece and merge it once.
    pub fn merge_snapshot(&self, s: &HistogramSnapshot) {
        if s.is_empty() {
            return;
        }
        for (b, &n) in self.buckets.iter().zip(s.buckets.iter()) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
        self.min.fetch_min(s.min, Ordering::Relaxed);
        self.max.fetch_max(s.max, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Owned, mergeable view of a [`Histogram`]. Merging is elementwise
/// integer addition plus min/max folds — associative and commutative by
/// construction (property-tested in `proptest_telemetry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Record one value — the single-owner twin of
    /// [`Histogram::record`].
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `v` `k` times: the same snapshot as `k` calls of
    /// [`HistogramSnapshot::record`] (bulk tallies, e.g. the move
    /// engine's first-visit finishers).
    pub fn record_n(&mut self, v: u64, k: u64) {
        if k == 0 {
            return;
        }
        self.buckets[Histogram::bucket_of(v)] += k;
        self.count += k;
        self.sum += v * k;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket where the cumulative count first
    /// reaches `q · count` — a coarse quantile estimate. Edges are
    /// pinned: an empty snapshot has no quantiles, `q ≤ 0` (and NaN)
    /// is the recorded minimum, `q ≥ 1` the recorded maximum, and
    /// every interior result is clamped into `[min, max]` so a sparse
    /// snapshot can never report a value outside the observed range.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q.is_nan() || q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                let hi = if i == 0 { 0 } else { 1u64 << i };
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

// ---------------------------------------------------------------------
// Telemetry core
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counter {
    total: u64,
    /// Value of `total` at the last `end_step` — per-step deltas are
    /// `total - mark`, so a bump between two steps lands in the next.
    mark: u64,
}

struct TraceBuf {
    buf: VecDeque<(String, String)>,
    cap: usize,
    dropped: u64,
}

impl Default for TraceBuf {
    fn default() -> Self {
        Self {
            buf: VecDeque::new(),
            cap: DEFAULT_TRACE_CAP,
            dropped: 0,
        }
    }
}

#[derive(Default)]
struct State {
    /// Kernel-name interning: name → id; `names[id]` / `kernels[id]`.
    ids: HashMap<String, u32>,
    names: Vec<String>,
    kernels: Vec<KernelStats>,
    counters: HashMap<String, Counter>,
    hists: HashMap<String, Arc<Histogram>>,
    traces: TraceBuf,
}

struct Frame {
    /// Kernel id; `None` for the synthetic per-step root frame.
    id: Option<u32>,
    path: String,
    start: Instant,
}

/// Severity attached to alert events (watchdog rule trips, recovery
/// rollbacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertSeverity {
    Warn,
    Critical,
}

impl AlertSeverity {
    /// Stable string form used in the JSONL `alert` record.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertSeverity::Warn => "warn",
            AlertSeverity::Critical => "critical",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "warn" => AlertSeverity::Warn,
            "critical" => AlertSeverity::Critical,
            _ => return None,
        })
    }
}

/// A telemetry event, published at the moment it happens: to the
/// attached [`EventObserver`], and as one JSONL record
/// ([`TelemetryEvent::encode`]) to the open sink. The hub publishes
/// borrowed payloads, so the hot path allocates nothing; an observer
/// that retains an event keeps [`TelemetryEvent::into_owned`], as the
/// flight recorder does. [`Record::parse`] reads a record back as the
/// same event with owned payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent<'a> {
    /// A span (timed scope) closed.
    SpanClose {
        name: Cow<'a, str>,
        path: Cow<'a, str>,
        depth: usize,
        ms: f64,
        step: Option<u64>,
        ts_us: u64,
    },
    /// A decision trace line was recorded.
    Decision {
        name: Cow<'a, str>,
        text: Cow<'a, str>,
        step: Option<u64>,
        ts_us: u64,
    },
    /// A simulation step closed, with its gauges (instantaneous level
    /// readings) and the counters that moved during it, by name.
    StepEnd {
        step: u64,
        ms: f64,
        ts_us: u64,
        gauges: Cow<'a, [(String, f64)]>,
        counters: Cow<'a, [(String, u64)]>,
    },
    /// A structured alert was raised via [`Telemetry::alert`].
    Alert {
        rule: Cow<'a, str>,
        severity: AlertSeverity,
        message: Cow<'a, str>,
        step: Option<u64>,
        ts_us: u64,
    },
}

impl TelemetryEvent<'_> {
    /// The same event with owned payloads, for an observer that keeps
    /// it past the publish call.
    pub fn into_owned(self) -> TelemetryEvent<'static> {
        use TelemetryEvent as E;
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            E::SpanClose {
                name,
                path,
                depth,
                ms,
                step,
                ts_us,
            } => E::SpanClose {
                name: own(name),
                path: own(path),
                depth,
                ms,
                step,
                ts_us,
            },
            E::Decision {
                name,
                text,
                step,
                ts_us,
            } => E::Decision {
                name: own(name),
                text: own(text),
                step,
                ts_us,
            },
            E::StepEnd {
                step,
                ms,
                ts_us,
                gauges,
                counters,
            } => E::StepEnd {
                step,
                ms,
                ts_us,
                gauges: Cow::Owned(gauges.into_owned()),
                counters: Cow::Owned(counters.into_owned()),
            },
            E::Alert {
                rule,
                severity,
                message,
                step,
                ts_us,
            } => E::Alert {
                rule: own(rule),
                severity,
                message: own(message),
                step,
                ts_us,
            },
        }
    }
}

/// Subscriber for the live event stream (the observability plane's
/// flight recorder): it receives exactly the events the stream
/// records. At most one observer is attached per hub; with neither an
/// observer nor a sink, a publish site costs one relaxed atomic load.
pub trait EventObserver: Send + Sync {
    fn on_event(&self, ev: &TelemetryEvent<'_>);
}

/// The telemetry hub. Thread-safe; applications own one through a
/// [`Profiler`] and share it by `Arc`.
pub struct Telemetry {
    state: Mutex<State>,
    spans: Mutex<Vec<Frame>>,
    sink: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
    observer: Mutex<Option<Arc<dyn EventObserver>>>,
    /// [`SINK`] | [`OBSERVER`]: the one gate every publish site checks
    /// before it builds an event.
    consumers: AtomicU8,
    /// Zero point of the `ts` microsecond clock on every event.
    origin: Instant,
    step: AtomicU64,
    events_written: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self {
            state: Mutex::new(State::default()),
            spans: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
            observer: Mutex::new(None),
            consumers: AtomicU8::new(0),
            origin: Instant::now(),
            step: AtomicU64::new(NO_STEP),
            events_written: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Telemetry")
            .field("kernels", &st.kernels.len())
            .field("counters", &st.counters.len())
            .field("histograms", &st.hists.len())
            .field("open_spans", &self.spans.lock().len())
            .field(
                "sink",
                &(self.consumers.load(Ordering::Relaxed) & SINK != 0),
            )
            .finish()
    }
}

/// Metadata for the run-header record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunInfo {
    pub app: String,
    pub config_hash: String,
    pub threads: usize,
    /// Extra `key: value` string fields appended to the header.
    pub extra: Vec<(String, String)>,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    // -- kernel aggregation -------------------------------------------

    /// Attach data-movement / FLOP counts (accumulating).
    pub fn add_traffic(&self, name: &str, bytes: u64, flops: u64) {
        let mut st = self.state.lock();
        let id = intern_locked(&mut st, name);
        let k = &mut st.kernels[id as usize];
        k.bytes += bytes;
        k.flops += flops;
    }

    /// Tag a kernel with its class (idempotent).
    pub fn classify(&self, name: &str, class: KernelClass) {
        let mut st = self.state.lock();
        let id = intern_locked(&mut st, name);
        st.kernels[id as usize].class = Some(class);
    }

    /// Snapshot of one kernel's stats.
    pub fn get(&self, name: &str) -> Option<KernelStats> {
        let st = self.state.lock();
        st.ids.get(name).map(|&id| st.kernels[id as usize].clone())
    }

    /// Snapshot of every kernel, sorted by descending time.
    pub fn kernels_snapshot(&self) -> Vec<(String, KernelStats)> {
        let st = self.state.lock();
        let mut v: Vec<(String, KernelStats)> = st
            .names
            .iter()
            .zip(st.kernels.iter())
            .map(|(n, k)| (n.clone(), k.clone()))
            .collect();
        v.sort_by(|a, b| b.1.seconds.partial_cmp(&a.1.seconds).unwrap());
        v
    }

    /// Total recorded kernel seconds.
    pub fn total_seconds(&self) -> f64 {
        self.state.lock().kernels.iter().map(|k| k.seconds).sum()
    }

    // -- spans --------------------------------------------------------

    /// Open a nested timed scope. The returned guard records into the
    /// kernel aggregate and emits a span event when dropped.
    pub fn span(self: &Arc<Self>, name: &str) -> Span {
        let id = intern_locked(&mut self.state.lock(), name);
        let mut spans = self.spans.lock();
        let path = match spans.last() {
            Some(parent) => format!("{}>{}", parent.path, name),
            None => name.to_string(),
        };
        let depth = spans.len();
        spans.push(Frame {
            id: Some(id),
            path,
            start: Instant::now(),
        });
        Span {
            tel: self.clone(),
            depth,
        }
    }

    /// [`Self::span`] plus a class tag on the kernel.
    pub fn span_class(self: &Arc<Self>, name: &str, class: KernelClass) -> Span {
        self.classify(name, class);
        self.span(name)
    }

    /// Number of spans currently open (0 when balanced).
    pub fn open_spans(&self) -> usize {
        self.spans.lock().len()
    }

    /// Truncate the span stack to `depth`, recording every popped
    /// kernel frame. Deepest frames close first.
    fn close_to_depth(&self, depth: usize) {
        let popped: Vec<(Option<u32>, String, Duration)> = {
            let mut spans = self.spans.lock();
            if spans.len() <= depth {
                return;
            }
            spans
                .drain(depth..)
                .map(|f| (f.id, f.path, f.start.elapsed()))
                .collect()
        };
        for (id, path, dur) in popped.into_iter().rev() {
            if let Some(id) = id {
                {
                    let mut st = self.state.lock();
                    let k = &mut st.kernels[id as usize];
                    k.calls += 1;
                    k.seconds += dur.as_secs_f64();
                }
                if self.consumers.load(Ordering::Relaxed) != 0 {
                    self.publish(&TelemetryEvent::SpanClose {
                        name: path.rsplit('>').next().unwrap_or(&path).into(),
                        path: path.as_str().into(),
                        depth: path.matches('>').count(),
                        ms: dur.as_secs_f64() * 1e3,
                        step: self.current_step(),
                        ts_us: self.ts_us(),
                    });
                }
            }
        }
    }

    // -- counters / histograms ---------------------------------------

    /// Add `n` to a monotonic counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        {
            let mut st = self.state.lock();
            match st.counters.get_mut(name) {
                Some(c) => c.total += n,
                None => {
                    st.counters
                        .insert(name.to_string(), Counter { total: n, mark: 0 });
                }
            }
        }
    }

    /// Current total of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.state.lock().counters.get(name).map_or(0, |c| c.total)
    }

    /// All counters and totals, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let st = self.state.lock();
        let mut v: Vec<(String, u64)> = st
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.total))
            .collect();
        v.sort();
        v
    }

    /// Shared handle to a named histogram (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut st = self.state.lock();
        match st.hists.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                st.hists.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Record one value into a named histogram.
    pub fn hist_record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Snapshots of all histograms, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let st = self.state.lock();
        let mut v: Vec<(String, HistogramSnapshot)> = st
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    // -- decision traces (capped; satellite 1) ------------------------

    /// Record a one-line decision trace (e.g. the deposit auto-tuner's
    /// per-loop strategy choice). The buffer is capped; the oldest
    /// entries are dropped and counted. Also published as a
    /// [`TelemetryEvent::Decision`].
    pub fn trace(&self, name: &str, line: impl Into<String>) {
        let line = line.into();
        {
            let mut st = self.state.lock();
            let tb = &mut st.traces;
            if tb.buf.len() >= tb.cap {
                tb.buf.pop_front();
                tb.dropped += 1;
            }
            tb.buf.push_back((name.to_string(), line.clone()));
        }
        self.publish(&TelemetryEvent::Decision {
            name: name.into(),
            text: line.into(),
            step: self.current_step(),
            ts_us: self.ts_us(),
        });
    }

    /// All retained decision traces in emission order.
    pub fn traces(&self) -> Vec<(String, String)> {
        self.state.lock().traces.buf.iter().cloned().collect()
    }

    /// Number of traces dropped to honour the cap.
    pub fn traces_dropped(&self) -> u64 {
        self.state.lock().traces.dropped
    }

    /// Change the trace retention cap (existing overflow is dropped).
    pub fn set_trace_cap(&self, cap: usize) {
        let mut st = self.state.lock();
        let tb = &mut st.traces;
        tb.cap = cap.max(1);
        while tb.buf.len() > tb.cap {
            tb.buf.pop_front();
            tb.dropped += 1;
        }
    }

    // -- step lifecycle ----------------------------------------------

    /// Mark the start of simulation step `step`: open the root `step`
    /// span frame. Counter marks are left where the last `end_step`
    /// put them, so whatever was counted since then — set-up before
    /// the first step, a rollback between two steps — is part of this
    /// step's deltas.
    pub fn begin_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
        self.spans.lock().push(Frame {
            id: None,
            path: "step".to_string(),
            start: Instant::now(),
        });
    }

    /// Close the current step: any kernel spans still open inside it
    /// are closed, counter deltas since the last `end_step` are
    /// computed, and
    /// one [`TelemetryEvent::StepEnd`] is published. `gauges` are
    /// instantaneous level readings (e.g. `("alive", n_particles)`).
    pub fn end_step(&self, gauges: &[(&str, f64)]) {
        let root = {
            let spans = self.spans.lock();
            spans.iter().rposition(|f| f.id.is_none())
        };
        let Some(root_depth) = root else {
            self.step.store(NO_STEP, Ordering::Relaxed);
            return;
        };
        // Close children of the root, then pop the root itself.
        self.close_to_depth(root_depth + 1);
        let ms = {
            let mut spans = self.spans.lock();
            let f = spans.pop().expect("root frame present");
            f.start.elapsed().as_secs_f64() * 1e3
        };
        let step = self.step.load(Ordering::Relaxed);
        let deltas: Vec<(String, u64)> = {
            let mut st = self.state.lock();
            let mut v: Vec<(String, u64)> = st
                .counters
                .iter_mut()
                .filter_map(|(k, c)| {
                    let d = c.total - c.mark;
                    c.mark = c.total;
                    (d > 0).then(|| (k.clone(), d))
                })
                .collect();
            v.sort();
            v
        };
        if self.consumers.load(Ordering::Relaxed) != 0 {
            let gauges: Vec<(String, f64)> = gauges.iter().map(|&(k, v)| (k.into(), v)).collect();
            self.publish(&TelemetryEvent::StepEnd {
                step,
                ms,
                ts_us: self.ts_us(),
                gauges: gauges.into(),
                counters: deltas.into(),
            });
        }
        self.step.store(NO_STEP, Ordering::Relaxed);
    }

    /// Current step index (None outside `begin_step`/`end_step`).
    pub fn current_step(&self) -> Option<u64> {
        match self.step.load(Ordering::Relaxed) {
            NO_STEP => None,
            s => Some(s),
        }
    }

    // -- sink ---------------------------------------------------------

    /// Open a JSON Lines sink at `path` and write the run-header
    /// record, with the rows of any kernels already timed. Replaces any
    /// previously attached sink.
    pub fn attach_sink(&self, path: &Path, info: &RunInfo) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let header = RunHeader {
            build: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            info: info.clone(),
            kernels: self.kernels_snapshot(),
        };
        let mut sink = std::io::BufWriter::new(file);
        writeln!(sink, "{}", header.encode())?;
        *self.sink.lock() = Some(sink);
        self.consumers.fetch_or(SINK, Ordering::Relaxed);
        self.events_written.store(1, Ordering::Relaxed);
        Ok(())
    }

    /// Emit the run-footer record (final aggregates + balance info),
    /// flush, and detach the sink. No-op without a sink.
    pub fn finish(&self) -> std::io::Result<()> {
        if self.consumers.load(Ordering::Relaxed) & SINK == 0 {
            return Ok(());
        }
        let footer = RunFooter {
            open_spans: self.open_spans() as u64,
            total_ms: self.total_seconds() * 1e3,
            // +1 for the footer itself.
            events: self.events_written.load(Ordering::Relaxed) + 1,
            traces_dropped: self.traces_dropped(),
            kernels: self.kernels_snapshot(),
            counters: self.counters_snapshot(),
            histograms: self.histograms_snapshot(),
        };
        self.emit(&footer.encode());
        let sink = self.sink.lock().take();
        self.consumers.fetch_and(!SINK, Ordering::Relaxed);
        if let Some(mut w) = sink {
            w.flush()?;
        }
        Ok(())
    }

    // -- rendering ----------------------------------------------------

    /// Render the paper-style runtime breakdown: the [`kernel_table`]
    /// of this hub's kernels, followed by the collapsed decision trace
    /// and any non-empty counters/histograms.
    pub fn breakdown_table(&self) -> String {
        let mut s = kernel_table(&self.kernels_snapshot());
        let traces = self.traces();
        let dropped = self.traces_dropped();
        if !traces.is_empty() || dropped > 0 {
            // Collapse consecutive identical decisions ("chose SA" ×50)
            // so per-step traces stay one line per *change*.
            s.push_str("decision trace:\n");
            if dropped > 0 {
                let _ = writeln!(s, "  ({dropped} older traces dropped at cap)");
            }
            let mut run: Option<(&(String, String), usize)> = None;
            let emit = |entry: &(String, String), count: usize, s: &mut String| {
                let (kernel, line) = entry;
                if count > 1 {
                    let _ = writeln!(s, "  {kernel}: {line} (x{count})");
                } else {
                    let _ = writeln!(s, "  {kernel}: {line}");
                }
            };
            for t in &traces {
                match run {
                    Some((prev, c)) if prev == t => run = Some((prev, c + 1)),
                    Some((prev, c)) => {
                        emit(prev, c, &mut s);
                        run = Some((t, 1));
                    }
                    None => run = Some((t, 1)),
                }
            }
            if let Some((prev, c)) = run {
                emit(prev, c, &mut s);
            }
        }
        let counters = self.counters_snapshot();
        if !counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &counters {
                let _ = writeln!(s, "  {k:<34} {v}");
            }
        }
        let hists = self.histograms_snapshot();
        if hists.iter().any(|(_, h)| !h.is_empty()) {
            s.push_str("histograms (count / mean / p50 / max):\n");
            for (k, h) in hists.iter().filter(|(_, h)| !h.is_empty()) {
                let _ = writeln!(
                    s,
                    "  {k:<34} {} / {:.2} / {} / {}",
                    h.count,
                    h.mean().unwrap_or(0.0),
                    h.approx_quantile(0.5).unwrap_or(0),
                    h.max,
                );
            }
        }
        s
    }

    // -- event plumbing ----------------------------------------------

    /// The one publish path: the open sink gets the event's JSONL
    /// record, the observer the event itself. The observer handle is
    /// cloned first, outside any hub lock, so an observer may call back
    /// into the hub without deadlocking.
    fn publish(&self, ev: &TelemetryEvent<'_>) {
        let consumers = self.consumers.load(Ordering::Relaxed);
        if consumers & SINK != 0 {
            self.emit(&ev.encode());
        }
        if consumers & OBSERVER != 0 {
            let obs = self.observer.lock().clone();
            if let Some(o) = obs {
                o.on_event(ev);
            }
        }
    }

    fn emit(&self, line: &str) {
        let mut sink = self.sink.lock();
        if let Some(w) = sink.as_mut() {
            let _ = writeln!(w, "{line}");
            self.events_written.fetch_add(1, Ordering::Relaxed);
        }
    }

    // -- live observer + alerts --------------------------------------

    /// Microseconds since this hub was created — the shared clock for
    /// the JSONL `ts` fields, the observer stream, and the flight
    /// recorder.
    pub fn ts_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Attach (or with `None`, detach) the live event observer.
    pub fn set_observer(&self, obs: Option<Arc<dyn EventObserver>>) {
        let mut slot = self.observer.lock();
        if obs.is_some() {
            self.consumers.fetch_or(OBSERVER, Ordering::Relaxed);
        } else {
            self.consumers.fetch_and(!OBSERVER, Ordering::Relaxed);
        }
        *slot = obs;
    }

    /// Whether a live observer is currently attached.
    pub fn observer_is_attached(&self) -> bool {
        self.consumers.load(Ordering::Relaxed) & OBSERVER != 0
    }

    /// Raise a structured alert (watchdog rule trip, recovery
    /// rollback): bump `alerts.total` and `alerts.<rule>` and publish
    /// a [`TelemetryEvent::Alert`], which the flight recorder dumps
    /// around.
    pub fn alert(&self, rule: &str, severity: AlertSeverity, message: &str) {
        self.counter_add("alerts.total", 1);
        self.counter_add(&format!("alerts.{rule}"), 1);
        self.publish(&TelemetryEvent::Alert {
            rule: rule.into(),
            severity,
            message: message.into(),
            step: self.current_step(),
            ts_us: self.ts_us(),
        });
    }

    /// Total alerts raised on this hub.
    pub fn alert_total(&self) -> u64 {
        self.counter("alerts.total")
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        // Best-effort footer if the app forgot to call finish().
        let _ = self.finish();
    }
}

/// An app's handle on its telemetry hub. It exists only because the
/// benchmark harness (`perfbench/`) reads `sim.profiler.telemetry()`;
/// the ROADMAP item "One benchmark change" replaces it with a plain
/// `Arc<Telemetry>` field in a change that also updates that harness.
#[derive(Debug, Default)]
pub struct Profiler {
    tel: Arc<Telemetry>,
}

impl Profiler {
    /// The hub: spans, the kernel table, counters, histograms, traces
    /// and the JSONL sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tel
    }
}

fn intern_locked(st: &mut State, name: &str) -> u32 {
    if let Some(&id) = st.ids.get(name) {
        return id;
    }
    let id = st.names.len() as u32;
    st.ids.insert(name.to_string(), id);
    st.names.push(name.to_string());
    st.kernels.push(KernelStats::default());
    id
}

// ---------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------

/// RAII guard for an open span. On drop the span stack is truncated
/// back to this span's depth: the frame is recorded and emitted, and
/// any deeper frames that were leaked (mem::forget, panic edge cases)
/// are closed with it, so the stack can never stay unbalanced.
pub struct Span {
    tel: Arc<Telemetry>,
    depth: usize,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.tel.close_to_depth(self.depth);
    }
}

// ---------------------------------------------------------------------
// Scoped "current telemetry" for the DSL executors
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Telemetry>>> = const { RefCell::new(Vec::new()) };
}

/// Guard installing a telemetry hub as the thread's current one; the
/// previous current (if any) is restored on drop.
pub struct CurrentGuard {
    _priv: (),
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

impl Telemetry {
    /// Install this hub as the calling thread's current telemetry for
    /// the guard's lifetime. The DSL executors (`move_engine`,
    /// `deposit`, `particles`, `parloop`) publish counters and
    /// histograms through [`current`] so applications don't thread a
    /// handle through every loop call.
    pub fn make_current(self: &Arc<Self>) -> CurrentGuard {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        CurrentGuard { _priv: () }
    }
}

/// The calling thread's current telemetry hub, if any.
pub fn current() -> Option<Arc<Telemetry>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Add to a counter on the current hub (no-op without one). This is
/// the executors' hook: one thread-local read + branch when telemetry
/// is off.
pub fn count(name: &str, n: u64) {
    if n == 0 {
        return;
    }
    if let Some(t) = current() {
        t.counter_add(name, n);
    }
}

/// Shared handle to a named histogram on the current hub.
pub fn hist(name: &str) -> Option<Arc<Histogram>> {
    current().map(|t| t.histogram(name))
}

/// FNV-1a hash — stable config fingerprint for the run header.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Add one call of exactly `d` to kernel `name`, as a closing span
/// would, for tests that need exact durations.
#[cfg(test)]
pub(crate) fn add_call(t: &Telemetry, name: &str, d: Duration) {
    let mut st = t.state.lock();
    let id = intern_locked(&mut st, name) as usize;
    st.kernels[id].calls += 1;
    st.kernels[id].seconds += d.as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oppic_tel_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_and_get() {
        let t = Arc::new(Telemetry::new());
        for ms in [10, 5] {
            let _s = t.span("Move");
            std::thread::sleep(Duration::from_millis(ms));
        }
        let k = t.get("Move").unwrap();
        assert_eq!(k.calls, 2);
        // A span times at least the sleep inside it.
        assert!(k.seconds >= 0.015, "{}", k.seconds);
        assert!(t.get("Deposit").is_none());
    }

    #[test]
    fn snapshot_sorted_by_time() {
        let t = Telemetry::new();
        add_call(&t, "small", Duration::from_millis(1));
        add_call(&t, "big", Duration::from_millis(100));
        add_call(&t, "mid", Duration::from_millis(10));
        let names: Vec<String> = t.kernels_snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["big", "mid", "small"]);
        assert!((t.total_seconds() - 0.111).abs() < 1e-9);
    }

    #[test]
    fn span_class_tags_the_kernel() {
        let t = Arc::new(Telemetry::new());
        drop(t.span_class("Move", KernelClass::Move));
        assert_eq!(t.get("Move").unwrap().class, Some(KernelClass::Move));
        drop(t.span("Move"));
        let k = t.get("Move").unwrap();
        assert_eq!((k.calls, k.class), (2, Some(KernelClass::Move)));
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = Arc::new(Telemetry::new());
        {
            let _a = t.span("outer");
            {
                let _b = t.span("inner");
                assert_eq!(t.open_spans(), 2);
            }
            assert_eq!(t.open_spans(), 1);
        }
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.get("outer").unwrap().calls, 1);
        assert_eq!(t.get("inner").unwrap().calls, 1);
    }

    #[test]
    fn span_balance_survives_panic() {
        let t = Arc::new(Telemetry::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = t.span("outer");
            let _b = t.span("inner");
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.get("outer").unwrap().calls, 1);
        assert_eq!(t.get("inner").unwrap().calls, 1);
    }

    #[test]
    fn counters_and_step_deltas() {
        struct Deltas(Mutex<Vec<Vec<(String, u64)>>>);
        impl EventObserver for Deltas {
            fn on_event(&self, ev: &TelemetryEvent<'_>) {
                if let TelemetryEvent::StepEnd { counters, .. } = ev {
                    self.0.lock().push(counters.to_vec());
                }
            }
        }
        let rec = Arc::new(Deltas(Mutex::new(Vec::new())));
        let t = Telemetry::new();
        t.set_observer(Some(rec.clone()));
        t.counter_add("init", 7); // before any step: in step 1's deltas
        t.begin_step(1);
        t.counter_add("moved", 5);
        t.counter_add("moved", 3);
        t.end_step(&[("alive", 100.0)]);
        assert_eq!(t.counter("moved"), 8);
        assert_eq!(t.counter("init"), 7);
        // Between steps (a rollback's counters): in step 2's deltas.
        t.counter_add("recoveries", 1);
        t.begin_step(2);
        t.end_step(&[]);
        t.begin_step(3);
        t.end_step(&[]);
        assert_eq!(t.counter("moved"), 8);
        let owned = |v: &[(&str, u64)]| -> Vec<(String, u64)> {
            v.iter().map(|&(k, n)| (k.to_string(), n)).collect()
        };
        assert_eq!(
            *rec.0.lock(),
            [
                owned(&[("init", 7), ("moved", 8)]),
                owned(&[("recoveries", 1)]),
                owned(&[]),
            ]
        );
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the ones
        assert!(s.approx_quantile(0.5).unwrap() <= 4);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [1u64, 5, 9] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 2, 700] {
            b.record(v);
            both.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, both.snapshot());
    }

    #[test]
    fn merge_snapshot_matches_per_value_records() {
        let values = [0u64, 1, 1, 3, 8, 1000, 7, 2];
        let one_by_one = Histogram::new();
        let mut local = HistogramSnapshot::default();
        for v in values {
            one_by_one.record(v);
            local.record(v);
        }
        assert_eq!(local, one_by_one.snapshot(), "local records match");
        let merged = Histogram::new();
        merged.record(5);
        one_by_one.record(5);
        merged.merge_snapshot(&local);
        assert_eq!(merged.snapshot(), one_by_one.snapshot());

        // An empty snapshot changes nothing; min stays at u64::MAX.
        let h = Histogram::new();
        h.merge_snapshot(&HistogramSnapshot::default());
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.min, u64::MAX);
    }

    #[test]
    fn record_n_matches_repeated_records() {
        for (start, v, k) in [
            (vec![], 1u64, 5u64),
            (vec![0, 9, 300], 1, 7),
            (vec![4], 6, 0),
        ] {
            let mut bulk = HistogramSnapshot::default();
            let mut one_by_one = HistogramSnapshot::default();
            for &s in &start {
                bulk.record(s);
                one_by_one.record(s);
            }
            bulk.record_n(v, k);
            for _ in 0..k {
                one_by_one.record(v);
            }
            assert_eq!(bulk, one_by_one, "record_n({v}, {k}) after {start:?}");
        }
        // Zero repeats leave an empty snapshot's min at u64::MAX.
        let mut empty = HistogramSnapshot::default();
        empty.record_n(3, 0);
        assert_eq!(empty, HistogramSnapshot::default());
    }

    #[test]
    fn approx_quantile_pins_edges() {
        // Empty snapshot: no quantiles at any q.
        let empty = HistogramSnapshot::default();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.approx_quantile(q), None);
        }
        // Single value: every quantile is that value.
        let h = Histogram::new();
        h.record(5);
        let s = h.snapshot();
        for q in [-0.5, 0.0, 0.25, 0.5, 1.0, 7.0] {
            assert_eq!(s.approx_quantile(q), Some(5), "q={q}");
        }
        // Multi-bucket: q≤0 pins to min, q≥1 to max, NaN to min, and
        // interior estimates stay inside [min, max].
        let h = Histogram::new();
        for v in [2u64, 3, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.approx_quantile(0.0), Some(2));
        assert_eq!(s.approx_quantile(-3.0), Some(2));
        assert_eq!(s.approx_quantile(f64::NAN), Some(2));
        assert_eq!(s.approx_quantile(1.0), Some(100));
        assert_eq!(s.approx_quantile(42.0), Some(100));
        let p50 = s.approx_quantile(0.5).unwrap();
        assert!((2..=100).contains(&p50), "p50={p50}");
        // Zero-only histogram: bucket 0's upper bound is 0 == min == max.
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.snapshot().approx_quantile(0.5), Some(0));
    }

    #[test]
    fn alert_counts_and_emits_record() {
        let path = tmp_path("alert");
        let t = Arc::new(Telemetry::new());
        t.attach_sink(&path, &RunInfo::default()).unwrap();
        t.alert(
            "step_time_regression",
            AlertSeverity::Critical,
            "step 7 took 310.0 ms vs EWMA 1.2 ms",
        );
        t.finish().unwrap();
        assert_eq!(t.counter("alerts.total"), 1);
        assert_eq!(t.counter("alerts.step_time_regression"), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let alert = text
            .lines()
            .map(|l| crate::json::parse(l).expect("valid json"))
            .find(|l| l.get("type").and_then(|v| v.as_str()) == Some("alert"))
            .expect("alert event");
        assert_eq!(
            alert.get("rule").and_then(|v| v.as_str()),
            Some("step_time_regression")
        );
        assert_eq!(
            alert.get("severity").and_then(|v| v.as_str()),
            Some("critical")
        );
        assert!(alert.get("ts").and_then(|v| v.as_u64()).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observer_receives_events_without_sink() {
        struct Rec(Mutex<Vec<String>>);
        impl EventObserver for Rec {
            fn on_event(&self, ev: &TelemetryEvent<'_>) {
                let tag = match ev {
                    TelemetryEvent::SpanClose { name, .. } => format!("span:{name}"),
                    TelemetryEvent::Decision { name, .. } => format!("decision:{name}"),
                    TelemetryEvent::StepEnd { step, .. } => format!("step:{step}"),
                    TelemetryEvent::Alert { rule, severity, .. } => {
                        format!("alert:{rule}:{}", severity.as_str())
                    }
                };
                self.0.lock().push(tag);
            }
        }
        let rec = Arc::new(Rec(Mutex::new(Vec::new())));
        let t = Arc::new(Telemetry::new());
        t.set_observer(Some(rec.clone()));
        assert!(t.observer_is_attached());
        t.begin_step(3);
        {
            let _s = t.span("Move");
        }
        t.counter_add("moved", 4);
        t.trace("tuner", "chose SA");
        t.end_step(&[]);
        t.alert("nan_rate", AlertSeverity::Warn, "2 quarantined");
        t.set_observer(None);
        t.trace("after_detach", "unseen");
        let got = rec.0.lock().clone();
        // Exactly the events a sink would record, in order: a counter
        // tick publishes nothing, and nothing arrives after detaching.
        assert_eq!(
            got,
            [
                "span:Move",
                "decision:tuner",
                "step:3",
                "alert:nan_rate:warn"
            ]
        );
    }

    #[test]
    fn span_events_carry_monotonic_ts() {
        let t = Arc::new(Telemetry::new());
        let a = t.ts_us();
        std::thread::sleep(Duration::from_millis(2));
        let b = t.ts_us();
        assert!(b > a);
    }

    #[test]
    fn trace_cap_drops_oldest() {
        let t = Telemetry::new();
        t.set_trace_cap(3);
        for i in 0..5 {
            t.trace("k", format!("line {i}"));
        }
        let tr = t.traces();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr[0].1, "line 2");
        assert_eq!(tr[2].1, "line 4");
        assert_eq!(t.traces_dropped(), 2);
    }

    #[test]
    fn traces_keep_emission_order() {
        let t = Telemetry::new();
        t.trace("DepositCharge", "step 1: scatter arrays");
        t.trace("DepositCharge", "step 2: atomics");
        let tr = t.traces();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].1, "step 1: scatter arrays");
        assert_eq!(tr[1].1, "step 2: atomics");
    }

    #[test]
    fn current_scoping_nests_and_restores() {
        assert!(current().is_none());
        let a = Arc::new(Telemetry::new());
        let b = Arc::new(Telemetry::new());
        {
            let _ga = a.make_current();
            count("c", 1);
            {
                let _gb = b.make_current();
                count("c", 10);
            }
            count("c", 1);
        }
        assert!(current().is_none());
        assert_eq!(a.counter("c"), 2);
        assert_eq!(b.counter("c"), 10);
    }

    #[test]
    fn sink_round_trips_schema() {
        let path = tmp_path("roundtrip");
        let t = Arc::new(Telemetry::new());
        t.attach_sink(
            &path,
            &RunInfo {
                app: "test".into(),
                config_hash: format!("{:016x}", fnv1a(b"cfg")),
                threads: 4,
                extra: vec![("note".into(), "unit \"quoted\"".into())],
            },
        )
        .unwrap();
        t.begin_step(0);
        {
            let _s = t.span_class("Move", KernelClass::Move);
            t.counter_add("move.relocated", 3);
        }
        t.trace("DepositCharge", "auto-tuned to SA");
        t.hist_record("move.hops_per_particle", 2);
        t.end_step(&[("alive", 10.0)]);
        t.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<crate::json::Json> = text
            .lines()
            .map(|l| crate::json::parse(l).expect("valid json"))
            .collect();
        assert!(lines.len() >= 4);
        let header = &lines[0];
        assert_eq!(
            header.get("type").and_then(|v| v.as_str()),
            Some("run_header")
        );
        assert_eq!(header.get("schema").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(header.get("threads").and_then(|v| v.as_u64()), Some(4));
        let footer = lines.last().unwrap();
        assert_eq!(
            footer.get("type").and_then(|v| v.as_str()),
            Some("run_footer")
        );
        assert_eq!(footer.get("open_spans").and_then(|v| v.as_u64()), Some(0));
        let span = lines
            .iter()
            .find(|l| l.get("type").and_then(|v| v.as_str()) == Some("span"))
            .expect("span event");
        assert_eq!(span.get("path").and_then(|v| v.as_str()), Some("step>Move"));
        assert_eq!(span.get("depth").and_then(|v| v.as_u64()), Some(1));
        let step = lines
            .iter()
            .find(|l| l.get("type").and_then(|v| v.as_str()) == Some("step"))
            .expect("step event");
        assert_eq!(
            step.get("counters")
                .and_then(|c| c.get("move.relocated"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            step.get("gauges")
                .and_then(|g| g.get("alive"))
                .and_then(|v| v.as_f64()),
            Some(10.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn breakdown_table_shows_counters_and_histograms() {
        let t = Telemetry::new();
        add_call(&t, "Move", Duration::from_millis(30));
        t.counter_add("move.relocated", 42);
        t.hist_record("move.hops_per_particle", 3);
        let table = t.breakdown_table();
        assert!(table.contains("Move"));
        assert!(table.contains("TOTAL"));
        assert!(table.contains("move.relocated"));
        assert!(table.contains("move.hops_per_particle"));
    }

    #[test]
    fn kernel_table_aligns_names_longer_than_the_header() {
        let k = KernelStats {
            calls: 3,
            seconds: 0.5,
            ..KernelStats::default()
        };
        let rows = [
            ("ComputeF1Vector+SolvePotential".to_string(), k.clone()),
            ("Move".to_string(), k),
        ];
        let table = kernel_table(&rows);
        let lines: Vec<&str> = table.lines().filter(|l| !l.starts_with("TOTAL")).collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "misaligned rows:\n{table}"
        );
    }

    #[test]
    fn telemetry_is_thread_safe() {
        let t = Arc::new(Telemetry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    let h = t.histogram("h");
                    for i in 0..100 {
                        add_call(&t, "k", Duration::from_nanos(100));
                        t.counter_add("c", 2);
                        h.record(i % 7);
                    }
                });
            }
        });
        assert_eq!(t.get("k").unwrap().calls, 800);
        assert_eq!(t.counter("c"), 1600);
        assert_eq!(t.histograms_snapshot()[0].1.count, 800);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
