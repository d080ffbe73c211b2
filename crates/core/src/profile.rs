//! Per-kernel instrumentation facade — the "OP-PIC code
//! instrumentation" the paper uses to time solver routines and
//! estimate FLOP/s for the roofline study (Section 4.1.2).
//!
//! As of the telemetry subsystem ([`crate::telemetry`]) this type is a
//! thin compatibility layer: every `Profiler` call is fed straight into
//! an owned [`Telemetry`] hub, so legacy call sites (`time`, `record`,
//! `add_traffic`, `breakdown_table`) and the new structured event
//! stream (spans, counters, histograms, JSONL sink) observe the same
//! numbers by construction. New code should prefer
//! [`Profiler::telemetry`] and the span API; the facade exists so the
//! paper-figure binaries and existing tests keep working unchanged.

use crate::telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

pub use crate::telemetry::{KernelClass, KernelId, KernelStats};

/// Thread-safe kernel profiler (facade over [`Telemetry`]).
#[derive(Debug, Default)]
pub struct Profiler {
    tel: Arc<Telemetry>,
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// The telemetry hub behind this profiler — spans, counters,
    /// histograms, and the JSONL sink live there.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tel
    }

    /// Time a closure under a kernel name.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.tel.time(name, f)
    }

    /// Record a duration for `name`. Names are interned: this allocates
    /// only the first time a name is seen, not per call.
    pub fn record(&self, name: &str, d: Duration) {
        self.tel.record(name, d);
    }

    /// Intern a kernel name once, for allocation- and hash-free
    /// recording on hot paths via [`Self::record_id`].
    pub fn intern(&self, name: &str) -> KernelId {
        self.tel.intern(name)
    }

    /// Record a duration under a pre-interned kernel id.
    pub fn record_id(&self, id: KernelId, d: Duration) {
        self.tel.record_id(id, d);
    }

    /// Attach data-movement / FLOP counts (accumulating).
    pub fn add_traffic(&self, name: &str, bytes: u64, flops: u64) {
        self.tel.add_traffic(name, bytes, flops);
    }

    /// Tag a kernel with its class (idempotent).
    pub fn classify(&self, name: &str, class: KernelClass) {
        self.tel.classify(name, class);
    }

    /// Snapshot of one kernel's stats.
    pub fn get(&self, name: &str) -> Option<KernelStats> {
        self.tel.get(name)
    }

    /// Snapshot of everything, sorted by descending time.
    pub fn snapshot(&self) -> Vec<(String, KernelStats)> {
        self.tel.kernels_snapshot()
    }

    /// Total recorded seconds.
    pub fn total_seconds(&self) -> f64 {
        self.tel.total_seconds()
    }

    /// Record a one-line decision trace against a kernel name (e.g.
    /// the deposit auto-tuner's per-loop strategy choice). The trace
    /// log is capped ([`crate::telemetry::DEFAULT_TRACE_CAP`]); the
    /// oldest entries are dropped and counted rather than growing
    /// without bound.
    pub fn trace(&self, name: &str, line: impl Into<String>) {
        self.tel.trace(name, line);
    }

    /// All retained decision traces in emission order.
    pub fn traces(&self) -> Vec<(String, String)> {
        self.tel.traces()
    }

    /// Remove and return all retained traces (e.g. to ship them to a
    /// log between benchmark repetitions without unbounded growth).
    pub fn drain_traces(&self) -> Vec<(String, String)> {
        self.tel.drain_traces()
    }

    /// Number of traces dropped to honour the retention cap.
    pub fn traces_dropped(&self) -> u64 {
        self.tel.traces_dropped()
    }

    /// Change the trace retention cap.
    pub fn set_trace_cap(&self, cap: usize) {
        self.tel.set_trace_cap(cap);
    }

    /// Clear all statistics (between benchmark repetitions).
    pub fn reset(&self) {
        self.tel.reset();
    }

    /// Render the paper-style runtime breakdown table.
    pub fn breakdown_table(&self) -> String {
        self.tel.breakdown_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_record() {
        let p = Profiler::new();
        let out = p.time("Move", || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        let st = p.get("Move").unwrap();
        assert_eq!(st.calls, 1);
        assert!(st.seconds >= 0.004, "{}", st.seconds);
        p.record("Move", Duration::from_millis(1));
        assert_eq!(p.get("Move").unwrap().calls, 2);
    }

    #[test]
    fn traffic_and_derived_metrics() {
        let p = Profiler::new();
        p.record("DepositCharge", Duration::from_secs_f64(0.5));
        p.add_traffic("DepositCharge", 1_000_000_000, 250_000_000);
        let st = p.get("DepositCharge").unwrap();
        assert!((st.arithmetic_intensity().unwrap() - 0.25).abs() < 1e-12);
        assert!((st.gbytes_per_s().unwrap() - 2.0).abs() < 1e-9);
        assert!((st.gflops().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_counters_yield_none() {
        let p = Profiler::new();
        p.record("k", Duration::from_millis(1));
        let st = p.get("k").unwrap();
        assert!(st.arithmetic_intensity().is_none());
        assert!(st.gflops().is_none());
        assert!(st.gbytes_per_s().is_none());
    }

    #[test]
    fn snapshot_sorted_by_time() {
        let p = Profiler::new();
        p.record("small", Duration::from_millis(1));
        p.record("big", Duration::from_millis(100));
        p.record("mid", Duration::from_millis(10));
        let names: Vec<String> = p.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["big", "mid", "small"]);
    }

    #[test]
    fn classification() {
        let p = Profiler::new();
        p.record("Move", Duration::from_millis(1));
        p.classify("Move", KernelClass::Move);
        assert_eq!(p.get("Move").unwrap().class, Some(KernelClass::Move));
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        p.record("k", Duration::from_millis(1));
        p.trace("k", "chose atomics");
        p.reset();
        assert!(p.get("k").is_none());
        assert_eq!(p.total_seconds(), 0.0);
        assert!(p.traces().is_empty());
    }

    #[test]
    fn traces_keep_emission_order() {
        let p = Profiler::new();
        p.trace("DepositCharge", "step 1: scatter arrays");
        p.trace("DepositCharge", "step 2: matrix");
        let t = p.traces();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].1, "step 1: scatter arrays");
        assert!(t[1].1.contains("matrix"));
    }

    #[test]
    fn trace_log_is_capped_with_drop_count() {
        let p = Profiler::new();
        p.set_trace_cap(8);
        for i in 0..20 {
            p.trace("DepositCharge", format!("decision {i}"));
        }
        assert_eq!(p.traces().len(), 8);
        assert_eq!(p.traces_dropped(), 12);
        assert!(p.breakdown_table().contains("12 older traces dropped"));
        let drained = p.drain_traces();
        assert_eq!(drained.len(), 8);
        assert_eq!(drained.last().unwrap().1, "decision 19");
        assert!(p.traces().is_empty());
    }

    #[test]
    fn record_by_id_matches_record_by_name() {
        let p = Profiler::new();
        let id = p.intern("Move");
        p.record_id(id, Duration::from_millis(2));
        p.record("Move", Duration::from_millis(3));
        let st = p.get("Move").unwrap();
        assert_eq!(st.calls, 2);
        assert!((st.seconds - 0.005).abs() < 1e-9);
    }

    #[test]
    fn breakdown_renders() {
        let p = Profiler::new();
        p.record("Move", Duration::from_millis(30));
        p.add_traffic("Move", 1 << 30, 1 << 20);
        p.record("AdvanceE", Duration::from_millis(10));
        let table = p.breakdown_table();
        assert!(table.contains("Move"));
        assert!(table.contains("AdvanceE"));
        assert!(table.contains("TOTAL"));
    }

    #[test]
    fn profiler_is_thread_safe() {
        let p = std::sync::Arc::new(Profiler::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record("k", Duration::from_nanos(100));
                        p.add_traffic("k", 8, 1);
                    }
                });
            }
        });
        let st = p.get("k").unwrap();
        assert_eq!(st.calls, 800);
        assert_eq!(st.bytes, 6400);
        assert_eq!(st.flops, 800);
    }
}
