//! Workspace-local shim of the `criterion` API the benches use:
//! groups, throughput annotation, `iter`/`iter_batched`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple — warm up once, then run
//! `sample_size` timed samples (respecting the measurement-time
//! budget) and report mean/min wall-clock per iteration to stdout. No
//! statistics engine, no HTML reports; the benches exist to be *run*,
//! and their numbers are read off the terminal. As with criterion, the
//! first command-line argument that does not start with `-` filters
//! the run: only ids (`group/name`) containing it as a substring run,
//! so `cargo bench --bench bench_particles -- move_deposit` runs one
//! group.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export so call sites can keep `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        format!("{}/{}", self.function, self.parameter)
    }
}

#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Per-benchmark timing driver handed to the closure.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    /// Mean and min nanoseconds per iteration, filled by `iter*`.
    result: Option<(f64, f64)>,
}

impl Bencher {
    fn new(sample_size: usize, measurement_time: Duration) -> Self {
        Bencher {
            sample_size,
            measurement_time,
            result: None,
        }
    }

    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up / calibration draw.
        let t = Instant::now();
        black_box(routine());
        let first = t.elapsed();

        let mut samples = Vec::with_capacity(self.sample_size);
        samples.push(first.as_secs_f64() * 1e9);
        let budget = Instant::now();
        for _ in 1..self.sample_size {
            if budget.elapsed() > self.measurement_time {
                break;
            }
            let t = Instant::now();
            black_box(routine());
            samples.push(t.elapsed().as_secs_f64() * 1e9);
        }
        self.record(&samples);
    }

    pub fn iter_batched<S, R, Setup, Routine>(
        &mut self,
        mut setup: Setup,
        mut routine: Routine,
        _size: BatchSize,
    ) where
        Setup: FnMut() -> S,
        Routine: FnMut(S) -> R,
    {
        let mut samples = Vec::with_capacity(self.sample_size);
        let budget = Instant::now();
        for i in 0..self.sample_size {
            if i > 0 && budget.elapsed() > self.measurement_time {
                break;
            }
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            samples.push(t.elapsed().as_secs_f64() * 1e9);
        }
        self.record(&samples);
    }

    fn record(&mut self, samples: &[f64]) {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        self.result = Some((mean, min));
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    #[allow(dead_code)]
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Substring an id must contain to run; `None` runs every id.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
            filter: None,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Take the id filter from the command line: the first argument
    /// that does not start with `-` (cargo passes `--bench` first).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) {
        run_one(self, id, None, f);
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    c: &Criterion,
    label: &str,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if c.filter
        .as_deref()
        .is_some_and(|want| !label.contains(want))
    {
        return;
    }
    let mut b = Bencher::new(c.sample_size, c.measurement_time);
    f(&mut b);
    match b.result {
        Some((mean, min)) => {
            let rate = match throughput {
                Some(Throughput::Elements(n)) => {
                    format!("  ({:.2} Melem/s)", n as f64 / mean * 1e3)
                }
                Some(Throughput::Bytes(n)) => {
                    format!("  ({:.2} MiB/s)", n as f64 / mean * 1e9 / (1 << 20) as f64)
                }
                None => String::new(),
            };
            println!(
                "{label:<48} mean {:>12}  min {:>12}{rate}",
                fmt_ns(mean),
                fmt_ns(min)
            );
        }
        None => println!("{label:<48} (no measurement recorded)"),
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, self.throughput, f);
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.render());
        run_one(self.criterion, &label, self.throughput, |b| f(b, input));
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config.configure_from_args();
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_a_measurement() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(50));
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(100));
        let mut ran = 0u32;
        g.bench_function("busy", |b| {
            b.iter(|| {
                ran += 1;
                (0..100u64).sum::<u64>()
            })
        });
        g.finish();
        assert!(ran >= 1);
    }

    #[test]
    fn iter_batched_consumes_fresh_inputs() {
        let mut c = Criterion::default()
            .sample_size(4)
            .measurement_time(Duration::from_millis(50));
        let mut setups = 0u32;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 64]
                },
                |v| v.len(),
                BatchSize::LargeInput,
            )
        });
        assert!(setups >= 1);
    }

    #[test]
    fn filter_runs_only_matching_ids() {
        let mut c = Criterion {
            filter: Some("shim/kept".into()),
            ..Criterion::default()
        }
        .sample_size(2)
        .measurement_time(Duration::from_millis(10));
        let (mut kept, mut skipped) = (0u32, 0u32);
        let mut g = c.benchmark_group("shim");
        g.bench_function("kept", |b| b.iter(|| kept += 1));
        g.bench_function("other", |b| b.iter(|| skipped += 1));
        g.finish();
        assert!(kept >= 1);
        assert_eq!(skipped, 0);
    }
}
