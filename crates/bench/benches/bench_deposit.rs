//! Criterion microbench: the deposit strategies across contention
//! levels (the Section 3.3 design space), scatter arrays on a
//! cell-sorted store across ppc regimes, and the telemetry hot path
//! (counter publication on/off).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oppic_core::{deposit_loop, DepositMethod, ExecPolicy, ParticleDats};
use std::sync::Arc;

fn bench_deposit(c: &mut Criterion) {
    let n = 100_000usize;
    let mut g = c.benchmark_group("deposit");
    g.throughput(Throughput::Elements(n as u64));
    for &targets in &[16usize, 4096, 262_144] {
        for method in [
            DepositMethod::Serial,
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
            DepositMethod::UnsafeAtomics,
            DepositMethod::SegmentedReduction,
        ] {
            let policy = if method == DepositMethod::Serial {
                ExecPolicy::Seq
            } else {
                ExecPolicy::Par
            };
            g.bench_with_input(
                BenchmarkId::new(format!("{}/targets{targets}", method.label()), targets),
                &targets,
                |b, &targets| {
                    let mut buf = vec![0.0f64; targets];
                    b.iter(|| {
                        deposit_loop(&policy, method, n, &mut buf, |i| {
                            let idx = |k: usize| (i.wrapping_mul(2654435761) + k * 97) % targets;
                            ([idx(0), idx(1), idx(2), idx(3)], [1.0; 4])
                        })
                    });
                },
            );
        }
    }
    g.finish();
}

/// Scatter arrays on a cell-sorted store, per mean ppc.
fn bench_deposit_sorted(c: &mut Criterion) {
    let n_cells = 2048usize;
    let n_targets = 4096usize;
    let c2n: Vec<[usize; 4]> = (0..n_cells)
        .map(|c| {
            let h = c.wrapping_mul(2654435761);
            [
                h % n_targets,
                (h + 1) % n_targets,
                (h + 2) % n_targets,
                (h + 3) % n_targets,
            ]
        })
        .collect();
    let mut g = c.benchmark_group("deposit_sorted");
    for &ppc in &[8usize, 64] {
        let n = n_cells * ppc;
        g.throughput(Throughput::Elements(n as u64));
        let cells: Vec<i32> = (0..n)
            .map(|i| (i.wrapping_mul(2654435761) % n_cells) as i32)
            .collect();
        let mut ps = ParticleDats::new();
        let wid = ps.decl_dat("w", 4);
        ps.inject_into(&cells);
        for (i, w) in ps.col_mut(wid).iter_mut().enumerate() {
            *w = (i % 17) as f64 * 0.0625;
        }
        ps.sort_by_cell(n_cells);
        let scells = ps.cells().to_vec();
        let w = ps.col(wid).to_vec();
        g.bench_with_input(BenchmarkId::new("sa", ppc), &ppc, |b, _| {
            let mut buf = vec![0.0f64; n_targets];
            b.iter(|| {
                deposit_loop(
                    &ExecPolicy::Par,
                    DepositMethod::ScatterArrays,
                    n,
                    &mut buf,
                    |i| {
                        let c = scells[i] as usize;
                        (c2n[c], std::array::from_fn(|k| w[i * 4 + k]))
                    },
                )
            });
        });
    }
    g.finish();
}

/// The telemetry-off acceptance check: a deposit loop with no current
/// telemetry installed must cost the same as one running under a
/// `make_current` scope (the counter publication is one thread-local
/// read on the off path).
fn bench_deposit_telemetry_overhead(c: &mut Criterion) {
    let n = 100_000usize;
    let targets = 4096usize;
    let mut g = c.benchmark_group("deposit_telemetry");
    g.throughput(Throughput::Elements(n as u64));
    let run = |buf: &mut Vec<f64>| {
        deposit_loop(
            &ExecPolicy::Par,
            DepositMethod::ScatterArrays,
            n,
            buf,
            |i| {
                let idx = |k: usize| (i.wrapping_mul(2654435761) + k * 97) % targets;
                ([idx(0), idx(1), idx(2), idx(3)], [1.0; 4])
            },
        )
    };
    g.bench_function("telemetry_off", |b| {
        let mut buf = vec![0.0f64; targets];
        b.iter(|| run(&mut buf));
    });
    g.bench_function("telemetry_on", |b| {
        let tel = Arc::new(oppic_core::Telemetry::new());
        let _cur = tel.make_current();
        let mut buf = vec![0.0f64; targets];
        b.iter(|| run(&mut buf));
    });
    g.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}
criterion_group! {
    name = benches;
    config = short();
    targets = bench_deposit, bench_deposit_sorted, bench_deposit_telemetry_overhead
}
criterion_main!(benches);
