//! Criterion microbench: substrate layers — the factored field solve,
//! partitioners, overlay build/locate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oppic_mesh::{StructuredOverlay, TetMesh, Vec3};
use oppic_mpi::partition::{directional_partition, graph_growing_partition, rcb_partition};

fn bench_field_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("field_solve");
    for &n in &[8usize, 14] {
        let mesh = TetMesh::duct(n, n, n, 1.0, 1.0, 1.0);
        let mut fem = oppic_fempic::FemSolver::assemble(&mesh, 1.0);
        let charge = vec![1e-3; mesh.n_nodes()];
        g.bench_with_input(BenchmarkId::new("factored", n), &n, |bch, _| {
            bch.iter(|| fem.solve(&charge, 1.0).map(|phi| phi[0]))
        });
    }
    g.finish();
}

fn bench_partitioners(c: &mut Criterion) {
    let mesh = TetMesh::duct(12, 12, 12, 1.0, 1.0, 1.0);
    let cen: Vec<Vec3> = (0..mesh.n_cells()).map(|i| mesh.cell_centroid(i)).collect();
    let c2c: Vec<Vec<i32>> = mesh.c2c.iter().map(|a| a.to_vec()).collect();
    let mut g = c.benchmark_group("partition_10k_cells");
    g.bench_function("directional", |b| {
        b.iter(|| directional_partition(&cen, 0, 16))
    });
    g.bench_function("rcb", |b| b.iter(|| rcb_partition(&cen, 16)));
    g.bench_function("graph_growing", |b| {
        b.iter(|| graph_growing_partition(&c2c, 16))
    });
    g.finish();
}

fn bench_overlay(c: &mut Criterion) {
    let mesh = TetMesh::duct(8, 8, 8, 1.0, 1.0, 1.0);
    let mut g = c.benchmark_group("overlay");
    g.bench_function("build_32cubed", |b| {
        b.iter(|| StructuredOverlay::build(&mesh, [32; 3]))
    });
    let ov = StructuredOverlay::build(&mesh, [32; 3]);
    g.bench_function("locate", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % 997;
            let t = k as f64 / 997.0;
            ov.locate(Vec3::new(t, 1.0 - t, t * 0.5))
        })
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
    targets = bench_field_solve, bench_partitioners, bench_overlay
}
criterion_main!(benches);
