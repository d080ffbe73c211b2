//! Criterion microbench: particle-store bookkeeping — hole filling at
//! varying removal fractions, cell sort, shuffle, pack/unpack — and the
//! DSL executors against hand-written loops over the same data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oppic_core::{DepositMethod, ExecPolicy, ParticleDats};
use oppic_fempic::{FemPic, FemPicConfig, Integrator, MoveStrategy};

fn make_store(n: usize) -> ParticleDats {
    let mut ps = ParticleDats::new();
    let pos = ps.decl_dat("pos", 3);
    ps.decl_dat("vel", 3);
    ps.decl_dat("w", 1);
    ps.inject(n, 0);
    for i in 0..n {
        ps.el_mut(pos, i)[0] = i as f64;
        ps.cells_mut()[i] = ((i * 2654435761) % 1000) as i32;
    }
    ps
}

fn bench_holefill(c: &mut Criterion) {
    let n = 200_000usize;
    let mut g = c.benchmark_group("holefill");
    g.throughput(Throughput::Elements(n as u64));
    for &pct in &[1usize, 10, 50] {
        g.bench_with_input(BenchmarkId::new("remove_fill", pct), &pct, |b, &pct| {
            let proto = make_store(n);
            let holes: Vec<usize> = (0..n).filter(|i| i % 100 < pct).collect();
            b.iter_batched(
                || proto.clone(),
                |mut ps| ps.remove_fill(&holes),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_sort_shuffle(c: &mut Criterion) {
    let n = 200_000usize;
    let mut g = c.benchmark_group("reorder");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("sort_by_cell", |b| {
        let proto = make_store(n);
        b.iter_batched(
            || proto.clone(),
            |mut ps| ps.sort_by_cell(1000),
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function("shuffle", |b| {
        let proto = make_store(n);
        b.iter_batched(
            || proto.clone(),
            |mut ps| ps.shuffle(42),
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let n = 10_000usize;
    let mut g = c.benchmark_group("migration_pack");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("pack_unpack_all", |b| {
        let src = make_store(n);
        b.iter(|| {
            let mut dst = src.clone_schema();
            let mut buf = Vec::with_capacity(src.dofs());
            for i in 0..n {
                buf.clear();
                src.pack_one(i, &mut buf);
                dst.unpack_one(&buf, 0);
            }
            dst.len()
        });
    });
    g.finish();
}

/// FemPIC's `CalcPosVel` and `DepositCharge` through the DSL
/// executors (`par_loop`, `deposit_loop`) against the same kernels as
/// hand-written loops, on the duct of `configs/fempic_small.cfg` under
/// `Seq` after 25 steps. Each pair is checked bit for bit before it is
/// timed. The timings are reported, not gated.
fn bench_executor_vs_hand(c: &mut Criterion) {
    let cfg = FemPicConfig {
        nx: 8,
        ny: 8,
        nz: 8,
        lx: 2.0,
        inject_per_step: 2000,
        wall_potential: 2.0,
        move_strategy: MoveStrategy::DirectHop { overlay_res: 32 },
        deposit: DepositMethod::ScatterArrays,
        policy: ExecPolicy::Seq,
        ..FemPicConfig::default()
    };
    assert_eq!(cfg.integrator, Integrator::Leapfrog);
    let mut sim = FemPic::new(cfg);
    sim.run(25);
    let n = sim.ps.len();
    let qm_dt = sim.cfg.charge / sim.cfg.mass * sim.cfg.dt;
    let (dt, q) = (sim.cfg.dt, sim.cfg.charge);
    let cells = sim.ps.cells().to_vec();
    let ef = sim.efield.raw().to_vec();
    let lc = sim.ps.col(sim.lc).to_vec();
    let c2n = sim.mesh.c2n.clone();
    let mut pos = sim.ps.col(sim.pos).to_vec();
    let mut vel = sim.ps.col(sim.vel).to_vec();
    let mut charge = vec![0.0; sim.mesh.n_nodes()];

    let hand_push = |pos: &mut [f64], vel: &mut [f64]| {
        let ef = ef.as_chunks::<3>().0;
        let rows = pos.as_chunks_mut::<3>().0.iter_mut();
        for ((x, v), &c) in rows.zip(vel.as_chunks_mut::<3>().0).zip(&cells) {
            let e = &ef[c as usize];
            v[0] += qm_dt * e[0];
            v[1] += qm_dt * e[1];
            v[2] += qm_dt * e[2];
            x[0] += dt * v[0];
            x[1] += dt * v[1];
            x[2] += dt * v[2];
        }
    };
    let hand_deposit = |charge: &mut [f64]| {
        charge.fill(0.0);
        for (w, &c) in lc.as_chunks::<4>().0.iter().zip(&cells) {
            let nd = &c2n[c as usize];
            for k in 0..4 {
                charge[nd[k]] += q * w[k];
            }
        }
    };

    // Same bits before timing: one push and one deposit each way.
    sim.calc_pos_vel();
    hand_push(&mut pos, &mut vel);
    assert_eq!(sim.ps.col(sim.pos), &pos[..], "push: positions");
    assert_eq!(sim.ps.col(sim.vel), &vel[..], "push: velocities");
    sim.deposit_charge();
    hand_deposit(&mut charge);
    assert_eq!(sim.node_charge.raw(), &charge[..], "deposit");

    let mut g = c.benchmark_group("executor_vs_hand");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("calc_pos_vel/dsl", |b| b.iter(|| sim.calc_pos_vel()));
    g.bench_function("calc_pos_vel/hand", |b| {
        b.iter(|| hand_push(&mut pos, &mut vel))
    });
    g.bench_function("deposit_charge/dsl", |b| b.iter(|| sim.deposit_charge()));
    g.bench_function("deposit_charge/hand", |b| {
        b.iter(|| hand_deposit(&mut charge))
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
    targets = bench_holefill, bench_sort_shuffle, bench_pack
}
// One sample is one ~0.1 ms call, so this group takes many of them.
criterion_group! {
    name = executor;
    config = short().sample_size(400);
    targets = bench_executor_vs_hand
}
criterion_main!(benches, executor);
