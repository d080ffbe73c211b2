//! Criterion microbench: particle-store bookkeeping — hole filling at
//! varying removal fractions, cell sort, shuffle, pack/unpack — and the
//! DSL executors against hand-written loops over the same data.

use std::cell::RefCell;

use criterion::{
    criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion, Throughput,
};
use oppic_core::{
    move_loop, DepositMethod, ExecPolicy, Fixed, MoveConfig, MoveResult, ParticleDats,
};
use oppic_fempic::{FemPic, FemPicConfig, Integrator, MoveStrategy, BARY_TOL};
use oppic_mesh::geometry::{bary_inside, bary_min_index, barycentric_from_map};
use oppic_mesh::{StructuredOverlay, Vec3};

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

/// A hand-written two-pass move walk: probe every particle in its
/// cell, listing the misses, then chase each miss to its end: exit,
/// hop (to `seed(i)` after the second miss), probe.
fn hand_move<P, X, S>(
    cells: &mut [i32],
    lc: &mut [f64],
    misses: &mut [usize],
    (probe, exit, seed): (&P, &X, &S),
) -> MoveResult
where
    P: Fn(usize, usize, &mut [f64; 4]) -> bool,
    X: Fn(usize, usize, &[f64; 4]) -> Option<usize>,
    S: Fn(usize) -> usize,
{
    let lc = lc.as_chunks_mut::<4>().0;
    let mut r = MoveResult::default();
    let mut m = 0;
    for (i, (c, l)) in cells.iter().zip(lc.iter_mut()).enumerate() {
        misses[m] = i;
        m += usize::from(!probe(i, *c as usize, l));
    }
    r.total_visits = (cells.len() - m) as u64;
    r.max_chain = u32::from(m < cells.len());
    for &i in &misses[..m] {
        let start = cells[i];
        let (mut cell, mut chain) = (start as usize, 1u32);
        let fin = loop {
            let Some(next) = exit(i, cell, &lc[i]) else {
                break None;
            };
            cell = if chain == 2 {
                r.seeded += 1;
                seed(i)
            } else {
                next
            };
            chain += 1;
            if probe(i, cell, &mut lc[i]) {
                break Some(cell as i32);
            }
        };
        r.total_visits += u64::from(chain);
        r.max_chain = r.max_chain.max(chain);
        match fin {
            Some(c) => {
                r.moved += u64::from(c != start);
                cells[i] = c;
            }
            None => r.removed.push(i),
        }
    }
    r
}

/// A hand-written wavefront walk: blocks of 256 particles, each walked
/// one visit-wave at a time over stack lists, as the move engine does.
fn hand_wave_move<P, X, S>(
    cells: &mut [i32],
    lc: &mut [f64],
    (probe, exit, seed): (&P, &X, &S),
) -> MoveResult
where
    P: Fn(usize, usize, &mut [f64; 4]) -> bool,
    X: Fn(usize, usize, &[f64; 4]) -> Option<usize>,
    S: Fn(usize) -> usize,
{
    const BLOCK: usize = 256;
    let lc = lc.as_chunks_mut::<4>().0;
    let mut r = MoveResult::default();
    let (mut idx, mut cur, mut gone) = ([0u32; BLOCK], [0i32; BLOCK], [0u32; BLOCK]);
    let blocks = cells.chunks_mut(BLOCK).zip(lc.chunks_mut(BLOCK));
    for (b, (cells, lc)) in blocks.enumerate() {
        let first = b * BLOCK;
        let mut m = 0;
        for (k, (c, l)) in cells.iter().zip(lc.iter_mut()).enumerate() {
            idx[m] = k as u32;
            cur[m] = *c;
            m += usize::from(!probe(first + k, *c as usize, l));
        }
        r.total_visits += (cells.len() - m) as u64;
        r.max_chain = r.max_chain.max(u32::from(m < cells.len()));
        let (mut g, mut chain) = (0, 1u32);
        while m > 0 {
            let mut n = 0;
            for p in 0..m {
                let k = idx[p] as usize;
                let next = exit(first + k, cur[p] as usize, &lc[k]);
                gone[g] = k as u32;
                g += usize::from(next.is_none());
                idx[n] = k as u32;
                cur[n] = next.unwrap_or(0) as i32;
                n += usize::from(next.is_some());
            }
            r.total_visits += u64::from(chain) * (m - n) as u64;
            if m > n {
                r.max_chain = r.max_chain.max(chain);
            }
            if chain == 2 {
                for p in 0..n {
                    cur[p] = seed(first + idx[p] as usize) as i32;
                }
                r.seeded += n as u64;
            }
            chain += 1;
            m = 0;
            for p in 0..n {
                let (k, cell) = (idx[p] as usize, cur[p]);
                let hit = probe(first + k, cell as usize, &mut lc[k]);
                r.moved += u64::from(hit & (cell != cells[k]));
                cells[k] = if hit { cell } else { cells[k] };
                idx[m] = k as u32;
                cur[m] = cell;
                m += usize::from(!hit);
            }
            r.total_visits += u64::from(chain) * (n - m) as u64;
            if n > m {
                r.max_chain = r.max_chain.max(chain);
            }
        }
        let gone = &mut gone[..g];
        gone.sort_unstable();
        r.removed.extend(gone.iter().map(|&k| first + k as usize));
    }
    r
}

/// FemPIC's `CalcPosVel`, `Move` and `DepositCharge` through the DSL
/// executors (`par_loop`, `move_loop`, `deposit_loop`) against the
/// same kernels as hand-written loops, on the duct of
/// `configs/fempic_small.cfg` under `Seq` after 25 steps. The move
/// runs from the state right after the next push: every iteration
/// first restores that state's `cells` and `lc` (a copy all three move
/// timings include), and `move/hand_wave` is the hand-written form of
/// the engine's wavefront walk. Each pair or triple is checked bit for
/// bit before it is timed. The timings are reported, not gated.
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
    let mut sim = FemPic::new(cfg.clone());
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
    // The move's input: this push's positions with the cells and `lc`
    // the push left alone. Its kernel is `FemPic::move_particles`'
    // probe, exit and overlay seed.
    assert_eq!(sim.ps.cells(), &cells[..]);
    assert_eq!(sim.ps.col(sim.lc), &lc[..]);
    let pushed = pos.clone();
    let (det, c2c) = (sim.cell_det.raw().to_vec(), sim.mesh.c2c.clone());
    let overlay = StructuredOverlay::build(&sim.mesh, [32; 3]);
    let (det, _) = det.as_chunks::<16>();
    let (at_pos, _) = pushed.as_chunks::<3>();
    let at = |i: usize| Vec3::from_slice(&at_pos[i]);
    let probe = |i: usize, cell: usize, l: &mut [f64; 4]| -> bool {
        *l = barycentric_from_map(&det[cell], at(i));
        bary_inside(l, BARY_TOL)
    };
    let exit = |_i: usize, cell: usize, l: &[f64; 4]| -> Option<usize> {
        usize::try_from(c2c[cell][bary_min_index(l)]).ok()
    };
    let locate = |i: usize| overlay.locate(at(i));
    let kernel = (&probe, &exit, &locate);
    let mv_cfg = MoveConfig {
        n_cells: Some(det.len()),
        ..MoveConfig::default()
    };
    let dsl_move = |cells: &mut [i32], lc: &mut [f64]| {
        move_loop(
            &ExecPolicy::Seq,
            mv_cfg,
            cells,
            Some(&locate),
            Fixed(lc),
            probe,
            exit,
        )
    };
    let mut misses = vec![0; n];
    let mut moved = [(); 3].map(|()| (cells.clone(), lc.clone()));
    let results = [
        dsl_move(&mut moved[0].0, &mut moved[0].1),
        hand_move(&mut moved[1].0, &mut moved[1].1, &mut misses, kernel),
        hand_wave_move(&mut moved[2].0, &mut moved[2].1, kernel),
    ];
    for (name, (r, out)) in ["hand", "hand_wave"]
        .iter()
        .zip(results[1..].iter().zip(&moved[1..]))
    {
        assert_eq!(r, &results[0], "move/{name}: MoveResult");
        assert_eq!(out, &moved[0], "move/{name}: cells and lc");
    }
    // The DSL side is the app's own move: a twin run to the same state
    // moves with the same result.
    let mut twin = FemPic::new(cfg);
    twin.run(25);
    twin.calc_pos_vel();
    twin.move_particles();
    assert_eq!(
        twin.last_move, results[0],
        "move/dsl: FemPic::move_particles"
    );
    assert!(results[0].total_visits > n as u64 && !results[0].removed.is_empty());
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
    // Each sample first restores the post-push cells and lc, outside
    // the timed call.
    let state = RefCell::new((cells.clone(), lc.clone()));
    let restore = || {
        let (c, l) = &mut *state.borrow_mut();
        c.copy_from_slice(&cells);
        l.copy_from_slice(&lc);
    };
    let timed = |b: &mut Bencher, walk: &mut dyn FnMut(&mut [i32], &mut [f64]) -> MoveResult| {
        b.iter_batched(
            restore,
            |()| {
                let (c, l) = &mut *state.borrow_mut();
                walk(c, l)
            },
            BatchSize::SmallInput,
        )
    };
    g.bench_function("move/dsl", |b| timed(b, &mut |c, l| dsl_move(c, l)));
    g.bench_function("move/hand", |b| {
        timed(b, &mut |c, l| hand_move(c, l, &mut misses, kernel))
    });
    g.bench_function("move/hand_wave", |b| {
        timed(b, &mut |c, l| hand_wave_move(c, l, kernel))
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
