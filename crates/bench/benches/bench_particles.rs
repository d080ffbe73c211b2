//! Criterion microbench: particle-store bookkeeping — hole filling at
//! varying removal fractions, cell sort, shuffle, pack/unpack — and the
//! DSL executors against hand-written loops over the same data, for
//! FemPIC's push, move and deposit and CabanaPIC's `Move_Deposit`.

use std::cell::RefCell;

use criterion::{
    criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion, Throughput,
};
use oppic_cabana::common::{boris_push, move_deposit_particle, stencil27};
use oppic_cabana::{CabanaConfig, CabanaPic};
use oppic_core::{
    move_loop, DepositMethod, ExecPolicy, Fixed, MoveConfig, MoveResult, ParticleDats, SortPolicy,
};
use oppic_fempic::{FemPic, FemPicConfig, Integrator, MoveStrategy, BARY_TOL};
use oppic_mesh::geometry::{bary_inside, bary_min_index, barycentric_from_map};
use oppic_mesh::{HexMesh, StructuredOverlay, Vec3};

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

/// CabanaPIC's `Move_Deposit` through the DSL executor (the engine's
/// staged blocks) against the same arithmetic as a hand-written loop
/// that finishes one particle before the next: trilinear gather,
/// Boris push, then the path-splitting move and deposit. The problem
/// is `configs/cabana_two_stream.cfg` under `Seq` after 25 steps,
/// right after `Interpolate`; every iteration first restores that
/// state (positions, velocities, cells and a cleared accumulator)
/// outside the timed call. Both sides are checked bit for bit before
/// timing; the timings are reported, not gated.
fn bench_move_deposit(c: &mut Criterion) {
    let (nx, ny, nz) = (32, 4, 4);
    let cfg = CabanaConfig {
        nx,
        ny,
        nz,
        dx: 1.0 / nx as f64,
        dy: 1.0 / ny as f64,
        dz: 1.0 / nz as f64,
        ppc: 64,
        v0: 0.2,
        perturbation: 0.02,
        modes: 2,
        dt: 0.5 / nx as f64 / 3f64.sqrt(),
        sort_policy: SortPolicy::EveryN(20),
        policy: ExecPolicy::Seq,
        ..CabanaConfig::default()
    };
    let mut sim = CabanaPic::new_dsl(cfg.clone());
    sim.run(25);
    sim.interpolate();
    let geom = sim.geom;
    let (dt, n, n_cells) = (sim.cfg.dt, sim.ps.len(), geom.n_cells());
    let qm_half_dt = sim.cfg.charge / sim.cfg.mass * dt * 0.5;
    let q_w = sim.cfg.charge * sim.weight;
    let pos0 = sim.ps.col(sim.pos).to_vec();
    let vel0 = sim.ps.col(sim.vel).to_vec();
    let cells0 = sim.ps.cells().to_vec();
    let eb: Vec<[f64; 6]> = sim
        .e
        .raw()
        .chunks_exact(3)
        .zip(sim.b.raw().chunks_exact(3))
        .map(|(e, b)| [e[0], e[1], e[2], b[0], b[1], b[2]])
        .collect();
    // The hand side's own tables: the periodic face map, each cell's
    // 3×3×3 stencil through it, and each cell's (i,j,k) and low corner.
    let c2c6 = HexMesh::periodic_box(nx, ny, nz, cfg.dx, cfg.dy, cfg.dz).c2c6;
    let nb = |c: usize, a: usize, d: i32| c2c6[c][a * 2 + usize::from(d > 0)] as usize;
    let stencils: Vec<[usize; 27]> = (0..n_cells).map(|c| stencil27(c, nb)).collect();
    let ijk: Vec<[usize; 3]> = (0..n_cells).map(|c| geom.cell_ijk(c)).collect();
    let lo: Vec<[f64; 3]> = ijk.iter().map(|&t| geom.cell_lo(t)).collect();
    let d = geom.deltas();

    let hand = |pos: &mut [f64], vel: &mut [f64], cells: &mut [i32], acc: &mut [f64]| -> u64 {
        let mut visits = 0;
        let rows = pos.as_chunks_mut::<3>().0.iter_mut();
        for ((x, v), cl) in rows.zip(vel.as_chunks_mut::<3>().0).zip(cells) {
            let c = *cl as usize;
            // Shape row: per axis the offset from the cell centre in
            // cell units, the corner weights as products over x, y, z
            // and the corner cells one stencil step towards the particle.
            let mut w = [0.0f64; 3];
            let mut step = [0i32; 3];
            for a in 0..3 {
                let frac = (x[a] - lo[c][a]) / d[a] - 0.5;
                let stride = [1, 3, 9][a];
                step[a] = if frac >= 0.0 { stride } else { -stride };
                w[a] = frac.abs().min(1.0);
            }
            let mut f = [0.0f64; 6];
            for corner in 0..8 {
                let (mut idx, mut weight) = (13i32, 1.0);
                for a in 0..3 {
                    if corner >> a & 1 == 1 {
                        idx += step[a];
                        weight *= w[a];
                    } else {
                        weight *= 1.0 - w[a];
                    }
                }
                let row = &eb[stencils[c][idx as usize]];
                for k in 0..6 {
                    f[k] += weight * row[k];
                }
            }
            let nv = boris_push(*v, [f[0], f[1], f[2]], [f[3], f[4], f[5]], qm_half_dt);
            *v = nv;
            let (end, visited) =
                move_deposit_particle(&geom, x, &nv, c, ijk[c], dt, nb, |cell, frac| {
                    let a = &mut acc[cell * 3..cell * 3 + 3];
                    a[0] += q_w * nv[0] * frac;
                    a[1] += q_w * nv[1] * frac;
                    a[2] += q_w * nv[2] * frac;
                });
            *cl = end as i32;
            visits += visited as u64;
        }
        visits
    };

    // Same bits before timing. The engine's accumulator is private, so
    // the current is compared as `AccumulateCurrent`'s J = acc / V.
    let (mut pos, mut vel, mut cells) = (pos0.clone(), vel0.clone(), cells0.clone());
    let mut acc = vec![0.0; n_cells * 3];
    let hand_visits = hand(&mut pos, &mut vel, &mut cells, &mut acc);
    assert_eq!(sim.move_deposit(), hand_visits, "move_deposit: visits");
    assert!(hand_visits > n as u64, "some particle must cross a face");
    assert_eq!(sim.ps.col(sim.pos), &pos[..], "move_deposit: positions");
    assert_eq!(sim.ps.col(sim.vel), &vel[..], "move_deposit: velocities");
    assert_eq!(sim.ps.cells(), &cells[..], "move_deposit: cells");
    sim.accumulate_current();
    let inv_vol = 1.0 / geom.cell_volume();
    let j: Vec<f64> = acc.iter().map(|a| a * inv_vol).collect();
    assert_eq!(sim.j.raw(), &j[..], "move_deposit: current");

    let mut g = c.benchmark_group("executor_vs_hand");
    g.throughput(Throughput::Elements(n as u64));
    let sim = RefCell::new(sim);
    g.bench_function("move_deposit/dsl", |b| {
        b.iter_batched(
            || {
                let s = &mut *sim.borrow_mut();
                let (p, v) = s.ps.cols_mut2(s.pos, s.vel);
                p.copy_from_slice(&pos0);
                v.copy_from_slice(&vel0);
                s.ps.cells_mut().copy_from_slice(&cells0);
                s.accumulate_current();
            },
            |()| sim.borrow_mut().move_deposit(),
            BatchSize::SmallInput,
        )
    });
    let state = RefCell::new((pos, vel, cells, acc));
    g.bench_function("move_deposit/hand", |b| {
        b.iter_batched(
            || {
                let (p, v, c, a) = &mut *state.borrow_mut();
                p.copy_from_slice(&pos0);
                v.copy_from_slice(&vel0);
                c.copy_from_slice(&cells0);
                a.fill(0.0);
            },
            |()| {
                let (p, v, c, a) = &mut *state.borrow_mut();
                hand(p, v, c, a)
            },
            BatchSize::SmallInput,
        )
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
    targets = bench_executor_vs_hand, bench_move_deposit
}
criterion_main!(benches, executor);
