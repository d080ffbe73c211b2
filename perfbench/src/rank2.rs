//! `fempic_duct_2rank`: the duct problem on two in-process ranks.
//!
//! Each rank runs `ExecPolicy::Seq` and steps through inject →
//! calc_pos_vel → move → `migrate_particles` → deposit →
//! `allreduce_vec_sum` → field_solve, the sequence of
//! `oppic_bench::distributed::run_fempic_distributed` (per-rank seed,
//! injection share and directional partition included). Each rank body
//! runs under a rayon thread budget of nproc / ranks: `CsrMatrix::spmv`
//! calls rayon whatever the `ExecPolicy`, so without the budget every
//! rank would fan each CG iteration out over all cores.

use crate::fempic_wl::{assert_traceable, duct_config};
use crate::outcome::{close, compare_counts, dispatch_us, Counts, Outcome, PerLayer, Segment};
use crate::single::{BLOCK, SETUP_REPS};
use crate::trace::{process_cpu, thread_cpu, timed, Layer, Trace};
use oppic_core::ExecPolicy;
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mesh::Vec3;
use oppic_mpi::partition::directional_partition;
use oppic_mpi::{migrate_particles, world_run, RankCtx};
use std::time::{Duration, Instant};

pub const RANKS: usize = 2;
/// Steps before timing; as for the single-process duct.
const WARMUP: usize = 25;

/// One rank's simulation and the cell → rank map.
pub struct RankSim {
    pub sim: FemPic,
    cell_rank: Vec<u32>,
}

/// What one distributed step did on one rank.
#[derive(Clone, Debug)]
pub struct RankStep {
    /// Local live particles after the step.
    pub live: usize,
    pub injected: usize,
    pub counts: Counts,
    /// Globally reduced node charge (identical on every rank).
    pub charge: f64,
}

impl RankSim {
    /// Rank `rank`'s share of `base`, configured as
    /// `run_fempic_distributed` configures it.
    pub fn build(base: &FemPicConfig, rank: usize, n_ranks: usize) -> Self {
        let mut cfg = base.clone();
        cfg.inject_per_step = (base.inject_per_step / n_ranks).max(1);
        cfg.seed = base.seed.wrapping_add(rank as u64 * 0x9E37);
        cfg.policy = ExecPolicy::Seq;
        assert_traceable(&cfg);
        let sim = FemPic::new(cfg);
        let centroids: Vec<Vec3> = (0..sim.mesh.n_cells())
            .map(|c| sim.mesh.cell_centroid(c))
            .collect();
        let cell_rank = directional_partition(&centroids, 1, n_ranks);
        RankSim { sim, cell_rank }
    }

    /// One distributed step; with `tr`, each layer call is timed.
    pub fn step(&mut self, ctx: &mut RankCtx, mut tr: Option<&mut Trace>) -> RankStep {
        let t0 = Instant::now();
        let bytes0 = ctx.sent_bytes();
        let sim = &mut self.sim;
        let tel = sim.profiler.telemetry().clone();
        let _cur = tel.make_current();
        let injected = timed(&mut tr, Layer::FemInject, || sim.inject());
        timed(&mut tr, Layer::FemPush, || sim.calc_pos_vel());
        let removed = timed(&mut tr, Layer::FemMove, || sim.move_particles());
        let leavers: Vec<(usize, u32, i32)> = sim
            .ps
            .cells()
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| {
                let owner = self.cell_rank[c as usize];
                (owner != ctx.rank as u32).then_some((i, owner, c))
            })
            .collect();
        timed(&mut tr, Layer::MpiMigrate, || {
            migrate_particles(ctx, &mut sim.ps, &leavers)
        });
        timed(&mut tr, Layer::FemDeposit, || sim.deposit_charge());
        let reduced = timed(&mut tr, Layer::MpiAllreduce, || {
            ctx.allreduce_vec_sum(sim.node_charge.raw())
        });
        sim.node_charge.raw_mut().copy_from_slice(&reduced);
        let cg_iters = timed(&mut tr, Layer::FemSolve, || sim.field_solve());
        if let Some(t) = tr {
            t.end_step(t0.elapsed());
        }
        RankStep {
            live: sim.ps.len(),
            injected,
            counts: Counts {
                visits: sim.last_move.total_visits,
                removed: removed as u64,
                cg_iters: cg_iters as u64,
                migrated: leavers.len() as u64,
                bytes: ctx.sent_bytes() - bytes0,
            },
            charge: sim.node_charge.sum(),
        }
    }

    fn invocations(&self) -> u64 {
        self.sim.profiler.telemetry().counter("parloop.invocations")
    }

    /// Run `n` steps, appending each step's times to `times`.
    fn steps(
        &mut self,
        ctx: &mut RankCtx,
        n: usize,
        mut tr: Option<&mut Trace>,
        times: &mut StepTimes,
    ) -> Vec<RankStep> {
        (0..n)
            .map(|_| {
                let (t, c) = (Instant::now(), thread_cpu());
                let st = self.step(ctx, tr.as_deref_mut());
                times.cpu.push((thread_cpu() - c).as_secs_f64());
                times.wall.push(t.elapsed().as_secs_f64());
                st
            })
            .collect()
    }
}

/// Seconds of each step one rank ran, on the wall clock and on this
/// rank thread's CPU clock.
#[derive(Default)]
struct StepTimes {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// Run the rank body of every rank under a rayon budget of
/// nproc / ranks threads.
fn run_world<R: Send>(nproc: usize, body: impl Fn(&mut RankCtx) -> R + Sync) -> Vec<R> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads((nproc / RANKS).max(1))
        .build()
        .expect("building a rayon shim pool cannot fail");
    world_run(RANKS, |ctx| pool.install(|| body(ctx)))
}

/// `steps` distributed steps of `base` from a fresh start, traced or
/// not: returns the global particle count and the reduced node charge,
/// the two numbers `run_fempic_distributed` reports as
/// `total_particles` and `check_scalar`.
pub fn run_fixed(base: &FemPicConfig, nproc: usize, steps: usize, traced: bool) -> (usize, f64) {
    let per_rank = run_world(nproc, |ctx| {
        let mut rs = RankSim::build(base, ctx.rank, ctx.n_ranks);
        let mut tr = Trace::default();
        for _ in 0..steps {
            rs.step(ctx, traced.then_some(&mut tr));
        }
        (rs.sim.ps.len(), rs.sim.node_charge.sum())
    });
    (per_rank.iter().map(|r| r.0).sum(), per_rank[0].1)
}

/// Per-step global checks over `recs`, given the global count before
/// the first: the count moves only by injection and removal (migration
/// conserves it), and the reduced charge equals count × `q`. Collective;
/// returns the global count per step and one error per failed step.
fn verify_global(
    ctx: &mut RankCtx,
    q: f64,
    before: f64,
    recs: &[RankStep],
) -> (Vec<f64>, Vec<String>) {
    let live: Vec<f64> = recs.iter().map(|r| r.live as f64).collect();
    let delta: Vec<f64> = recs
        .iter()
        .map(|r| r.injected as f64 - r.counts.removed as f64)
        .collect();
    let g_live = ctx.allreduce_vec_sum(&live);
    let g_delta = ctx.allreduce_vec_sum(&delta);
    let mut prev = before;
    let mut errs = Vec::new();
    for (k, (r, (&n, &dn))) in recs.iter().zip(g_live.iter().zip(&g_delta)).enumerate() {
        let step_ok = if n != prev + dn {
            Err(format!(
                "2-rank step {k}: global count {n} != {prev} + {dn}"
            ))
        } else {
            close(&format!("2-rank step {k} charge"), r.charge, n * q, 1e-9)
        };
        if let Err(e) = step_ok {
            errs.push(e);
        }
        prev = n;
    }
    (g_live, errs)
}

/// Everything one rank hands back.
#[derive(Default)]
struct RankOut {
    /// Local checks (this rank's invariants and count replay), plus
    /// the global per-step checks on rank 0.
    checks: Outcome,
    setup_cpu_s: Vec<f64>,
    setup_s: Vec<f64>,
    step_s: StepTimes,
    cpu_s: f64,
    wall_s: f64,
    /// Global live particles per timed step.
    global_live: Vec<f64>,
    window: Vec<Counts>,
    window_live: u64,
    window_invocations: u64,
    trace: Trace,
    traced_s: f64,
    plain_s: f64,
    final_live: usize,
}

impl RankOut {
    fn global(&mut self, rank: usize, n_steps: usize, errs: Vec<String>) {
        if rank == 0 {
            self.checks.attempted += n_steps as u64;
            self.checks.failures.extend(errs);
        }
    }
}

/// Build the rank [`SETUP_REPS`] times into `out`; each rep's wall time
/// is the slowest rank's, and its process CPU time covers both ranks'
/// builds. Keeps the first two builds.
fn setup(ctx: &mut RankCtx, base: &FemPicConfig, out: &mut RankOut) -> (RankSim, RankSim) {
    let mut kept = Vec::with_capacity(2);
    for _ in 0..SETUP_REPS {
        ctx.barrier();
        let (t, c) = (Instant::now(), process_cpu());
        let rs = RankSim::build(base, ctx.rank, ctx.n_ranks);
        let dt = t.elapsed().as_secs_f64();
        // Returns once every rank has built.
        out.setup_s.push(ctx.allreduce_max(dt));
        out.setup_cpu_s.push((process_cpu() - c).as_secs_f64());
        if kept.len() < 2 {
            kept.push(rs);
        }
    }
    let second = kept.pop().expect("two set-ups kept");
    let first = kept.pop().expect("two set-ups kept");
    (first, second)
}

/// Warm `rs` up and verify the warm-up steps; returns the global count
/// afterwards and the slowest rank's mean step time over the last ten
/// warm-up steps.
fn warm_up(ctx: &mut RankCtx, out: &mut RankOut, rs: &mut RankSim, traced: bool) -> (f64, f64) {
    let mut warm_trace = Trace::default();
    let mut times = StepTimes::default();
    let recs = rs.steps(ctx, WARMUP, traced.then_some(&mut warm_trace), &mut times);
    let (g_live, errs) = verify_global(ctx, rs.sim.cfg.charge, 0.0, &recs);
    out.global(ctx.rank, WARMUP, errs);
    let tail = &times.wall[WARMUP - 10..];
    let est = ctx.allreduce_max(tail.iter().sum::<f64>() / tail.len() as f64);
    (*g_live.last().expect("warm-up ran"), est)
}

fn untraced_rank(
    ctx: &mut RankCtx,
    base: &FemPicConfig,
    budget: Duration,
    replay: bool,
) -> RankOut {
    let mut out = RankOut::default();
    let (mut sim, mut twin) = setup(ctx, base, &mut out);
    let (before, est) = warm_up(ctx, &mut out, &mut sim, false);
    // Ranks must agree on the step count up front: every step is
    // collective.
    let n = ((budget.as_secs_f64() / est).ceil() as usize).max(BLOCK);

    let (t0, c0) = (Instant::now(), thread_cpu());
    let mut recs = sim.steps(ctx, BLOCK, None, &mut out.step_s);
    let window_invocations = sim.invocations();
    recs.extend(sim.steps(ctx, n - BLOCK, None, &mut out.step_s));
    out.cpu_s = (thread_cpu() - c0).as_secs_f64();
    out.wall_s = t0.elapsed().as_secs_f64();

    let q = sim.sim.cfg.charge;
    let (g_live, errs) = verify_global(ctx, q, before, &recs);
    out.global(ctx.rank, n, errs);
    out.global_live = g_live;
    out.checks.verify(sim.sim.check_invariants());

    if replay {
        // A second run of the same seed must reproduce the window's
        // counts.
        let mut ignored_s = StepTimes::default();
        twin.steps(ctx, WARMUP, None, &mut ignored_s);
        let replayed: Vec<Counts> = twin
            .steps(ctx, BLOCK, None, &mut ignored_s)
            .iter()
            .map(|r| r.counts)
            .collect();
        let window: Vec<Counts> = recs[..BLOCK].iter().map(|r| r.counts).collect();
        let mut errs = compare_counts(&format!("rank {} replay", ctx.rank), &window, &replayed);
        if window_invocations != twin.invocations() {
            errs.push(format!(
                "rank {} replay: parloop.invocations {window_invocations} vs {}",
                ctx.rank,
                twin.invocations()
            ));
        }
        out.checks.verify(if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        });
    }
    out
}

fn traced_rank(ctx: &mut RankCtx, base: &FemPicConfig, budget: Duration) -> RankOut {
    let t0 = Instant::now();
    let mut out = RankOut::default();
    let (mut traced, mut plain) = setup(ctx, base, &mut out);
    let (mut before_t, _) = warm_up(ctx, &mut out, &mut traced, true);
    let (mut before_p, est) = warm_up(ctx, &mut out, &mut plain, false);
    // Every step is collective, so the ranks agree on the round count.
    let left = budget.saturating_sub(t0.elapsed()).as_secs_f64();
    let rounds = ctx.allreduce_max((left / (2.0 * BLOCK as f64 * est)).ceil().max(2.0)) as usize;
    let q = plain.sim.cfg.charge;
    let mut ignored_s = StepTimes::default();
    for round in 0..rounds {
        let (inv_t, inv_p) = (traced.invocations(), plain.invocations());
        // The two turns swap places every round (see
        // `single::traced_part`).
        let (mut recs_t, mut recs_p) = (Vec::new(), Vec::new());
        let order = if round.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for traced_turn in order {
            let t = Instant::now();
            if traced_turn {
                recs_t = traced.steps(ctx, BLOCK, Some(&mut out.trace), &mut ignored_s);
                out.traced_s += t.elapsed().as_secs_f64();
            } else {
                recs_p = plain.steps(ctx, BLOCK, None, &mut ignored_s);
                out.plain_s += t.elapsed().as_secs_f64();
            }
        }

        if round == 0 {
            // The count window: both simulations ran the same steps of
            // the same seed.
            out.window = recs_t.iter().map(|r| r.counts).collect();
            out.window_live = recs_t.iter().map(|r| r.live as u64).sum();
            out.window_invocations = traced.invocations() - inv_t;
            let plain_window: Vec<Counts> = recs_p.iter().map(|r| r.counts).collect();
            let mut errs = compare_counts(
                &format!("rank {} traced vs untraced", ctx.rank),
                &out.window,
                &plain_window,
            );
            let dp = plain.invocations() - inv_p;
            if out.window_invocations != dp {
                errs.push(format!(
                    "rank {}: parloop.invocations traced {} vs untraced {dp}",
                    ctx.rank, out.window_invocations
                ));
            }
            out.checks.verify(if errs.is_empty() {
                Ok(())
            } else {
                Err(errs.join("; "))
            });
        }
        for (recs, before) in [(&recs_t, &mut before_t), (&recs_p, &mut before_p)] {
            let (g_live, errs) = verify_global(ctx, q, *before, recs);
            out.global(ctx.rank, BLOCK, errs);
            *before = *g_live.last().expect("block ran");
        }
    }
    out.checks.verify(traced.sim.check_invariants());
    out.checks.verify(plain.sim.check_invariants());
    out.final_live = plain.sim.ps.len();
    out
}

/// Fold the ranks' local checks into one tally.
fn merge_checks(ranks: &mut [RankOut]) -> Outcome {
    let mut out = Outcome::default();
    for r in ranks.iter_mut() {
        out.attempted += r.checks.attempted;
        out.failures.append(&mut r.checks.failures);
    }
    out
}

/// One untraced segment (see [`crate::single::segment`]). Step and
/// loop CPU times are summed over the ranks, set-up CPU times cover
/// both ranks' builds; wall times are the slowest rank's.
pub fn segment(seed: u64, budget: Duration, nproc: usize, replay: bool) -> Segment {
    let base = duct_config(seed, ExecPolicy::Seq);
    let mut ranks = run_world(nproc, |ctx| untraced_rank(ctx, &base, budget, replay));
    let steps = ranks[0].step_s.wall.len();
    let r0 = &ranks[0];
    Segment {
        cpu_s: ranks.iter().map(|r| r.cpu_s).sum(),
        wall_s: ranks.iter().map(|r| r.wall_s).fold(0.0, f64::max),
        pushes: r0.global_live.iter().sum::<f64>() as u64,
        step_cpu_ms: (0..steps)
            .map(|k| ranks.iter().map(|r| r.step_s.cpu[k]).sum::<f64>() * 1e3)
            .collect(),
        step_ms: (0..steps)
            .map(|k| ranks.iter().map(|r| r.step_s.wall[k]).fold(0.0, f64::max) * 1e3)
            .collect(),
        setup_cpu_s: r0.setup_cpu_s.clone(),
        setup_s: r0.setup_s.clone(),
        checks: merge_checks(&mut ranks),
    }
}

/// One process's part of a traced run (see
/// [`crate::single::traced_part`]). Layer times are means over ranks;
/// counts are summed over ranks (CG iterations: the replicated solve
/// runs on every rank, so its count is the per-rank mean); turn times
/// are the slowest rank's.
pub fn traced_part(seed: u64, budget: Duration, nproc: usize) -> (PerLayer, Outcome) {
    let base = duct_config(seed, ExecPolicy::Seq);
    let dispatch = dispatch_us(nproc);
    let mut ranks = run_world(nproc, |ctx| traced_rank(ctx, &base, budget));
    let out = merge_checks(&mut ranks);
    let mut pl = PerLayer {
        dispatch_us: dispatch,
        ..PerLayer::default()
    };
    for r in &ranks {
        pl.trace.merge(&r.trace);
    }
    let window: Vec<Counts> = ranks
        .iter()
        .flat_map(|r| r.window.iter().copied())
        .collect();
    let invocations = ranks.iter().map(|r| r.window_invocations).sum::<u64>() / RANKS as u64;
    let visits = pl.set_window(&window, BLOCK, invocations);
    pl.cg_iters_per_step /= RANKS as f64;
    let live: u64 = ranks.iter().map(|r| r.window_live).sum();
    pl.move_visits_per_particle = visits as f64 / live.max(1) as f64;
    let max_live = ranks.iter().map(|r| r.final_live).max().unwrap_or(0) as f64;
    let mean_live = ranks.iter().map(|r| r.final_live).sum::<usize>() as f64 / RANKS as f64;
    pl.imbalance = max_live / mean_live.max(1.0);
    let slowest = |f: fn(&RankOut) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
    pl.traced_s = slowest(|r| r.traced_s);
    pl.plain_s = slowest(|r| r.plain_s);
    (pl, out)
}
