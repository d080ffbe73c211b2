//! The closed loop of the single-process workloads: one
//! simulation, each step issued when the previous one returns.

use crate::outcome::{compare_counts, dispatch_us, Counts, Outcome, PerLayer, Segment};
use crate::trace::{process_cpu, Trace};
use oppic_core::ExecPolicy;
use std::time::{Duration, Instant};

/// Set-ups per segment; `setup_s` is the median over all segments'.
pub const SETUP_REPS: usize = 5;
/// Steps in a count window, and in each turn of a traced run. Also the
/// fewest timed steps of an untraced segment, so that a run's
/// `step_cpu_ms_p90` has well over 10 samples above it.
pub const BLOCK: usize = 20;

/// One verified step.
#[derive(Clone, Debug)]
pub struct StepRec {
    /// Live particles after the step.
    pub live: usize,
    pub counts: Counts,
    /// The step's own output checks.
    pub check: Result<(), String>,
}

/// A single-process app at one workload's configuration.
pub trait AppSim: Sized {
    /// Steps before timing starts.
    const WARMUP: usize;
    fn build(seed: u64, policy: ExecPolicy) -> Self;
    /// One call of the app's own `step()`.
    fn step(&mut self) -> StepRec;
    /// The same step, stage by stage, each layer call timed into `tr`.
    fn traced_step(&mut self, tr: &mut Trace) -> StepRec;
    /// The `parloop.invocations` telemetry counter so far.
    fn invocations(&self) -> u64;
    /// Whole-state invariants (`check_invariants`).
    fn check(&self) -> Result<(), String>;
    /// Store the window's move visits per particle under this app's
    /// metric.
    fn set_visits(pl: &mut PerLayer, visits_per_particle: f64);
}

/// Run `f` under a rayon budget of one thread, so that every parallel
/// call in it (`CsrMatrix::spmv` calls rayon even under `Seq`) runs
/// inline on this thread.
pub fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a rayon shim pool cannot fail")
        .install(f)
}

/// One untraced segment: set-ups, warm-up and a timed loop of `step()`
/// under `ExecPolicy::Seq` on one thread. With `replay`, a second
/// simulation of the same seed must then reproduce the first [`BLOCK`]
/// timed steps' counts exactly.
pub fn segment<S: AppSim>(seed: u64, budget: Duration, replay: bool) -> Segment {
    one_thread(|| seq_segment::<S>(seed, budget, replay))
}

fn seq_segment<S: AppSim>(seed: u64, budget: Duration, replay: bool) -> Segment {
    let mut seg = Segment::default();
    let mut kept = Vec::with_capacity(2);
    for _ in 0..SETUP_REPS {
        let (t, c) = (Instant::now(), process_cpu());
        let sim = S::build(seed, ExecPolicy::Seq);
        seg.setup_cpu_s.push((process_cpu() - c).as_secs_f64());
        seg.setup_s.push(t.elapsed().as_secs_f64());
        if kept.len() < 2 {
            kept.push(sim);
        }
    }
    let mut twin = kept.pop().expect("two set-ups kept");
    let mut sim = kept.pop().expect("two set-ups kept");

    let checks = &mut seg.checks;
    for _ in 0..S::WARMUP {
        checks.verify(sim.step().check);
    }
    let mut window = Vec::with_capacity(BLOCK);
    let mut window_invocations = 0;
    let (t0, c0) = (Instant::now(), process_cpu());
    loop {
        let (t, c) = (Instant::now(), process_cpu());
        let st = sim.step();
        seg.step_cpu_ms
            .push((process_cpu() - c).as_secs_f64() * 1e3);
        seg.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        seg.pushes += st.live as u64;
        if window.len() < BLOCK {
            window.push(st.counts);
            if window.len() == BLOCK {
                window_invocations = sim.invocations();
            }
        }
        checks.verify(st.check);
        if seg.step_ms.len() >= BLOCK && t0.elapsed() >= budget {
            break;
        }
    }
    seg.cpu_s = (process_cpu() - c0).as_secs_f64();
    seg.wall_s = t0.elapsed().as_secs_f64();
    checks.verify(sim.check());

    if replay {
        for _ in 0..S::WARMUP {
            twin.step();
        }
        let replayed: Vec<Counts> = (0..BLOCK).map(|_| twin.step().counts).collect();
        let mut errs = compare_counts("replay", &window, &replayed);
        if window_invocations != twin.invocations() {
            errs.push(format!(
                "replay: parloop.invocations {window_invocations} vs {}",
                twin.invocations()
            ));
        }
        checks.verify(if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        });
    }
    seg
}

/// The simulations of a traced run.
#[derive(Clone, Copy)]
enum Mode {
    Traced,
    Plain,
    Par,
}

/// One process's part of a traced run (see `crate::run_traced`). Three
/// simulations of the same seed advance in interleaved turns of
/// [`BLOCK`] steps, so drift in the problem or the host affects all
/// three alike: traced `Seq` and untraced `Seq`, both on one thread as
/// in [`segment`] (`trace.overhead_frac`), and untraced `Par` at nproc
/// threads (`rayon.par_over_seq`). `Par` goes first in every round and
/// the two `Seq` turns swap places every round, so neither `Seq`
/// simulation always follows the multi-threaded one. The first round's
/// traced and untraced turns are the count window; they cover the same
/// steps of the same seed, so their counts must agree exactly. `budget`
/// covers the whole part, set-up included; it runs at least two rounds.
pub fn traced_part<S: AppSim>(seed: u64, budget: Duration, nproc: usize) -> (PerLayer, Outcome) {
    let t0 = Instant::now();
    let mut out = Outcome::default();
    let mut pl = PerLayer {
        dispatch_us: dispatch_us(nproc),
        ..PerLayer::default()
    };
    let mut traced = S::build(seed, ExecPolicy::Seq);
    let mut plain = S::build(seed, ExecPolicy::Seq);
    let mut par = S::build(seed, ExecPolicy::Par);
    let mut warm_trace = Trace::default();
    for _ in 0..S::WARMUP {
        one_thread(|| {
            out.verify(traced.traced_step(&mut warm_trace).check);
            out.verify(plain.step().check);
        });
        out.verify(par.step().check);
    }

    // Seconds per mode, indexed by `Mode`.
    let mut secs = [0.0f64; 3];
    let mut window_traced = Vec::with_capacity(BLOCK);
    let mut window_plain = Vec::with_capacity(BLOCK);
    let mut window_live = 0u64;
    let (inv_traced, inv_plain) = (traced.invocations(), plain.invocations());
    let mut rounds = 0usize;
    while rounds < 2 || t0.elapsed() < budget {
        let order = if rounds.is_multiple_of(2) {
            [Mode::Par, Mode::Traced, Mode::Plain]
        } else {
            [Mode::Par, Mode::Plain, Mode::Traced]
        };
        for mode in order {
            let t = Instant::now();
            for _ in 0..BLOCK {
                let st = match mode {
                    Mode::Traced => one_thread(|| traced.traced_step(&mut pl.trace)),
                    Mode::Plain => one_thread(|| plain.step()),
                    Mode::Par => par.step(),
                };
                if rounds == 0 {
                    match mode {
                        Mode::Traced => {
                            window_traced.push(st.counts);
                            window_live += st.live as u64;
                        }
                        Mode::Plain => window_plain.push(st.counts),
                        Mode::Par => {}
                    }
                }
                out.verify(st.check);
            }
            secs[mode as usize] += t.elapsed().as_secs_f64();
        }

        if rounds == 0 {
            let (dt, dp) = (
                traced.invocations() - inv_traced,
                plain.invocations() - inv_plain,
            );
            let mut errs = compare_counts("traced vs untraced", &window_traced, &window_plain);
            if dt != dp {
                errs.push(format!("parloop.invocations traced {dt} vs untraced {dp}"));
            }
            out.verify(if errs.is_empty() {
                Ok(())
            } else {
                Err(errs.join("; "))
            });
            let visits = pl.set_window(&window_traced, BLOCK, dt);
            S::set_visits(&mut pl, visits as f64 / window_live.max(1) as f64);
        }
        rounds += 1;
    }
    for sim in [&traced, &plain, &par] {
        out.verify(sim.check());
    }
    [pl.traced_s, pl.plain_s, pl.par_s] = secs;
    (pl, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_budget_is_scoped() {
        let outside = rayon::current_num_threads();
        assert_eq!(one_thread(rayon::current_num_threads), 1);
        assert_eq!(rayon::current_num_threads(), outside);
    }
}
