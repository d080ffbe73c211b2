//! What one run reports: verification tally and metrics.

use crate::trace::{median, quantile, Layer, Trace};
use oppic_core::parloop::par_loop_direct1;
use oppic_core::{Dat, ExecPolicy};
use std::collections::BTreeMap;
use std::str::FromStr;
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-step counts that must repeat exactly at a fixed seed and thread
/// count. Fields a workload does not exercise stay 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Move-kernel visits (fempic `MoveResult::total_visits`, cabana
    /// `move_deposit` cells visited).
    pub visits: u64,
    /// Particles removed by the move.
    pub removed: u64,
    /// CG iterations of the field solve.
    pub cg_iters: u64,
    /// Particles this rank shipped to another rank.
    pub migrated: u64,
    /// Payload bytes this rank sent during the step.
    pub bytes: u64,
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Verified operations (steps, plus whole-run checks).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Informational `key=value` lines (sample counts, thread counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one verified operation; `Err` counts it as failed.
    pub fn verify(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(e);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Raw data of one untraced timed loop in one process. An untraced run
/// measures several segments, each in a fresh child process, and
/// merges them with [`end_to_end`].
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Process CPU time of the timed loop (`trace::process_cpu`).
    pub cpu_s: f64,
    /// Wall time of the timed loop.
    pub wall_s: f64,
    /// Live particles summed over the timed steps.
    pub pushes: u64,
    /// Process CPU time of each timed step.
    pub step_cpu_ms: Vec<f64>,
    /// Wall time of each timed step.
    pub step_ms: Vec<f64>,
    /// Process CPU time of each set-up.
    pub setup_cpu_s: Vec<f64>,
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Verification tally (no metrics).
    pub checks: Outcome,
}

impl Segment {
    /// The lines a child process prints for its parent.
    pub fn encode(&self) -> String {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "cpu_s {}\nwall_s {}\npushes {}\nstep_cpu_ms {}\nstep_ms {}\nsetup_cpu_s {}\nsetup_s {}\n{}",
            self.cpu_s,
            self.wall_s,
            self.pushes,
            join(&self.step_cpu_ms),
            join(&self.step_ms),
            join(&self.setup_cpu_s),
            join(&self.setup_s),
            encode_tally(&self.checks)
        )
    }

    /// Parse [`Segment::encode`] output.
    pub fn decode(text: &str) -> Result<Self, String> {
        let (fields, checks) = decode_lines(text)?;
        Ok(Segment {
            cpu_s: field(&fields, "cpu_s")?,
            wall_s: field(&fields, "wall_s")?,
            pushes: field(&fields, "pushes")?,
            step_cpu_ms: list(&fields, "step_cpu_ms")?,
            step_ms: list(&fields, "step_ms")?,
            setup_cpu_s: list(&fields, "setup_cpu_s")?,
            setup_s: list(&fields, "setup_s")?,
            checks,
        })
    }
}

/// Child output is one `key value` line per field; floats print with
/// all their digits. These are the lines of the verification tally.
fn encode_tally(checks: &Outcome) -> String {
    let mut s = format!("attempted {}\n", checks.attempted);
    for f in &checks.failures {
        s += &format!("failure {}\n", f.replace('\n', " "));
    }
    s
}

/// Split child output into its fields and its verification tally.
fn decode_lines(text: &str) -> Result<(BTreeMap<&str, &str>, Outcome), String> {
    let mut fields = BTreeMap::new();
    let mut checks = Outcome::default();
    for line in text.lines() {
        match line.split_once(' ').unwrap_or((line, "")) {
            ("failure", msg) => checks.failures.push(msg.to_string()),
            (key, value) => {
                fields.insert(key, value);
            }
        }
    }
    checks.attempted = field(&fields, "attempted")?;
    Ok((fields, checks))
}

fn field<T: FromStr>(fields: &BTreeMap<&str, &str>, key: &str) -> Result<T, String> {
    let value = fields
        .get(key)
        .ok_or_else(|| format!("child output lacks {key}"))?;
    value
        .parse()
        .map_err(|_| format!("child output {key}: bad value {value:?}"))
}

/// A non-empty list of numbers.
fn list(fields: &BTreeMap<&str, &str>, key: &str) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = field::<String>(fields, key)?
        .split_whitespace()
        .map(|x| {
            x.parse()
                .map_err(|_| format!("child output {key}: bad number {x:?}"))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err(format!("child output {key}: empty"));
    }
    Ok(values)
}

/// The end-to-end metrics of an untraced run from its segments: steps
/// and pushes over the summed timed-loop CPU time, per-step quantiles
/// over every timed step, the median over every set-up. The same
/// figures on the wall clock go into `out.notes`; they are not metrics,
/// because on a shared host they measure the other tenants as much as
/// the code (METRICS.md). Also folds the segments' verification
/// tallies into `out`.
pub fn end_to_end(out: &mut Outcome, segments: &[Segment]) {
    let total = |f: fn(&Segment) -> f64| segments.iter().map(f).sum::<f64>();
    let all = |f: fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        segments.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let (cpu_s, wall_s) = (total(|s| s.cpu_s), total(|s| s.wall_s));
    let pushes = segments.iter().map(|s| s.pushes).sum::<u64>() as f64;
    let (step_cpu_ms, step_ms) = (all(|s| &s.step_cpu_ms), all(|s| &s.step_ms));
    let (setup_cpu_s, setup_s) = (all(|s| &s.setup_cpu_s), all(|s| &s.setup_s));
    for s in segments {
        out.attempted += s.checks.attempted;
        out.failures.extend(s.checks.failures.iter().cloned());
    }
    let steps = step_ms.len() as f64;
    out.metric("steps_per_cpu_s", steps / cpu_s, "1/s");
    out.metric("pushes_per_cpu_s", pushes / cpu_s, "1/s");
    out.metric("step_cpu_ms_p50", median(&step_cpu_ms), "ms");
    out.metric("step_cpu_ms_p90", quantile(&step_cpu_ms, 0.9), "ms");
    out.metric("setup_s", median(&setup_cpu_s), "s");
    let rates: Vec<f64> = segments
        .iter()
        .map(|s| s.step_cpu_ms.len() as f64 / s.cpu_s)
        .collect();
    out.notes.push(format!(
        "segments={} timed_steps={steps} p90_samples_beyond={} setup_reps={} segment_steps_per_cpu_s=[min {} median {} max {}]",
        segments.len(),
        step_ms.len() / 10,
        setup_s.len(),
        quantile(&rates, 0.0),
        median(&rates),
        quantile(&rates, 1.0),
    ));
    out.notes.push(format!(
        "wall clock: steps_per_s={} pushes_per_s={} step_ms_p50={} step_ms_p90={} setup_wall_s={} cpu_over_wall={}",
        steps / wall_s,
        pushes / wall_s,
        median(&step_ms),
        quantile(&step_ms, 0.9),
        median(&setup_s),
        cpu_s / wall_s,
    ));
}

/// Per-layer values of one traced run, or of one of its processes.
/// Layers a workload does not exercise stay 0 (see METRICS.md).
#[derive(Clone, Debug, Default)]
pub struct PerLayer {
    /// Layer busy times: the `*_ms` metrics and `trace.unattributed_frac`.
    pub trace: Trace,
    pub move_visits_per_particle: f64,
    pub removed_per_step: f64,
    pub invocations_per_step: f64,
    pub cg_iters_per_step: f64,
    pub dispatch_us: f64,
    pub migrated_per_step: f64,
    pub bytes_per_step: f64,
    pub imbalance: f64,
    pub cabana_visits_per_particle: f64,
    /// Seconds in the timed turns of the traced and the untraced
    /// simulation and of the untraced `Par` twin, which run equal step
    /// counts (`par_s` stays 0 where no `Par` twin runs).
    pub traced_s: f64,
    pub plain_s: f64,
    pub par_s: f64,
}

impl PerLayer {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn report(&self, out: &mut Outcome) {
        let tr = &self.trace;
        out.metric("fempic.inject_ms", tr.ms_per_step(Layer::FemInject), "ms");
        out.metric(
            "fempic.calc_pos_vel_ms",
            tr.ms_per_step(Layer::FemPush),
            "ms",
        );
        out.metric("fempic.move_ms", tr.ms_per_step(Layer::FemMove), "ms");
        out.metric("fempic.deposit_ms", tr.ms_per_step(Layer::FemDeposit), "ms");
        out.metric(
            "fempic.field_solve_ms",
            tr.ms_per_step(Layer::FemSolve),
            "ms",
        );
        out.metric(
            "core.move.visits_per_particle",
            self.move_visits_per_particle,
            "count",
        );
        out.metric("core.move.removed_per_step", self.removed_per_step, "count");
        out.metric(
            "core.parloop.invocations_per_step",
            self.invocations_per_step,
            "count",
        );
        out.metric("core.sort_ms", tr.ms_per_step(Layer::Sort), "ms");
        out.metric("linalg.cg_iters_per_step", self.cg_iters_per_step, "count");
        out.metric("rayon.dispatch_us", self.dispatch_us, "us");
        let par_over_seq = if self.par_s > 0.0 {
            self.plain_s / self.par_s
        } else {
            0.0
        };
        out.metric("rayon.par_over_seq", par_over_seq, "ratio");
        out.metric("mpi.migrate_ms", tr.ms_per_step(Layer::MpiMigrate), "ms");
        out.metric("mpi.migrated_per_step", self.migrated_per_step, "count");
        out.metric("mpi.bytes_per_step", self.bytes_per_step, "B");
        out.metric(
            "mpi.allreduce_ms",
            tr.ms_per_step(Layer::MpiAllreduce),
            "ms",
        );
        out.metric("mpi.imbalance", self.imbalance, "ratio");
        out.metric(
            "cabana.interpolate_ms",
            tr.ms_per_step(Layer::CabInterpolate),
            "ms",
        );
        out.metric(
            "cabana.move_deposit_ms",
            tr.ms_per_step(Layer::CabMoveDeposit),
            "ms",
        );
        out.metric(
            "cabana.accumulate_current_ms",
            tr.ms_per_step(Layer::CabAccumulate),
            "ms",
        );
        out.metric(
            "cabana.advance_b_ms",
            tr.ms_per_step(Layer::CabAdvanceB),
            "ms",
        );
        out.metric(
            "cabana.advance_e_ms",
            tr.ms_per_step(Layer::CabAdvanceE),
            "ms",
        );
        out.metric(
            "cabana.visits_per_particle",
            self.cabana_visits_per_particle,
            "count",
        );
        out.metric("trace.unattributed_frac", tr.unattributed_frac(), "frac");
        out.metric(
            "trace.overhead_frac",
            1.0 - self.plain_s / self.traced_s,
            "frac",
        );
    }

    /// Fill the per-step count metrics from a count window of `steps`
    /// steps (`window` may hold several ranks' counts) and the
    /// `parloop.invocations` made over it. Returns the window's move
    /// visits, for the app's visits-per-particle metric.
    pub fn set_window(&mut self, window: &[Counts], steps: usize, invocations: u64) -> u64 {
        let k = steps.max(1) as f64;
        let sum = |f: fn(&Counts) -> u64| window.iter().map(f).sum::<u64>();
        self.removed_per_step = sum(|c| c.removed) as f64 / k;
        self.cg_iters_per_step = sum(|c| c.cg_iters) as f64 / k;
        self.migrated_per_step = sum(|c| c.migrated) as f64 / k;
        self.bytes_per_step = sum(|c| c.bytes) as f64 / k;
        self.invocations_per_step = invocations as f64 / k;
        sum(|c| c.visits)
    }

    /// Every plain number, by name. `true` marks the values that come
    /// from the count window, which must repeat exactly at a fixed seed
    /// and thread count.
    fn scalars(&mut self) -> [(&'static str, bool, &mut f64); 12] {
        [
            ("dispatch_us", false, &mut self.dispatch_us),
            ("imbalance", false, &mut self.imbalance),
            ("traced_s", false, &mut self.traced_s),
            ("plain_s", false, &mut self.plain_s),
            ("par_s", false, &mut self.par_s),
            ("move_visits", true, &mut self.move_visits_per_particle),
            ("removed", true, &mut self.removed_per_step),
            ("invocations", true, &mut self.invocations_per_step),
            ("cg_iters", true, &mut self.cg_iters_per_step),
            ("migrated", true, &mut self.migrated_per_step),
            ("bytes", true, &mut self.bytes_per_step),
            ("cabana_visits", true, &mut self.cabana_visits_per_particle),
        ]
    }

    /// The count-window values, by name.
    fn window_counts(&mut self) -> Vec<(&'static str, f64)> {
        self.scalars()
            .into_iter()
            .filter(|(_, window, _)| *window)
            .map(|(name, _, v)| (name, *v))
            .collect()
    }

    /// The lines a traced child process prints for its parent, with
    /// its verification tally.
    pub fn encode(&self, checks: &Outcome) -> String {
        let mut s = format!("trace {}\n", self.trace.encode());
        for (name, _, v) in self.clone().scalars() {
            s += &format!("{name} {v}\n");
        }
        s + &encode_tally(checks)
    }

    /// Parse [`PerLayer::encode`] output.
    pub fn decode(text: &str) -> Result<(Self, Outcome), String> {
        let (fields, checks) = decode_lines(text)?;
        let mut pl = PerLayer {
            trace: Trace::decode(&field::<String>(&fields, "trace")?)?,
            ..PerLayer::default()
        };
        for (name, _, slot) in pl.scalars() {
            *slot = field(&fields, name)?;
        }
        Ok((pl, checks))
    }
}

/// The per-layer metrics of a traced run from its processes' parts:
/// layer times and mode seconds summed, `rayon.dispatch_us` the median
/// and `mpi.imbalance` the mean over parts. Every part ran the same
/// seed, so each part's count window must equal the first's; a
/// mismatch is a failed operation. Also folds the parts' verification
/// tallies into `out`.
pub fn per_layer(out: &mut Outcome, parts: &mut [(PerLayer, Outcome)]) {
    for (_, checks) in parts.iter_mut() {
        out.attempted += checks.attempted;
        out.failures.append(&mut checks.failures);
    }
    let Some(((first, _), rest)) = parts.split_first_mut() else {
        return;
    };
    let mut pl = first.clone();
    let want = first.window_counts();
    for (k, (part, _)) in rest.iter_mut().enumerate() {
        let got = part.window_counts();
        out.verify(if got == want {
            Ok(())
        } else {
            Err(format!(
                "traced part {}: count window {got:?} differs from part 0's {want:?}",
                k + 1
            ))
        });
        pl.trace.merge(&part.trace);
        pl.traced_s += part.traced_s;
        pl.plain_s += part.plain_s;
        pl.par_s += part.par_s;
        pl.imbalance += part.imbalance;
    }
    let n = parts.len();
    pl.imbalance /= n as f64;
    let dispatch: Vec<f64> = parts.iter().map(|(p, _)| p.dispatch_us).collect();
    pl.dispatch_us = median(&dispatch);
    out.notes
        .push(format!("traced_parts={n} traced_steps={}", pl.trace.steps));
    pl.report(out);
}

/// Median µs of one empty `par_loop_direct1(&ExecPolicy::Par, …)` over
/// an `nproc`-element dat: the rayon shim's per-loop dispatch cost.
pub fn dispatch_us(nproc: usize) -> f64 {
    const REPS: usize = 200;
    let mut d = Dat::zeros("dispatch probe", nproc, 1);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            par_loop_direct1(&ExecPolicy::Par, &mut d, |i, w| {
                std::hint::black_box((i, w));
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Compare the count window of one run against a replay of the same
/// steps; each mismatching step is one error.
pub fn compare_counts(what: &str, run: &[Counts], replay: &[Counts]) -> Vec<String> {
    let mut errs: Vec<String> = run
        .iter()
        .zip(replay)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(k, (a, b))| format!("{what}: window step {k} counts differ: {a:?} vs {b:?}"))
        .collect();
    if run.len() != replay.len() {
        errs.push(format!(
            "{what}: window lengths differ: {} vs {}",
            run.len(),
            replay.len()
        ));
    }
    errs
}

/// Relative agreement check: `|got - want| <= tol * max(|want|, 1e-300)`.
pub fn close(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    if (got - want).abs() <= tol * want.abs().max(1e-300) {
        Ok(())
    } else {
        Err(format!("{what}: {got} vs expected {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.verify(Ok(()));
        o.metric("steps_per_s", 12.5, "1/s");
        assert_eq!(
            o.json(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"steps_per_s": {"value": 12.5, "unit": "1/s"}}}"#
        );
        o.verify(Err("bad".into()));
        assert!(o
            .json()
            .starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
    }

    #[test]
    fn segments_round_trip_and_merge() {
        let seg = Segment {
            cpu_s: 0.1 + 0.2,
            wall_s: 0.4,
            pushes: 42,
            step_cpu_ms: vec![0.25, 2.0],
            step_ms: vec![1.0 / 3.0, 2.5],
            setup_cpu_s: vec![0.012],
            setup_s: vec![0.015],
            checks: Outcome {
                attempted: 3,
                failures: vec!["bad\nstep".into()],
                ..Outcome::default()
            },
        };
        let back = Segment::decode(&seg.encode()).unwrap();
        assert_eq!(back.cpu_s, seg.cpu_s);
        assert_eq!(back.step_cpu_ms, seg.step_cpu_ms);
        assert_eq!(back.step_ms, seg.step_ms);
        assert_eq!(back.setup_cpu_s, seg.setup_cpu_s);
        assert_eq!(back.checks.failures, ["bad step"]);
        assert!(Segment::decode("wall_s 1\n").is_err());

        let mut out = Outcome::default();
        end_to_end(&mut out, &[back.clone(), back]);
        assert_eq!(out.attempted, 6);
        assert_eq!(out.failures.len(), 2);
        assert_eq!(out.metrics[0].name, "steps_per_cpu_s");
        assert!((out.metrics[0].value - 4.0 / (2.0 * seg.cpu_s)).abs() < 1e-12);
        assert_eq!(out.metrics[4].name, "setup_s");
        assert_eq!(out.metrics[4].value, 0.012);
    }

    #[test]
    fn traced_parts_round_trip_and_merge() {
        let pl = PerLayer {
            removed_per_step: 1995.5,
            dispatch_us: 80.0,
            imbalance: 1.0,
            traced_s: 0.1 + 0.2,
            plain_s: 0.5,
            par_s: 0.25,
            ..PerLayer::default()
        };
        let checks = Outcome {
            attempted: 3,
            failures: vec!["bad\nstep".into()],
            ..Outcome::default()
        };
        let (back, back_checks) = PerLayer::decode(&pl.encode(&checks)).unwrap();
        assert_eq!(back.traced_s, pl.traced_s);
        assert_eq!(back.removed_per_step, pl.removed_per_step);
        assert_eq!(back_checks.failures, ["bad step"]);
        assert!(PerLayer::decode("traced_s 1\n").is_err());

        let mut other = back.clone();
        other.removed_per_step += 1.0;
        let mut parts = [
            (back.clone(), back_checks),
            (back, Outcome::default()),
            (other, Outcome::default()),
        ];
        let mut out = Outcome::default();
        per_layer(&mut out, &mut parts);
        // The part's own failure, plus the third part's count window.
        assert_eq!(out.failures.len(), 2);
        assert_eq!(out.attempted, 3 + 2);
        let value = |name| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!((value("rayon.par_over_seq") - 2.0).abs() < 1e-12);
        assert!((value("trace.overhead_frac") - (1.0 - 0.5 / 0.3)).abs() < 1e-12);
    }

    #[test]
    fn count_mismatch_is_reported_per_step() {
        let a = [
            Counts::default(),
            Counts {
                visits: 3,
                ..Default::default()
            },
        ];
        let b = [
            Counts::default(),
            Counts {
                visits: 4,
                ..Default::default()
            },
        ];
        assert_eq!(compare_counts("x", &a, &b).len(), 1);
        assert!(compare_counts("x", &a, &a).is_empty());
    }
}
