//! Chaos stage: seeded faults over the resilient distributed code
//! path.
//!
//! Each [`ChaosCell`] maps onto one scenario of the library's resilient
//! run loop ([`oppic_resilience::rankfail`]) and one Mini-FEM-PIC
//! config ([`cell_config`]): the Mini-FEM-PIC distributed step over
//! the reliable link (envelope + ack/retry migration and reductions
//! from `oppic-resilience`), checkpointed every two steps and rewound
//! to a shard when a step fails. The loop runs the cell twice: once
//! fault-free as the reference, once under its fault — a seeded
//! [`oppic_resilience::FaultSchedule`] on the data plane, a host-side
//! NaN soft error on one guarded rank, or a rank kill. The contract
//! the stage enforces is the resilience layer's whole point:
//!
//! * **Recovered** — the faulted run completes and its observables are
//!   *bit-identical* to the fault-free reference (retransmission and
//!   rollback-and-replay reconstruct the exact trajectory).
//! * **CleanAbort** — the faulted run gives up with a typed error on
//!   every affected rank. Acceptable, but evidence is written as a
//!   shrunk JSON reproducer (schema `oppic-chaos-repro-v1`) so CI's
//!   uncommitted-file check surfaces it.
//! * **SilentCorruption** — the run completed but diverged from the
//!   reference. Never acceptable; the stage exits non-zero.
//!
//! The verdict type and its classifier are the rank-failure
//! experiments' own ([`ChaosVerdict`] and `classify_shrink`, in
//! `oppic_resilience::rankfail`). A chaos cell is a [`Case`]: it shrinks,
//! writes and replays its reproducer through the same pipeline as a
//! differential cell, with its own fields and two shrink moves of its
//! own — the world steps down to two ranks, then an `Mpi` fault budget
//! halves toward one injection.
//!
//! See DESIGN.md §10 for the fault taxonomy and replay workflow.

use crate::report::{Case, Fields, Move};
use oppic_core::json::{self, Json};
use oppic_core::telemetry::{Telemetry, TelemetryEvent};
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_obs::recorder::FlightRecorder;
use oppic_obs::watchdog::{StepObs, Watchdog, WatchdogConfig, RULE_QUARANTINE, RULE_STEP_TIME};
pub use oppic_resilience::ChaosVerdict;
use oppic_resilience::{
    classify_shrink, run_scenario, DeathPolicy, Fault, FaultKind, KillSite, RankFailScenario,
    RetryPolicy,
};
use std::fmt;
use std::sync::Arc;

pub const CHAOS_SCHEMA: &str = "oppic-chaos-repro-v1";

/// Quiet-traffic retransmit timer (ms) used when no fault schedule is
/// armed (reference runs and the disarmed control). The short default
/// retry timer exists to recover *injected* faults; with nothing to
/// inject an expiry can only be scheduler noise on a loaded test box,
/// so clean traffic gets a timer that cannot plausibly fire. Cells
/// carry the value ([`ChaosCell::quiet_retransmit_ms`]) so reproducers
/// replay with the timing they were captured under.
pub const DEFAULT_QUIET_RETRANSMIT_MS: u64 = 500;

/// One point of the chaos matrix. Its [`Fault`] is the resilient
/// loop's: the disarmed control (proves the protocol itself is
/// bit-transparent), a seeded schedule on the data plane, a NaN soft
/// error healed by rewinding to the rank's last shard (one rank
/// whatever `ranks` says), or a rank kill whose survivors must detect,
/// agree, shrink and replay — bit-identical to the planned-shrink twin
/// — or abort cleanly under [`DeathPolicy::Abort`] (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    pub fault: Fault,
    /// Seeds the fault schedule and perturbs the injection stream.
    pub seed: u64,
    /// In-process ranks (1 for `NanInject` cells).
    pub ranks: usize,
    pub steps: usize,
    /// Particles injected per step across all ranks.
    pub particles: usize,
    /// Retry budget of the reliable link, and rewind budget of the run
    /// (0 disables both).
    pub max_retries: usize,
    /// Retransmit timer (ms) for fault-free links; see
    /// [`DEFAULT_QUIET_RETRANSMIT_MS`].
    pub quiet_retransmit_ms: u64,
}

impl ChaosCell {
    /// A cell of the disarmed-control shape: callers override the
    /// fault and sizing axes they exercise.
    pub fn base() -> ChaosCell {
        ChaosCell {
            fault: Fault::None,
            seed: 0,
            ranks: 2,
            steps: 3,
            particles: 24,
            max_retries: 8,
            quiet_retransmit_ms: DEFAULT_QUIET_RETRANSMIT_MS,
        }
    }

    /// Filesystem-safe identifier, unique per configuration.
    pub fn id(&self) -> String {
        let fault = match self.fault {
            Fault::None => "none".to_string(),
            Fault::Network { kind, rate, budget } => {
                format!(
                    "{}{:03}q{}",
                    kind.name(),
                    (rate * 100.0).round() as u32,
                    budget
                )
            }
            Fault::SoftError { step } => format!("nan{step}"),
            Fault::RankKill {
                rank,
                step,
                site,
                policy,
            } => {
                let abort = if policy == DeathPolicy::Abort {
                    "-abort"
                } else {
                    ""
                };
                format!("kill{rank}at{step}-{}{abort}", site.name())
            }
        };
        let timer = if self.quiet_retransmit_ms == DEFAULT_QUIET_RETRANSMIT_MS {
            String::new()
        } else {
            format!("-q{}", self.quiet_retransmit_ms)
        };
        format!(
            "chaos-{fault}-x{:x}-r{}-s{}-p{}-t{}{timer}",
            self.seed, self.ranks, self.steps, self.particles, self.max_retries
        )
    }
}

impl fmt::Display for ChaosCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// One executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub cell: ChaosCell,
    pub verdict: ChaosVerdict,
    /// Flight-recorder dump (`OPFR` binary) of the faulted run, written
    /// beside the reproducer by the conformance binary: the first
    /// rank's whose hub raised an alert (a rollback or a death
    /// verdict), whether it then recovered or aborted.
    pub recorder_dump: Option<Vec<u8>>,
}

impl ChaosReport {
    pub fn recovered(&self) -> bool {
        matches!(self.verdict, ChaosVerdict::Recovered { .. })
    }

    pub fn failure_lines(&self) -> Vec<String> {
        match &self.verdict {
            ChaosVerdict::Recovered { .. } => Vec::new(),
            ChaosVerdict::CleanAbort { errors } => errors.clone(),
            ChaosVerdict::SilentCorruption { failures } => failures.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Every cell runs the library's resilient loop over Mini-FEM-PIC
// ---------------------------------------------------------------------------

/// Map a chaos cell onto its rank-failure scenario, clamping so every
/// point the shrinker can reach stays a valid experiment: a NaN cell
/// runs on one rank, a kill's victim exists, its step is in range, and
/// a `Checkpoint`-site kill lands on an actual boundary. Network-fault
/// and control cells abort on a failed collective (only a kill's
/// survivors may shrink); faulted links get
/// the short default retransmit timer, clean ones the cell's quiet one.
pub fn cell_scenario(cell: &ChaosCell) -> RankFailScenario {
    let mut sc = RankFailScenario::baseline();
    sc.ranks = cell.ranks;
    sc.steps = cell.steps;
    sc.seed = cell.seed;
    sc.checkpoint_every = 2;
    sc.fault = cell.fault;
    sc.max_retries = cell.max_retries;
    if !matches!(cell.fault, Fault::RankKill { .. }) {
        sc.retransmit_ms = cell.quiet_retransmit_ms;
    }
    match cell.fault {
        Fault::None => {}
        Fault::Network { .. } => {
            sc.retransmit_ms = RetryPolicy::default().base_timeout.as_millis() as u64;
        }
        Fault::SoftError { .. } => sc.ranks = 1,
        Fault::RankKill {
            rank,
            step,
            site,
            policy,
        } => {
            sc.ranks = cell.ranks.max(2);
            sc.steps = cell.steps.max(2);
            let mut step = step.clamp(1, sc.steps);
            if site == KillSite::Checkpoint {
                step = (step / sc.checkpoint_every * sc.checkpoint_every).max(sc.checkpoint_every);
            }
            sc.fault = Fault::RankKill {
                rank: rank % sc.ranks,
                step,
                site,
                policy,
            };
        }
    }
    sc
}

/// The world a chaos cell runs: the tiny Mini-FEM-PIC duct with the
/// cell's particles per step and its seed folded into the injection
/// stream. A NaN cell runs guarded (bit-identical to unguarded on
/// healthy steps), so its quarantine sees the poisoned particle.
pub fn cell_config(cell: &ChaosCell) -> FemPicConfig {
    FemPicConfig {
        guard_numerics: matches!(cell.fault, Fault::SoftError { .. }),
        ..FemPicConfig::tiny_seeded(cell.particles, cell.seed)
    }
}

/// Execute one cell: the reference and the faulted run through the
/// one resilient loop, then the one classifier.
pub fn run_chaos_cell(cell: &ChaosCell) -> ChaosReport {
    let sc = cell_scenario(cell);
    let cfg = cell_config(cell);
    let mut reference = sc.twin();
    if sc.victim().is_none() {
        reference.retransmit_ms = cell.quiet_retransmit_ms;
    }
    let reference = run_scenario::<FemPic>(&reference, &cfg);
    let faulted = run_scenario::<FemPic>(&sc, &cfg);
    ChaosReport {
        cell: cell.clone(),
        verdict: classify_shrink(&sc, &reference, &faulted),
        recorder_dump: faulted.iter().find_map(|out| match out {
            Ok(fin) => fin.as_ref()?.recorder_dump.clone(),
            Err(abort) => abort.recorder_dump.clone(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Matrices
// ---------------------------------------------------------------------------

fn mpi_cell(kind: FaultKind, seed: u64, rate: f64, budget: u64, ranks: usize) -> ChaosCell {
    ChaosCell {
        fault: Fault::Network { kind, rate, budget },
        seed,
        ranks,
        ..ChaosCell::base()
    }
}

/// CI-sized chaos matrix: every recoverable fault kind under a couple
/// of seeds, a sub-unity mixed-rate cell, the disarmed control, and a
/// rollback-and-replay soft-error cell.
pub fn chaos_quick_matrix() -> Vec<ChaosCell> {
    let mut cells = vec![ChaosCell::base()];
    let kinds = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Delay,
        FaultKind::BitFlip,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        for s in 0..2u64 {
            cells.push(mpi_cell(kind, 0x11 + 7 * i as u64 + s, 1.0, 3, 2));
        }
    }
    // Sub-unity rate on a wider world: faults interleave with clean
    // traffic instead of front-loading.
    cells.push(mpi_cell(FaultKind::Drop, 0x51, 0.3, 6, 3));
    cells.push(ChaosCell {
        fault: Fault::SoftError { step: 3 },
        seed: 5,
        ranks: 1,
        steps: 5,
        particles: 8,
        max_retries: 4,
        ..ChaosCell::base()
    });
    // One rank-kill cell: mid-step fail-stop on a 3-rank world, the
    // survivors shrink and replay (DESIGN.md §13).
    cells.push(ChaosCell {
        fault: Fault::RankKill {
            rank: 1,
            step: 4,
            site: KillSite::Step,
            policy: DeathPolicy::Shrink,
        },
        seed: 0x71,
        ranks: 3,
        steps: 6,
        particles: 36,
        max_retries: 6,
        ..ChaosCell::base()
    });
    cells
}

/// The full chaos matrix: all six fault kinds (including `Stall`),
/// more seeds, wider worlds, and two soft-error cells.
pub fn chaos_full_matrix() -> Vec<ChaosCell> {
    let mut cells = chaos_quick_matrix();
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        for s in 0..3u64 {
            cells.push(mpi_cell(kind, 0xA0 + 13 * i as u64 + s, 1.0, 4, 3));
        }
        cells.push(mpi_cell(kind, 0xF0 + i as u64, 0.5, 8, 2));
    }
    cells.push(ChaosCell {
        fault: Fault::SoftError { step: 2 },
        seed: 9,
        ranks: 1,
        steps: 8,
        particles: 12,
        max_retries: 4,
        ..ChaosCell::base()
    });
    // Rank kills at every site on a 4-rank world, plus killing rank 0
    // (the collective root must move to the surviving leader).
    for (i, site) in [KillSite::Step, KillSite::Exchange, KillSite::Checkpoint]
        .into_iter()
        .enumerate()
    {
        cells.push(ChaosCell {
            fault: Fault::RankKill {
                rank: 2,
                step: 4,
                site,
                policy: DeathPolicy::Shrink,
            },
            seed: 0xC0 + i as u64,
            ranks: 4,
            steps: 8,
            particles: 48,
            max_retries: 6,
            ..ChaosCell::base()
        });
    }
    cells.push(ChaosCell {
        fault: Fault::RankKill {
            rank: 0,
            step: 5,
            site: KillSite::Step,
            policy: DeathPolicy::Shrink,
        },
        seed: 0xC8,
        ranks: 4,
        steps: 8,
        particles: 48,
        max_retries: 6,
        ..ChaosCell::base()
    });
    cells
}

// ---------------------------------------------------------------------------
// Watchdog negative controls
// ---------------------------------------------------------------------------

/// One watchdog control: a name plus pass/fail with evidence.
#[derive(Debug, Clone)]
pub struct WatchdogCheck {
    pub name: &'static str,
    pub result: Result<(), String>,
}

/// Deterministic negative controls for the anomaly watchdog, run as
/// part of the chaos stage (ISSUE PR 8 acceptance): a synthetic
/// fault-free step series must raise zero alerts, a single injected
/// stall must raise exactly one `step_time_regression`, and a NaN
/// quarantine burst must raise exactly one `quarantine_rate` — each
/// with a parseable flight-recorder dump as the evidence trail.
pub fn watchdog_control_checks() -> Vec<WatchdogCheck> {
    let quiet = |step: u64| StepObs {
        step,
        // Deterministic jitter well inside the 4x + 50 ms envelope.
        ms: 1.0 + 0.3 * ((step % 3) as f64 - 1.0),
        alive: 100 + step,
        injected: 1,
        removed: 0,
    };
    let mut checks = Vec::new();

    // Control 1: fault-free series, zero alerts.
    let mut wd = Watchdog::new(WatchdogConfig::default());
    for s in 1..=40 {
        wd.observe(&quiet(s), None);
    }
    checks.push(WatchdogCheck {
        name: "fault-free series raises zero alerts",
        result: if wd.alerts().is_empty() {
            Ok(())
        } else {
            Err(format!("{:?}", wd.alerts()))
        },
    });

    // Control 2: one 300 ms stall on the hub, exactly one alert, and
    // the alert + dump flow through a real telemetry hub + recorder.
    let hub = Arc::new(Telemetry::new());
    let recorder = Arc::new(FlightRecorder::new(1024));
    hub.set_observer(Some(recorder.clone()));
    let mut wd = Watchdog::new(WatchdogConfig::default());
    for s in 1..=40 {
        let mut obs = quiet(s);
        if s == 30 {
            obs.ms += 300.0;
        }
        for a in wd.observe(&obs, Some(&hub)) {
            hub.alert(a.rule, a.severity, &a.message);
        }
    }
    let stall_result = (|| {
        let alerts = wd.alerts();
        if alerts.len() != 1 || alerts[0].rule != RULE_STEP_TIME || alerts[0].step != 30 {
            return Err(format!("expected one step-30 stall alert, got {alerts:?}"));
        }
        if hub.alert_total() != 1 {
            return Err(format!(
                "hub counted {} alerts, expected 1",
                hub.alert_total()
            ));
        }
        let bytes = recorder
            .dump(Vec::new())
            .map_err(|e| format!("recorder dump failed: {e}"))?;
        let dump = oppic_obs::recorder::FlightDump::parse(&bytes)
            .map_err(|e| format!("dump does not parse: {e}"))?;
        if !dump
            .events
            .iter()
            .any(|ev| matches!(ev, TelemetryEvent::Alert { .. }))
        {
            return Err("dump holds no alert record".into());
        }
        Ok(())
    })();
    checks.push(WatchdogCheck {
        name: "single stall trips exactly one step_time_regression",
        result: stall_result,
    });

    // Control 3: a quarantine burst on the hub counters trips the
    // quarantine rule exactly once (the mark absorbs the total).
    let hub = Arc::new(Telemetry::new());
    let mut wd = Watchdog::new(WatchdogConfig::default());
    wd.observe(&quiet(1), Some(&hub));
    hub.counter_add("resilience.quarantined", 2);
    wd.observe(&quiet(2), Some(&hub));
    wd.observe(&quiet(3), Some(&hub));
    checks.push(WatchdogCheck {
        name: "quarantine burst trips quarantine_rate exactly once",
        result: {
            let q: Vec<_> = wd
                .alerts()
                .iter()
                .filter(|a| a.rule == RULE_QUARANTINE)
                .collect();
            if q.len() == 1 && q[0].step == 2 && wd.alerts().len() == 1 {
                Ok(())
            } else {
                Err(format!("{:?}", wd.alerts()))
            }
        },
    });

    checks
}

// ---------------------------------------------------------------------------
// The case pipeline: shrink moves, reproducer fields, run
// ---------------------------------------------------------------------------

impl Case for ChaosCell {
    const SCHEMA: &'static str = CHAOS_SCHEMA;
    const NOUN: &'static str = "chaos reproducer";
    const REPLAY_FLAG: &'static str = "--chaos-replay";
    const MOVES: &'static [Move<Self>] = &[
        // Two ranks is the smallest world with a wire.
        |c| {
            (c.ranks > 2).then(|| ChaosCell {
                ranks: c.ranks - 1,
                ..c.clone()
            })
        },
        // The fault budget halves toward a single injection.
        |c| match c.fault {
            Fault::Network { kind, rate, budget } if budget > 1 => Some(ChaosCell {
                fault: Fault::Network {
                    kind,
                    rate,
                    budget: budget / 2,
                },
                ..c.clone()
            }),
            _ => None,
        },
    ];

    fn id(&self) -> String {
        ChaosCell::id(self)
    }

    fn sizes(&mut self) -> [&mut usize; 2] {
        [&mut self.steps, &mut self.particles]
    }

    fn run(&self) -> Result<(), Vec<String>> {
        let report = run_chaos_cell(self);
        if report.recovered() {
            Ok(())
        } else {
            Err(report.failure_lines())
        }
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let (fault, rate, budget, inject_step) = match self.fault {
            Fault::None => ("none", 0.0, 0u64, 0usize),
            Fault::Network { kind, rate, budget } => (kind.name(), rate, budget, 0),
            Fault::SoftError { step } => ("nan", 0.0, 0, step),
            Fault::RankKill { .. } => ("rankkill", 0.0, 0, 0),
        };
        let num = |n: usize| json::num(n as f64);
        let mut fields = vec![
            ("fault", json::quote(fault)),
            ("rate", json::num(rate)),
            ("budget", json::num(budget as f64)),
            ("inject_step", num(inject_step)),
        ];
        if let Fault::RankKill {
            rank,
            step,
            site,
            policy,
        } = self.fault
        {
            fields.extend([
                ("kill_rank", num(rank)),
                ("kill_step", num(step)),
                ("kill_site", json::quote(site.name())),
                ("on_rank_death", json::quote(policy.name())),
            ]);
        }
        fields.extend([
            ("seed", json::num(self.seed as f64)),
            ("ranks", num(self.ranks)),
            ("steps", num(self.steps)),
            ("particles", num(self.particles)),
            ("max_retries", num(self.max_retries)),
            (
                "quiet_retransmit_ms",
                json::num(self.quiet_retransmit_ms as f64),
            ),
        ]);
        fields
    }

    fn from_fields(f: &Fields) -> Result<Self, String> {
        if matches!(f.get("overlap"), Some(Json::Bool(true))) {
            return Err(
                "chaos reproducer runs the retired 'overlap' form: the migration has \
                    one synchronous form now — regenerate the case"
                    .into(),
            );
        }
        let fault = match f.str("fault")? {
            "none" => Fault::None,
            "nan" => Fault::SoftError {
                step: f.u64("inject_step")?.max(1) as usize,
            },
            "rankkill" => Fault::RankKill {
                site: f.pick("kill_site", "kill site", KillSite::parse)?,
                policy: f.pick("on_rank_death", "rank-death policy", DeathPolicy::parse)?,
                rank: f.u64("kill_rank")? as usize,
                step: f.u64("kill_step")?.max(1) as usize,
            },
            _ => Fault::Network {
                kind: f.pick("fault", "chaos fault kind", FaultKind::parse)?,
                rate: f.f64("rate")?,
                budget: f.u64("budget")?,
            },
        };
        Ok(ChaosCell {
            fault,
            seed: f.u64("seed")?,
            ranks: f.u64("ranks")?.max(1) as usize,
            steps: f.u64("steps")?.max(1) as usize,
            particles: f.u64("particles")?.max(1) as usize,
            max_retries: f.u64("max_retries")? as usize,
            // Absent in older reproducers: the default quiet timer.
            quiet_retransmit_ms: f
                .get("quiet_retransmit_ms")
                .and_then(Json::as_u64)
                .unwrap_or(DEFAULT_QUIET_RETRANSMIT_MS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::{shrink, MAX_ATTEMPTS};
    use std::time::Duration;

    /// The disarmed control: the reliable protocol itself must be
    /// bit-transparent against the fault-free reference.
    #[test]
    fn control_cell_recovers_with_zero_injections() {
        let cell = ChaosCell {
            fault: Fault::None,
            seed: 0,
            ranks: 2,
            steps: 2,
            particles: 16,
            max_retries: 8,
            ..ChaosCell::base()
        };
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::Recovered {
                injected,
                retransmits,
                ..
            } => {
                assert_eq!(injected, 0);
                assert_eq!(retransmits, 0);
            }
            other => panic!("control cell must recover, got {other:?}"),
        }
    }

    /// A budgeted drop schedule converges bit-exactly, and the
    /// schedule demonstrably fired.
    #[test]
    fn dropped_migration_traffic_recovers_bit_exact() {
        let cell = mpi_cell(FaultKind::Drop, 0x11, 1.0, 3, 2);
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::Recovered { injected, .. } => assert!(injected > 0),
            other => panic!("expected Recovered, got {other:?}"),
        }
    }

    /// BitFlip proves the detection layer: mantissa corruption passes
    /// every plausibility check and only the frame checksum can catch
    /// it — visible as nack-driven retransmits.
    #[test]
    fn bitflip_is_caught_by_checksums_and_recovers() {
        let cell = mpi_cell(FaultKind::BitFlip, 0x2C, 1.0, 2, 2);
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::Recovered {
                injected,
                retransmits,
                ..
            } => {
                assert!(injected > 0, "schedule must fire");
                assert!(retransmits > 0, "corrupt frames must be retransmitted");
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
    }

    /// The acceptance-criterion mutation smoke test: disable retry and
    /// drop everything — the stage must classify that as a clean typed
    /// abort, never as success and never as silent corruption.
    #[test]
    fn disabled_retry_under_total_loss_is_a_clean_abort() {
        let cell = ChaosCell {
            fault: Fault::Network {
                kind: FaultKind::Drop,
                rate: 1.0,
                budget: u64::MAX,
            },
            seed: 3,
            ranks: 2,
            steps: 2,
            particles: 16,
            max_retries: 0, // the disabled-retry mutation
            ..ChaosCell::base()
        };
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::CleanAbort { errors } => {
                assert!(!errors.is_empty());
                assert!(
                    errors.iter().any(|e| e.contains("retries exhausted")),
                    "{errors:?}"
                );
            }
            other => panic!("expected CleanAbort, got {other:?}"),
        }
    }

    /// Divergence without an error must classify as silent corruption
    /// — the classifier is what the whole stage hangs off. It compares
    /// every observable, the positions and potential included.
    #[test]
    fn divergence_without_error_is_silent_corruption() {
        use oppic_core::Observable;
        use oppic_resilience::RankFinal;
        let sc = cell_scenario(&mpi_cell(FaultKind::Drop, 0x11, 1.0, 4, 2));
        let mk = |charge: f64, particles: usize, potential: f64| {
            Ok::<_, String>(Some(RankFinal {
                observables: vec![
                    Observable::scalar("n_particles", particles as f64),
                    Observable::new("node_charge", vec![charge, 2.0]),
                    Observable::new("potential", vec![potential]),
                ],
                positions: vec![0.5; particles],
                members: vec![0, 1],
                injected: 4,
                ..RankFinal::default()
            }))
        };
        let reference = vec![mk(1.0, 10, 3.0), mk(1.0, 10, 3.0)];
        let faulted = vec![mk(1.0, 10, 3.0), mk(1.5, 9, 3.0)];
        match classify_shrink(&sc, &reference, &faulted) {
            ChaosVerdict::SilentCorruption { failures } => {
                assert_eq!(failures.len(), 2, "{failures:?}");
                assert!(failures[0].contains("n_particles[0] = 9e0"), "{failures:?}");
                assert!(failures[1].contains("node_charge[0]"), "{failures:?}");
            }
            other => panic!("expected SilentCorruption, got {other:?}"),
        }
        let faulted = vec![mk(1.0, 10, 3.0), mk(1.0, 10, -3.0)];
        match classify_shrink(&sc, &reference, &faulted) {
            ChaosVerdict::SilentCorruption { failures } => {
                assert_eq!(failures, ["rank 1: potential[0] = -3e0, reference 3e0"]);
            }
            other => panic!("expected SilentCorruption, got {other:?}"),
        }
        // And a matching pair recovers.
        let faulted = vec![mk(1.0, 10, 3.0), mk(1.0, 10, 3.0)];
        assert!(matches!(
            classify_shrink(&sc, &reference, &faulted),
            ChaosVerdict::Recovered { injected: 4, .. }
        ));
    }

    /// A zero rewind budget disables rollback: the NaN cell's failed
    /// check is a clean typed abort naming the spent budget.
    #[test]
    fn disabled_rollback_makes_the_nan_cell_a_clean_abort() {
        let cell = ChaosCell {
            fault: Fault::SoftError { step: 3 },
            seed: 5,
            ranks: 1,
            steps: 5,
            particles: 8,
            max_retries: 0,
            ..ChaosCell::base()
        };
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::CleanAbort { errors } => {
                assert!(
                    errors
                        .iter()
                        .any(|e| e.contains("rollback budget of 0 rewinds exhausted")),
                    "{errors:?}"
                );
            }
            other => panic!("expected CleanAbort, got {other:?}"),
        }
    }

    /// The soft-error cell: quarantine detects the NaN, the recovery
    /// driver rolls back and replays, and the healed trajectory is
    /// bit-identical to the undisturbed reference.
    #[test]
    fn nan_soft_error_heals_through_rollback_and_replay() {
        let cell = ChaosCell {
            fault: Fault::SoftError { step: 3 },
            seed: 5,
            ranks: 1,
            steps: 5,
            particles: 8,
            max_retries: 4,
            ..ChaosCell::base()
        };
        match run_chaos_cell(&cell).verdict {
            ChaosVerdict::Recovered { recoveries, .. } => {
                assert!(recoveries >= 1, "rollback must actually happen");
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
    }

    /// A persistently aborting cell shrinks to a small reproducer that
    /// round-trips through the JSON schema and still misbehaves.
    #[test]
    fn aborting_cell_shrinks_and_reproducer_roundtrips() {
        let cell = ChaosCell {
            fault: Fault::Network {
                kind: FaultKind::Drop,
                rate: 1.0,
                budget: u64::MAX,
            },
            seed: 7,
            ranks: 3,
            steps: 4,
            particles: 24,
            max_retries: 0,
            ..ChaosCell::base()
        };
        assert!(cell.fails());
        let mut evals = 0usize;
        let (shrunk, spent) = shrink(&cell, &mut |c| {
            evals += 1;
            c.fails()
        });
        assert_eq!(evals, spent);
        assert!(spent <= MAX_ATTEMPTS);
        assert!(shrunk.steps <= 2, "shrunk to {} steps", shrunk.steps);
        assert!(shrunk.ranks == 2, "shrunk to {} ranks", shrunk.ranks);
        assert!(shrunk.fails());

        let lines = run_chaos_cell(&shrunk).failure_lines();
        let src = shrunk.reproducer_json(&lines);
        let (back, recorded) = ChaosCell::parse_reproducer(&src).expect("parse");
        assert_eq!(back, shrunk);
        assert_eq!(recorded, lines);
    }

    /// A drop cell of four ranks and budget `budget`, for the
    /// synthetic shrink predicates below.
    fn shrinkable(budget: u64) -> ChaosCell {
        ChaosCell {
            fault: Fault::Network {
                kind: FaultKind::Drop,
                rate: 1.0,
                budget,
            },
            seed: 3,
            ranks: 4,
            steps: 8,
            particles: 8,
            max_retries: 2,
            ..ChaosCell::base()
        }
    }

    fn budget(c: &ChaosCell) -> u64 {
        match c.fault {
            Fault::Network { budget, .. } => budget,
            _ => 0,
        }
    }

    /// The chaos walk: steps, then particles (each halved, then
    /// stepped down), then ranks down to two, then the budget halved.
    #[test]
    fn chaos_shrink_walks_steps_particles_ranks_then_budget() {
        let mut seen = Vec::new();
        let (shrunk, spent) = shrink(&shrinkable(8), &mut |c| {
            seen.push((c.steps, c.particles, c.ranks, budget(c)));
            true
        });
        assert_eq!(
            seen,
            vec![
                (4, 8, 4, 8),
                (2, 8, 4, 8),
                (1, 8, 4, 8),
                (1, 4, 4, 8),
                (1, 2, 4, 8),
                (1, 1, 4, 8),
                (1, 1, 3, 8),
                (1, 1, 2, 8),
                (1, 1, 2, 4),
                (1, 1, 2, 2),
                (1, 1, 2, 1),
            ]
        );
        assert_eq!(spent, seen.len());
        assert_eq!(shrunk.ranks, 2);
        // Each size halves until a candidate passes, then steps down.
        let mut seen = Vec::new();
        let start = ChaosCell {
            particles: 40,
            ..shrinkable(1)
        };
        let (shrunk, _) = shrink(&start, &mut |c| {
            seen.push((c.steps, c.particles));
            c.steps >= 3 && c.particles >= 5
        });
        assert_eq!((shrunk.steps, shrunk.particles), (3, 5));
        assert_eq!(
            seen[..8],
            [
                (4, 40),
                (2, 40),
                (3, 40),
                (2, 40),
                (3, 20),
                (3, 10),
                (3, 5),
                (3, 2)
            ]
        );
    }

    #[test]
    fn ranks_bound_chaos_failure_keeps_its_rank_count() {
        let start = ChaosCell {
            ranks: 3,
            ..shrinkable(6)
        };
        let (shrunk, _) = shrink(&start, &mut |c| c.ranks >= 3);
        assert_eq!(shrunk.ranks, 3);
        assert_eq!((shrunk.steps, shrunk.particles, budget(&shrunk)), (1, 1, 1));
    }

    #[test]
    fn chaos_budget_halves_down_to_one() {
        let start = ChaosCell {
            ranks: 2,
            steps: 1,
            particles: 1,
            ..shrinkable(13)
        };
        let mut seen = Vec::new();
        let (shrunk, _) = shrink(&start, &mut |c| {
            seen.push(budget(c));
            true
        });
        assert_eq!(seen, vec![6, 3, 1]);
        assert_eq!(budget(&shrunk), 1);
        // A cell with no budget and one rank has no move left.
        let nan = ChaosCell {
            fault: Fault::SoftError { step: 3 },
            ranks: 1,
            steps: 1,
            particles: 1,
            ..ChaosCell::base()
        };
        assert_eq!(shrink(&nan, &mut |_| true), (nan, 0));
    }

    #[test]
    fn chaos_shrink_stops_at_the_evaluation_cap() {
        let start = ChaosCell {
            steps: 200,
            ..shrinkable(8)
        };
        let mut calls = 0;
        let (shrunk, spent) = shrink(&start, &mut |c| {
            calls += 1;
            c.steps > 100
        });
        assert_eq!((calls, spent), (MAX_ATTEMPTS, MAX_ATTEMPTS));
        // One halving that passes, then 63 single steps down.
        assert_eq!(shrunk.steps, 137);
        assert_eq!((shrunk.particles, shrunk.ranks, budget(&shrunk)), (8, 4, 8));
    }

    #[test]
    fn reproducer_roundtrips_every_fault_shape() {
        for fault in [
            Fault::None,
            Fault::Network {
                kind: FaultKind::Stall,
                rate: 0.25,
                budget: 6,
            },
            Fault::SoftError { step: 4 },
            Fault::RankKill {
                rank: 2,
                step: 4,
                site: KillSite::Checkpoint,
                policy: DeathPolicy::Shrink,
            },
            Fault::RankKill {
                rank: 0,
                step: 3,
                site: KillSite::Exchange,
                policy: DeathPolicy::Abort,
            },
        ] {
            let cell = ChaosCell {
                fault,
                seed: 42,
                ranks: 3,
                steps: 5,
                particles: 20,
                max_retries: 2,
                ..ChaosCell::base()
            };
            let (back, _) = ChaosCell::parse_reproducer(&cell.reproducer_json(&[])).expect("parse");
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn stale_chaos_schema_is_rejected() {
        let cell = mpi_cell(FaultKind::Drop, 1, 1.0, 1, 2);
        let src = cell
            .reproducer_json(&[])
            .replace(CHAOS_SCHEMA, "oppic-chaos-repro-v0");
        let err = ChaosCell::parse_reproducer(&src).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }

    /// Every cell of the quick matrix must avoid silent corruption,
    /// and every fault cell must actually recover — the stage's green
    /// state leaves no reproducers behind.
    #[test]
    fn quick_matrix_has_no_silent_corruption() {
        for cell in chaos_quick_matrix() {
            let report = run_chaos_cell(&cell);
            assert!(report.recovered(), "{}: {:?}", cell, report.failure_lines());
        }
    }

    /// A rank-kill cell must come back Recovered — survivors detect
    /// the fail-stop, shrink, replay, and match the planned-shrink
    /// twin bit-for-bit — with the death verdict on the flight
    /// recorder as evidence.
    #[test]
    fn rank_kill_cell_recovers_under_shrink_policy() {
        let cell = ChaosCell {
            fault: Fault::RankKill {
                rank: 1,
                step: 3,
                site: KillSite::Step,
                policy: DeathPolicy::Shrink,
            },
            seed: 0x77,
            ranks: 3,
            steps: 5,
            particles: 24,
            max_retries: 6,
            ..ChaosCell::base()
        };
        let report = run_chaos_cell(&cell);
        assert!(report.recovered(), "{:?}", report.verdict);
        let dump = report
            .recorder_dump
            .as_deref()
            .expect("a death verdict must leave a flight-recorder dump");
        let dump = oppic_obs::FlightDump::parse(dump).expect("dump parses");
        assert!(
            dump.events
                .iter()
                .any(|ev| matches!(ev, TelemetryEvent::Alert { rule, .. } if rule == "rank_death")),
            "no rank_death alert in {:?}",
            dump.events
        );
    }

    /// The shrinker may drive steps, ranks, or the kill point out of
    /// their original relation; the scenario mapping has to keep every
    /// reachable cell a well-formed experiment, and a NaN cell on one
    /// rank.
    #[test]
    fn rank_kill_scenario_clamps_shrunk_cells() {
        let cell = ChaosCell {
            fault: Fault::RankKill {
                rank: 5,
                step: 9,
                site: KillSite::Checkpoint,
                policy: DeathPolicy::Shrink,
            },
            seed: 1,
            ranks: 2,
            steps: 3,
            ..ChaosCell::base()
        };
        let sc = cell_scenario(&cell);
        let Fault::RankKill { rank, step, .. } = sc.fault else {
            panic!("a kill cell maps to a kill: {:?}", sc.fault)
        };
        assert!(rank < sc.ranks);
        assert!(step >= 1 && step <= sc.steps);
        assert_eq!(
            step % sc.checkpoint_every,
            0,
            "a checkpoint-site kill must land on a boundary"
        );
        let nan = ChaosCell {
            fault: Fault::SoftError { step: 2 },
            ranks: 3,
            ..ChaosCell::base()
        };
        assert_eq!(cell_scenario(&nan).ranks, 1);
    }

    /// Keep the smoke tests honest about wall-clock: aborts resolve by
    /// bounded timeout, so the policy floor must stay small.
    #[test]
    fn default_retry_policy_bounds_abort_latency() {
        let p = RetryPolicy::default();
        assert!(p.base_timeout <= Duration::from_millis(10));
    }

    /// The quiet retransmit timer is configuration, not a constant:
    /// non-default values name the cell id and survive the reproducer
    /// roundtrip, so a replay runs with the captured timing.
    #[test]
    fn quiet_retransmit_timer_is_config_driven() {
        let mut cell = mpi_cell(FaultKind::Delay, 0x21, 1.0, 2, 2);
        assert!(!cell.id().contains("-q"), "{}", cell.id());
        cell.quiet_retransmit_ms = 250;
        assert!(cell.id().ends_with("-q250"), "{}", cell.id());
        let (back, _) = ChaosCell::parse_reproducer(&cell.reproducer_json(&[])).expect("parse");
        assert_eq!(back, cell);
        // Older reproducers omit the field: the default applies.
        let src: String = cell
            .reproducer_json(&[])
            .lines()
            .filter(|l| !l.contains("\"quiet_retransmit_ms\""))
            .collect::<Vec<_>>()
            .join("\n");
        let (back, _) = ChaosCell::parse_reproducer(&src).expect("parse");
        assert_eq!(back.quiet_retransmit_ms, DEFAULT_QUIET_RETRANSMIT_MS);
    }

    /// A reproducer captured on the retired overlap form is refused,
    /// not replayed synchronously; one without the key, or with it
    /// off, still parses.
    #[test]
    fn retired_overlap_reproducer_is_refused() {
        let cell = mpi_cell(FaultKind::Delay, 0x61, 1.0, 3, 2);
        let src = cell.reproducer_json(&[]);
        let with = |v: &str| {
            src.replace(
                "\"quiet_retransmit_ms\"",
                &format!("\"overlap\": {v},\n  \"quiet_retransmit_ms\""),
            )
        };
        let err = ChaosCell::parse_reproducer(&with("true")).unwrap_err();
        assert!(err.contains("retired 'overlap' form"), "{err}");
        for src in [src.clone(), with("false")] {
            let (back, _) = ChaosCell::parse_reproducer(&src).expect("parse");
            assert_eq!(back, cell);
        }
    }

    /// The watchdog negative controls are part of the chaos stage's
    /// green state: all three must pass deterministically.
    #[test]
    fn watchdog_controls_all_pass() {
        for check in watchdog_control_checks() {
            assert!(check.result.is_ok(), "{}: {:?}", check.name, check.result);
        }
    }

    /// A recovered NaN-inject cell rolls back, and rollback now raises
    /// a `recovery_rollback` alert — so the report must carry a
    /// parseable flight-recorder dump as evidence.
    #[test]
    fn nan_inject_cell_keeps_a_recorder_dump() {
        let cell = ChaosCell {
            fault: Fault::SoftError { step: 3 },
            seed: 11,
            ranks: 1,
            steps: 6,
            particles: 40,
            max_retries: 4,
            ..ChaosCell::base()
        };
        let report = run_chaos_cell(&cell);
        assert!(report.recovered(), "{:?}", report.failure_lines());
        let bytes = report
            .recorder_dump
            .as_deref()
            .expect("rollback alert should retain the event ring");
        let dump = oppic_obs::recorder::FlightDump::parse(bytes).expect("dump parses");
        let alert_at = dump
            .events
            .iter()
            .position(|ev| {
                matches!(ev, TelemetryEvent::Alert { rule, .. } if rule == "recovery_rollback")
            })
            .unwrap_or_else(|| {
                panic!("no recovery_rollback alert in {:?}", dump.events)
            });
        // The recorder watches the stepped sim's hub, so the ring holds
        // the step records before the rollback, each with its counter
        // deltas, and their spans.
        let before = &dump.events[..alert_at];
        let steps: Vec<u64> = before
            .iter()
            .filter_map(|ev| match ev {
                TelemetryEvent::StepEnd { step, counters, .. } => {
                    assert!(!counters.is_empty(), "step {step} has no counter deltas");
                    Some(*step)
                }
                _ => None,
            })
            .collect();
        assert!(
            steps.starts_with(&[1, 2]),
            "steps before the rollback: {steps:?}"
        );
        assert!(
            before
                .iter()
                .any(|ev| matches!(ev, TelemetryEvent::SpanClose { step: Some(_), .. })),
            "no span record with a step number before the rollback"
        );
        // The rollback counts between two steps; the replayed step's
        // record carries those counts in its deltas.
        let replayed = dump.events[alert_at..]
            .iter()
            .find_map(|ev| match ev {
                TelemetryEvent::StepEnd { counters, .. } => Some(counters.to_vec()),
                _ => None,
            })
            .expect("a step record after the rollback");
        let delta = |name: &str| replayed.iter().find(|(k, _)| k == name).map(|&(_, n)| n);
        assert_eq!(delta("resilience.recoveries"), Some(1), "{replayed:?}");
        assert!(
            delta("resilience.steps_replayed").is_some_and(|n| n > 0),
            "{replayed:?}"
        );
    }
}
