//! Chaos stage: seeded fault schedules over the resilient distributed
//! code path.
//!
//! Each [`ChaosCell`] runs the Mini-FEM-PIC distributed step over the
//! reliable link (envelope + ack/retry migration and reductions from
//! `oppic-resilience`) twice: once fault-free as the reference, once
//! under a deterministic [`FaultSchedule`] (or a host-side NaN soft
//! error routed through the [`RecoveryDriver`]). The contract the
//! stage enforces is the resilience layer's whole point:
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
//! See DESIGN.md §10 for the fault taxonomy and replay workflow.

use oppic_bench::rankfail::{
    classify_shrink, run_rank_failure, DeathPolicy, KillSite, RankFailScenario, RankKill,
    ShrinkVerdict,
};
use oppic_core::json::{self, Json};
use oppic_core::telemetry::Telemetry;
use oppic_core::Simulation;
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mpi::comm::RankCtx;
use oppic_obs::recorder::FlightRecorder;
use oppic_obs::watchdog::{StepObs, Watchdog, WatchdogConfig, RULE_QUARANTINE, RULE_STEP_TIME};
use oppic_resilience::{
    world_run_faulty, FaultKind, FaultSchedule, RecoveryConfig, RecoveryDriver, Reliable,
    ReliableLink, RetryPolicy,
};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub const CHAOS_SCHEMA: &str = "oppic-chaos-repro-v1";

/// Quiet-traffic retransmit timer (ms) used when no fault schedule is
/// armed (reference runs and the disarmed control). The short default
/// retry timer exists to recover *injected* faults; with nothing to
/// inject an expiry can only be scheduler noise on a loaded test box,
/// so clean traffic gets a timer that cannot plausibly fire. Cells
/// carry the value ([`ChaosCell::quiet_retransmit_ms`]) so reproducers
/// replay with the timing they were captured under.
pub const DEFAULT_QUIET_RETRANSMIT_MS: u64 = 500;

/// What gets injected into one chaos cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosFault {
    /// Control cell: the reliable driver with the injector disarmed —
    /// proves the protocol itself is bit-transparent.
    None,
    /// Seeded schedule on the MPI shim's data plane.
    Mpi {
        kind: FaultKind,
        /// Per-message firing probability.
        rate: f64,
        /// Total injections before the schedule quiesces.
        budget: u64,
    },
    /// Host-side soft error: one particle position poisoned to NaN
    /// just before the given step, detected by the numeric quarantine
    /// and healed by checkpoint rollback-and-replay.
    NanInject { step: usize },
    /// Process fault: `rank` fail-stops at `step`/`site` (the
    /// "stall-forever" kill). Survivors must detect, agree, shrink,
    /// and replay — bit-identical to the planned-shrink twin — or
    /// abort cleanly under [`DeathPolicy::Abort`]. See DESIGN.md §13.
    RankKill {
        rank: usize,
        step: usize,
        site: KillSite,
        policy: DeathPolicy,
    },
}

/// One point of the chaos matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    pub fault: ChaosFault,
    /// Seeds the fault schedule and perturbs the injection stream.
    pub seed: u64,
    /// In-process ranks (1 for `NanInject` cells).
    pub ranks: usize,
    pub steps: usize,
    /// Particles injected per step across all ranks.
    pub particles: usize,
    /// Retry budget of the reliable link (also the rollback budget of
    /// recovery cells).
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
            fault: ChaosFault::None,
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
            ChaosFault::None => "none".to_string(),
            ChaosFault::Mpi { kind, rate, budget } => {
                format!(
                    "{}{:03}q{}",
                    kind.name(),
                    (rate * 100.0).round() as u32,
                    budget
                )
            }
            ChaosFault::NanInject { step } => format!("nan{step}"),
            ChaosFault::RankKill {
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

/// Outcome classification — the stage's three-way contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosVerdict {
    /// Completed and bit-identical to the fault-free reference.
    Recovered {
        /// Faults the schedule actually fired.
        injected: u64,
        /// Retransmissions spent absorbing them (all ranks).
        retransmits: u64,
        /// Checkpoint rollbacks performed (recovery cells).
        recoveries: u64,
    },
    /// Typed error instead of a result — no corruption, evidence kept.
    CleanAbort { errors: Vec<String> },
    /// Completed but diverged from the reference: the one outcome the
    /// resilience layer exists to make impossible.
    SilentCorruption { failures: Vec<String> },
}

/// One executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub cell: ChaosCell,
    pub verdict: ChaosVerdict,
    /// Flight-recorder dump (`OPFR` binary) of the faulted run, when
    /// the run raised alerts (rollbacks) or misbehaved. Written beside
    /// the reproducer by the conformance binary. Recovery cells only —
    /// MPI cells run one hub per in-process rank.
    pub recorder_dump: Option<Vec<u8>>,
}

impl ChaosReport {
    /// True unless the run silently corrupted.
    pub fn no_silent_corruption(&self) -> bool {
        !matches!(self.verdict, ChaosVerdict::SilentCorruption { .. })
    }

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

/// Shrink predicate: the cell does *not* come back `Recovered`.
pub fn chaos_cell_fails(cell: &ChaosCell) -> bool {
    !run_chaos_cell(cell).recovered()
}

// ---------------------------------------------------------------------------
// The distributed step over the reliable link (the system under chaos)
// ---------------------------------------------------------------------------

/// Per-rank observables of one driver run. After the reliable
/// allreduce the node-charge vector is replicated, so bit-comparing it
/// per rank checks both the physics and the reduction transport.
#[derive(Debug, Clone, PartialEq)]
struct RankOut {
    particles: usize,
    node_charge: Vec<f64>,
    retransmits: u64,
    frames_corrupt: u64,
}

/// Run the reliable Mini-FEM-PIC distributed step under an optional
/// fault schedule: [`FemPic::step_over`] over the reliable link,
/// so every inter-rank transfer (migration and the node-charge
/// reduction) goes through the resilience layer. No raw collectives
/// touch the faulted plane, so every failure mode is a typed error.
fn run_reliable_fempic(
    cell: &ChaosCell,
    sched: Option<Arc<FaultSchedule>>,
) -> Vec<Result<RankOut, String>> {
    let n_ranks = cell.ranks;
    let fault_free = sched.is_none();
    let mut base = FemPicConfig::tiny();
    base.inject_per_step = cell.particles;
    base.seed = base.seed.wrapping_add(cell.seed);
    world_run_faulty(n_ranks, sched, |ctx: &mut RankCtx| {
        let (mut sim, cell_rank) = FemPic::new_rank(&base, ctx.rank, n_ranks);
        let mut link = ReliableLink::new(RetryPolicy {
            max_retries: cell.max_retries,
            // The short retransmit timer exists to recover *injected*
            // faults; clean traffic gets the cell's quiet timer (see
            // DEFAULT_QUIET_RETRANSMIT_MS).
            base_timeout: if fault_free {
                Duration::from_millis(cell.quiet_retransmit_ms)
            } else {
                RetryPolicy::default().base_timeout
            },
            ..RetryPolicy::default()
        });
        let mut net = Reliable {
            link: &mut link,
            ctx,
            cell_rank: &cell_rank,
        };

        for _ in 0..cell.steps {
            sim.step_over(&mut net).map_err(|e| e.to_string())?;
        }

        // The step counts the link's retransmits on the sim's hub.
        let hub = sim.profiler.telemetry();
        Ok(RankOut {
            particles: sim.ps.len(),
            node_charge: sim.node_charge.raw().to_vec(),
            retransmits: hub.counter("resilience.retransmits"),
            frames_corrupt: hub.counter("resilience.frames_corrupt"),
        })
    })
}

/// Classify a faulted run against its fault-free reference.
fn classify_mpi(
    reference: &[Result<RankOut, String>],
    faulted: &[Result<RankOut, String>],
    injected: u64,
) -> ChaosVerdict {
    if let Some(bad) = reference.iter().find_map(|r| r.as_ref().err()) {
        // The driver must be live with the injector disarmed; anything
        // else is a harness defect the stage must not paper over.
        return ChaosVerdict::SilentCorruption {
            failures: vec![format!("fault-free reference run failed: {bad}")],
        };
    }
    let errors: Vec<String> = faulted
        .iter()
        .enumerate()
        .filter_map(|(r, out)| out.as_ref().err().map(|e| format!("rank {r}: {e}")))
        .collect();
    if !errors.is_empty() {
        return ChaosVerdict::CleanAbort { errors };
    }

    let mut failures = Vec::new();
    let mut retransmits = 0u64;
    for (r, (want, got)) in reference.iter().zip(faulted).enumerate() {
        let (want, got) = (want.as_ref().unwrap(), got.as_ref().unwrap());
        retransmits += got.retransmits;
        if got.particles != want.particles {
            failures.push(format!(
                "rank {r}: {} particles, reference has {}",
                got.particles, want.particles
            ));
        }
        let diverged = want
            .node_charge
            .iter()
            .zip(&got.node_charge)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        if let Some(i) = diverged {
            failures.push(format!(
                "rank {r}: node_charge[{i}] = {:e}, reference {:e}",
                got.node_charge[i], want.node_charge[i]
            ));
        }
    }
    if failures.is_empty() {
        ChaosVerdict::Recovered {
            injected,
            retransmits,
            recoveries: 0,
        }
    } else {
        ChaosVerdict::SilentCorruption { failures }
    }
}

fn run_mpi_cell(cell: &ChaosCell) -> ChaosReport {
    let reference = run_reliable_fempic(cell, None);
    let sched = match cell.fault {
        ChaosFault::None => None,
        ChaosFault::Mpi { kind, rate, budget } => Some(Arc::new(
            FaultSchedule::single(cell.seed, kind, rate).with_budget(budget),
        )),
        ChaosFault::NanInject { .. } | ChaosFault::RankKill { .. } => {
            unreachable!("routed to a dedicated cell runner")
        }
    };
    let faulted = run_reliable_fempic(cell, sched.clone());
    let injected = sched.map_or(0, |s| s.injected());
    ChaosReport {
        cell: cell.clone(),
        verdict: classify_mpi(&reference, &faulted, injected),
        recorder_dump: None,
    }
}

// ---------------------------------------------------------------------------
// Host-side soft-error cell: quarantine detection + rollback-and-replay
// ---------------------------------------------------------------------------

fn run_recovery_cell(cell: &ChaosCell) -> ChaosReport {
    let ChaosFault::NanInject { step: inject_at } = cell.fault else {
        unreachable!("routed to run_mpi_cell");
    };
    let mut cfg = FemPicConfig::tiny();
    cfg.inject_per_step = cell.particles.max(1);
    cfg.seed = cfg.seed.wrapping_add(cell.seed);
    cfg.guard_numerics = true;

    let mut reference = FemPic::new(cfg.clone());
    reference.run(cell.steps);

    // The flight recorder watches the faulted sim's own hub, made
    // current here as well: each step's spans and counters and the
    // `recovery_rollback` alert (published through the current hub)
    // land in one ring, whose post-mortem dump goes beside the
    // reproducer.
    let faulted = FemPic::new(cfg);
    let hub = faulted.profiler.telemetry().clone();
    let recorder = Arc::new(FlightRecorder::new(4096));
    hub.set_observer(Some(recorder.clone()));
    let _guard = hub.make_current();
    let take_dump = |recorder: &FlightRecorder| recorder.dump(Vec::new()).ok();

    let rec_cfg = RecoveryConfig {
        checkpoint_every: 2,
        max_recoveries: cell.max_retries.max(1),
        disk_path: None,
    };
    let mut driver = match RecoveryDriver::new(faulted, rec_cfg) {
        Ok(d) => d,
        Err(e) => {
            return ChaosReport {
                cell: cell.clone(),
                verdict: ChaosVerdict::CleanAbort {
                    errors: vec![e.to_string()],
                },
                recorder_dump: None,
            }
        }
    };
    for step in 1..=cell.steps {
        if step == inject_at {
            // The transient soft error: one live position word turns
            // NaN between steps. The guarded step's quarantine is the
            // detector; rollback restores the lost particle exactly.
            let sim = driver.sim_mut();
            if !sim.ps.is_empty() {
                let victim = cell.seed as usize % sim.ps.len();
                let pos = sim.pos;
                sim.ps.el_mut(pos, victim)[0] = f64::NAN;
            }
        }
        let checked = driver.step_checked(|s: &FemPic| {
            s.invariants()?;
            if s.last_quarantined > 0 {
                return Err(format!(
                    "{} particle(s) quarantined with non-finite state",
                    s.last_quarantined
                ));
            }
            Ok(())
        });
        if let Err(e) = checked {
            return ChaosReport {
                cell: cell.clone(),
                verdict: ChaosVerdict::CleanAbort {
                    errors: vec![e.to_string()],
                },
                recorder_dump: take_dump(&recorder),
            };
        }
    }

    let sim = driver.sim();
    let mut failures = Vec::new();
    if sim.ps.len() != reference.ps.len() {
        failures.push(format!(
            "{} particles, reference has {} — quarantine loss not healed",
            sim.ps.len(),
            reference.ps.len()
        ));
    }
    if sim.ps.col(sim.pos) != reference.ps.col(reference.pos) {
        failures.push("particle positions diverged from reference".into());
    }
    if sim.node_charge.raw() != reference.node_charge.raw() {
        failures.push("node_charge diverged from reference".into());
    }
    if sim.fem.potential() != reference.fem.potential() {
        failures.push("potential diverged from reference".into());
    }
    let verdict = if failures.is_empty() {
        ChaosVerdict::Recovered {
            injected: 1,
            retransmits: 0,
            recoveries: driver.recoveries() as u64,
        }
    } else {
        ChaosVerdict::SilentCorruption { failures }
    };
    // Keep the evidence whenever something alert-worthy happened: a
    // rollback during a recovered run, or any non-recovered verdict.
    let recorder_dump =
        if hub.alert_total() > 0 || !matches!(verdict, ChaosVerdict::Recovered { .. }) {
            take_dump(&recorder)
        } else {
            None
        };
    ChaosReport {
        cell: cell.clone(),
        verdict,
        recorder_dump,
    }
}

// ---------------------------------------------------------------------------
// Rank-kill cell: failure detection + membership shrink + replay
// ---------------------------------------------------------------------------

/// Map a rank-kill chaos cell onto a [`RankFailScenario`], clamping
/// the kill parameters so every point the shrinker can reach stays a
/// valid experiment: the victim exists, the kill step is in range,
/// and a `Checkpoint`-site kill lands on an actual boundary.
pub fn rank_kill_scenario(cell: &ChaosCell) -> RankFailScenario {
    let ChaosFault::RankKill {
        rank,
        step,
        site,
        policy,
    } = cell.fault
    else {
        unreachable!("not a rank-kill cell");
    };
    let ranks = cell.ranks.max(2);
    let steps = cell.steps.max(2);
    let checkpoint_every = 2;
    let mut step = step.clamp(1, steps);
    if site == KillSite::Checkpoint {
        step = (step / checkpoint_every * checkpoint_every).max(checkpoint_every);
    }
    RankFailScenario {
        ranks,
        steps,
        particles: cell.particles,
        seed: cell.seed,
        checkpoint_every,
        kill: Some(RankKill {
            rank: rank % ranks,
            step,
            site,
        }),
        planned_shrink: None,
        heartbeat_ms: 2,
        death_deadline_ms: 150,
        on_death: policy,
        max_retries: cell.max_retries,
        retransmit_ms: 80,
    }
}

fn run_rank_kill_cell(cell: &ChaosCell) -> ChaosReport {
    let sc = rank_kill_scenario(cell);
    let twin = run_rank_failure(&sc.twin());
    let faulted = run_rank_failure(&sc);
    let survivors: Vec<_> = faulted
        .iter()
        .filter_map(|r| r.as_ref().ok().and_then(|o| o.as_ref()))
        .collect();
    let verdict = match classify_shrink(&sc, &twin, &faulted) {
        ShrinkVerdict::Recovered => ChaosVerdict::Recovered {
            injected: 1,
            retransmits: survivors.iter().map(|f| f.retransmits).sum(),
            recoveries: survivors.iter().map(|f| f.recoveries).sum(),
        },
        ShrinkVerdict::CleanAbort { errors } => ChaosVerdict::CleanAbort { errors },
        ShrinkVerdict::SilentCorruption { failures } => ChaosVerdict::SilentCorruption { failures },
    };
    ChaosReport {
        cell: cell.clone(),
        verdict,
        recorder_dump: survivors.iter().find_map(|f| f.recorder_dump.clone()),
    }
}

/// Execute one cell: reference run, faulted run, classification.
pub fn run_chaos_cell(cell: &ChaosCell) -> ChaosReport {
    match cell.fault {
        ChaosFault::NanInject { .. } => run_recovery_cell(cell),
        ChaosFault::RankKill { .. } => run_rank_kill_cell(cell),
        _ => run_mpi_cell(cell),
    }
}

// ---------------------------------------------------------------------------
// Matrices
// ---------------------------------------------------------------------------

fn mpi_cell(kind: FaultKind, seed: u64, rate: f64, budget: u64, ranks: usize) -> ChaosCell {
    ChaosCell {
        fault: ChaosFault::Mpi { kind, rate, budget },
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
        fault: ChaosFault::NanInject { step: 3 },
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
        fault: ChaosFault::RankKill {
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
        fault: ChaosFault::NanInject { step: 2 },
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
            fault: ChaosFault::RankKill {
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
        fault: ChaosFault::RankKill {
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
            .records
            .iter()
            .any(|r| r.kind == oppic_obs::recorder::EventKind::Alert)
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
// Shrinking
// ---------------------------------------------------------------------------

/// Shrink-attempt ceiling, mirroring the differential shrinker.
pub const MAX_CHAOS_ATTEMPTS: usize = 64;

/// Greedily minimise a misbehaving chaos cell: steps, then particles,
/// then world size, then the fault budget — adopting each candidate
/// only while `fails` still rejects it. Returns the minimum found and
/// the evaluations spent.
pub fn shrink_chaos(
    start: &ChaosCell,
    fails: &mut dyn FnMut(&ChaosCell) -> bool,
) -> (ChaosCell, usize) {
    let mut best = start.clone();
    let mut spent = 0usize;

    // Steps: halve, then step down.
    while best.steps > 1 && spent < MAX_CHAOS_ATTEMPTS {
        let mut c = best.clone();
        c.steps = (c.steps / 2).max(1);
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }
    while best.steps > 1 && spent < MAX_CHAOS_ATTEMPTS {
        let mut c = best.clone();
        c.steps -= 1;
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }

    // Particles: halve, then step down.
    while best.particles > 1 && spent < MAX_CHAOS_ATTEMPTS {
        let mut c = best.clone();
        c.particles = (c.particles / 2).max(1);
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }
    while best.particles > 1 && spent < MAX_CHAOS_ATTEMPTS {
        let mut c = best.clone();
        c.particles -= 1;
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }

    // World size: two ranks is the smallest world with a wire.
    while best.ranks > 2 && spent < MAX_CHAOS_ATTEMPTS {
        let mut c = best.clone();
        c.ranks -= 1;
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }

    // Fault budget: halve toward a single injection.
    while spent < MAX_CHAOS_ATTEMPTS {
        let ChaosFault::Mpi { budget, .. } = best.fault else {
            break;
        };
        if budget <= 1 {
            break;
        }
        let mut c = best.clone();
        if let ChaosFault::Mpi { budget: b, .. } = &mut c.fault {
            *b = budget / 2;
        }
        spent += 1;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }

    (best, spent)
}

// ---------------------------------------------------------------------------
// Reproducers
// ---------------------------------------------------------------------------

/// Serialise a misbehaving chaos cell plus its verdict lines.
pub fn chaos_reproducer_json(cell: &ChaosCell, failures: &[String]) -> String {
    let (fault, rate, budget, inject_step) = match cell.fault {
        ChaosFault::None => ("none", 0.0, 0u64, 0usize),
        ChaosFault::Mpi { kind, rate, budget } => (kind.name(), rate, budget, 0),
        ChaosFault::NanInject { step } => ("nan", 0.0, 0, step),
        ChaosFault::RankKill { .. } => ("rankkill", 0.0, 0, 0),
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json::quote(CHAOS_SCHEMA)));
    out.push_str(&format!("  \"id\": {},\n", json::quote(&cell.id())));
    out.push_str(&format!("  \"fault\": {},\n", json::quote(fault)));
    out.push_str(&format!("  \"rate\": {},\n", json::num(rate)));
    out.push_str(&format!("  \"budget\": {},\n", json::num(budget as f64)));
    out.push_str(&format!(
        "  \"inject_step\": {},\n",
        json::num(inject_step as f64)
    ));
    if let ChaosFault::RankKill {
        rank,
        step,
        site,
        policy,
    } = cell.fault
    {
        out.push_str(&format!("  \"kill_rank\": {},\n", json::num(rank as f64)));
        out.push_str(&format!("  \"kill_step\": {},\n", json::num(step as f64)));
        out.push_str(&format!("  \"kill_site\": {},\n", json::quote(site.name())));
        out.push_str(&format!(
            "  \"on_rank_death\": {},\n",
            json::quote(policy.name())
        ));
    }
    out.push_str(&format!("  \"seed\": {},\n", json::num(cell.seed as f64)));
    out.push_str(&format!("  \"ranks\": {},\n", json::num(cell.ranks as f64)));
    out.push_str(&format!("  \"steps\": {},\n", json::num(cell.steps as f64)));
    out.push_str(&format!(
        "  \"particles\": {},\n",
        json::num(cell.particles as f64)
    ));
    out.push_str(&format!(
        "  \"max_retries\": {},\n",
        json::num(cell.max_retries as f64)
    ));
    out.push_str(&format!(
        "  \"quiet_retransmit_ms\": {},\n",
        json::num(cell.quiet_retransmit_ms as f64)
    ));
    out.push_str("  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        let comma = if i + 1 == failures.len() { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", json::quote(f)));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"replay\": {}\n",
        json::quote(&format!(
            "cargo run --release --bin conformance -- --chaos-replay results/conformance/{}.json",
            cell.id()
        ))
    ));
    out.push_str("}\n");
    out
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("chaos reproducer missing string field '{key}'"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("chaos reproducer missing integer field '{key}'"))
}

/// Parse a chaos reproducer back into the cell it captured.
pub fn parse_chaos_reproducer(src: &str) -> Result<(ChaosCell, Vec<String>), String> {
    let doc = json::parse(src)?;
    let schema = req_str(&doc, "schema")?;
    if schema != CHAOS_SCHEMA {
        return Err(format!(
            "chaos reproducer schema '{schema}' is not '{CHAOS_SCHEMA}' — regenerate the case"
        ));
    }
    if matches!(doc.get("overlap"), Some(Json::Bool(true))) {
        return Err(
            "chaos reproducer runs the retired 'overlap' form: the migration has \
                    one synchronous form now — regenerate the case"
                .into(),
        );
    }
    let fault = match req_str(&doc, "fault")? {
        "none" => ChaosFault::None,
        "nan" => ChaosFault::NanInject {
            step: req_u64(&doc, "inject_step")?.max(1) as usize,
        },
        "rankkill" => {
            let site_name = req_str(&doc, "kill_site")?;
            let site = KillSite::parse(site_name)
                .ok_or_else(|| format!("unknown kill site '{site_name}'"))?;
            let policy_name = req_str(&doc, "on_rank_death")?;
            let policy = DeathPolicy::parse(policy_name)
                .ok_or_else(|| format!("unknown rank-death policy '{policy_name}'"))?;
            ChaosFault::RankKill {
                rank: req_u64(&doc, "kill_rank")? as usize,
                step: req_u64(&doc, "kill_step")?.max(1) as usize,
                site,
                policy,
            }
        }
        name => {
            let kind = FaultKind::parse(name)
                .ok_or_else(|| format!("unknown chaos fault kind '{name}'"))?;
            let rate = doc
                .get("rate")
                .and_then(Json::as_f64)
                .ok_or("chaos reproducer missing number field 'rate'")?;
            ChaosFault::Mpi {
                kind,
                rate,
                budget: req_u64(&doc, "budget")?,
            }
        }
    };
    let failures = doc
        .get("failures")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    Ok((
        ChaosCell {
            fault,
            seed: req_u64(&doc, "seed")?,
            ranks: req_u64(&doc, "ranks")?.max(1) as usize,
            steps: req_u64(&doc, "steps")?.max(1) as usize,
            particles: req_u64(&doc, "particles")?.max(1) as usize,
            max_retries: req_u64(&doc, "max_retries")? as usize,
            // Absent in older reproducers: the default quiet timer.
            quiet_retransmit_ms: doc
                .get("quiet_retransmit_ms")
                .and_then(Json::as_u64)
                .unwrap_or(DEFAULT_QUIET_RETRANSMIT_MS),
        },
        failures,
    ))
}

/// Write the chaos reproducer under `dir`, named after the cell id.
pub fn write_chaos_reproducer(
    dir: &Path,
    cell: &ChaosCell,
    failures: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", cell.id()));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(chaos_reproducer_json(cell, failures).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The disarmed control: the reliable protocol itself must be
    /// bit-transparent against the fault-free reference.
    #[test]
    fn control_cell_recovers_with_zero_injections() {
        let cell = ChaosCell {
            fault: ChaosFault::None,
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
            fault: ChaosFault::Mpi {
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
    /// — the classifier is what the whole stage hangs off.
    #[test]
    fn divergence_without_error_is_silent_corruption() {
        let mk = |charge: f64, particles: usize| {
            Ok(RankOut {
                particles,
                node_charge: vec![charge, 2.0],
                retransmits: 0,
                frames_corrupt: 0,
            })
        };
        let reference = vec![mk(1.0, 10), mk(1.0, 10)];
        let faulted = vec![mk(1.0, 10), mk(1.5, 9)];
        match classify_mpi(&reference, &faulted, 4) {
            ChaosVerdict::SilentCorruption { failures } => {
                assert_eq!(failures.len(), 2, "{failures:?}");
                assert!(failures[0].contains("9 particles"), "{failures:?}");
                assert!(failures[1].contains("node_charge[0]"), "{failures:?}");
            }
            other => panic!("expected SilentCorruption, got {other:?}"),
        }
        // And a matching pair recovers.
        let faulted = vec![mk(1.0, 10), mk(1.0, 10)];
        assert!(matches!(
            classify_mpi(&reference, &faulted, 4),
            ChaosVerdict::Recovered { injected: 4, .. }
        ));
    }

    /// The soft-error cell: quarantine detects the NaN, the recovery
    /// driver rolls back and replays, and the healed trajectory is
    /// bit-identical to the undisturbed reference.
    #[test]
    fn nan_soft_error_heals_through_rollback_and_replay() {
        let cell = ChaosCell {
            fault: ChaosFault::NanInject { step: 3 },
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
            fault: ChaosFault::Mpi {
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
        assert!(chaos_cell_fails(&cell));
        let mut evals = 0usize;
        let (shrunk, spent) = shrink_chaos(&cell, &mut |c| {
            evals += 1;
            chaos_cell_fails(c)
        });
        assert_eq!(evals, spent);
        assert!(spent <= MAX_CHAOS_ATTEMPTS);
        assert!(shrunk.steps <= 2, "shrunk to {} steps", shrunk.steps);
        assert!(shrunk.ranks == 2, "shrunk to {} ranks", shrunk.ranks);
        assert!(chaos_cell_fails(&shrunk));

        let lines = run_chaos_cell(&shrunk).failure_lines();
        let src = chaos_reproducer_json(&shrunk, &lines);
        let (back, recorded) = parse_chaos_reproducer(&src).expect("parse");
        assert_eq!(back, shrunk);
        assert_eq!(recorded, lines);
    }

    #[test]
    fn reproducer_roundtrips_every_fault_shape() {
        for fault in [
            ChaosFault::None,
            ChaosFault::Mpi {
                kind: FaultKind::Stall,
                rate: 0.25,
                budget: 6,
            },
            ChaosFault::NanInject { step: 4 },
            ChaosFault::RankKill {
                rank: 2,
                step: 4,
                site: KillSite::Checkpoint,
                policy: DeathPolicy::Shrink,
            },
            ChaosFault::RankKill {
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
            let (back, _) =
                parse_chaos_reproducer(&chaos_reproducer_json(&cell, &[])).expect("parse");
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn stale_chaos_schema_is_rejected() {
        let cell = mpi_cell(FaultKind::Drop, 1, 1.0, 1, 2);
        let src = chaos_reproducer_json(&cell, &[]).replace(CHAOS_SCHEMA, "oppic-chaos-repro-v0");
        let err = parse_chaos_reproducer(&src).unwrap_err();
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
            fault: ChaosFault::RankKill {
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
        assert!(
            report.recorder_dump.is_some(),
            "a death verdict must leave a flight-recorder dump"
        );
    }

    /// The shrinker may drive steps, ranks, or the kill point out of
    /// their original relation; the scenario mapping has to keep every
    /// reachable cell a well-formed experiment.
    #[test]
    fn rank_kill_scenario_clamps_shrunk_cells() {
        let cell = ChaosCell {
            fault: ChaosFault::RankKill {
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
        let sc = rank_kill_scenario(&cell);
        let kill = sc.kill.unwrap();
        assert!(kill.rank < sc.ranks);
        assert!(kill.step >= 1 && kill.step <= sc.steps);
        assert_eq!(
            kill.step % sc.checkpoint_every,
            0,
            "a checkpoint-site kill must land on a boundary"
        );
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
        let (back, _) = parse_chaos_reproducer(&chaos_reproducer_json(&cell, &[])).expect("parse");
        assert_eq!(back, cell);
        // Older reproducers omit the field: the default applies.
        let src: String = chaos_reproducer_json(&cell, &[])
            .lines()
            .filter(|l| !l.contains("\"quiet_retransmit_ms\""))
            .collect::<Vec<_>>()
            .join("\n");
        let (back, _) = parse_chaos_reproducer(&src).expect("parse");
        assert_eq!(back.quiet_retransmit_ms, DEFAULT_QUIET_RETRANSMIT_MS);
    }

    /// A reproducer captured on the retired overlap form is refused,
    /// not replayed synchronously; one without the key, or with it
    /// off, still parses.
    #[test]
    fn retired_overlap_reproducer_is_refused() {
        let cell = mpi_cell(FaultKind::Delay, 0x61, 1.0, 3, 2);
        let src = chaos_reproducer_json(&cell, &[]);
        let with = |v: &str| {
            src.replace(
                "\"quiet_retransmit_ms\"",
                &format!("\"overlap\": {v},\n  \"quiet_retransmit_ms\""),
            )
        };
        let err = parse_chaos_reproducer(&with("true")).unwrap_err();
        assert!(err.contains("retired 'overlap' form"), "{err}");
        for src in [src.clone(), with("false")] {
            let (back, _) = parse_chaos_reproducer(&src).expect("parse");
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
            fault: ChaosFault::NanInject { step: 3 },
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
        assert!(
            dump.records.iter().any(|r| {
                r.kind == oppic_obs::recorder::EventKind::Alert
                    && r.name.as_deref() == Some("recovery_rollback")
            }),
            "no recovery_rollback alert in {} record(s)",
            dump.records.len()
        );
        // The recorder watches the stepped sim's hub, so the ring holds
        // its per-step spans too.
        assert!(
            dump.records
                .iter()
                .any(|r| r.kind == oppic_obs::recorder::EventKind::Span && r.step.is_some()),
            "no span record with a step number in {} record(s)",
            dump.records.len()
        );
    }
}
