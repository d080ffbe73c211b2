//! The resilient run loop (DESIGN.md §13): any [`RankApp`]'s step
//! over the reliable link, checkpointed every few steps and rewound to
//! a shard when a step fails. Every chaos cell and every rank-failure
//! experiment runs through it, in one of three shapes:
//!
//! * **Network fault** — a seeded [`FaultSchedule`] on the data plane;
//!   the reliable link retransmits through it, or the run aborts with
//!   a typed error.
//! * **Soft error** — one particle position poisoned to NaN on a
//!   one-rank world whose app config guards its numerics. The
//!   post-step check (the sim's invariants and the numeric quarantine's
//!   `resilience.quarantined` count) fails, and the rank rewinds to its
//!   own latest shard and replays.
//! * **Rank kill** — one rank fail-stops mid-run
//!   ([`oppic_mpi::FaultKind::Crash`] — an early return that leaves
//!   its channels open but forever silent). Survivors then walk the
//!   full recovery chain:
//!
//!   1. a reliable collective times out with a typed
//!      `RetriesExhausted` naming the silent peer;
//!   2. the lease-based [`FailureDetector`] grants every peer a full
//!      death deadline and declares exactly the frozen ones dead;
//!   3. [`agree_evict`] commits an identical `(epoch, members)` on
//!      every survivor over the proposal board;
//!   4. each survivor reloads its own shard from the latest checkpoint
//!      version common to *all* pre-shrink slots (a rank killed during
//!      a checkpoint pushes everyone one version back), re-partitions
//!      the dead rank's cells over the survivors, adopts its particles
//!      in deterministic order, and installs the new membership on the
//!      reliable link (the epoch fence against zombies);
//!   5. the step loop rewinds to the checkpoint and replays.
//!
//! The correctness oracle is the scenario's fault-free reference
//! ([`RankFailScenario::twin`]): for a kill, a *planned-shrink twin*
//! that shrinks by fiat at the same checkpoint version with the same
//! dead rank; otherwise the same scenario with its fault disarmed.
//! Because checkpoint restore is bit-exact and the re-partition and
//! adoption order is deterministic, the faulted run must end
//! bit-identical to its reference — anything else is silent
//! corruption ([`classify_shrink`]).

use crate::{
    agree_evict, latest_common_version, read_shard, write_shard, LinkError, Membership, Reliable,
    ReliableLink, RetryPolicy,
};
use oppic_core::telemetry::{self, AlertSeverity, Telemetry};
use oppic_core::{CheckpointManifest, Observable, ParticleDats};
use oppic_mpi::comm::RankCtx;
use oppic_mpi::partition::directional_partition;
use oppic_mpi::{
    world_run_faulty, FailureDetector, FaultKind, FaultSchedule, FaultSpec, HeartbeatConfig,
    MigrationStats, RankApp, Transport,
};
use oppic_obs::recorder::FlightRecorder;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where in the step the victim rank fail-stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSite {
    /// At the top of the step, before any work.
    Step,
    /// After local compute, just before the migration exchange — its
    /// peers are already committed to hearing from it.
    Exchange,
    /// At the checkpoint boundary, *instead of* writing its shard —
    /// survivors wrote the new version, the victim did not, so
    /// recovery must fall back one coordinated version.
    Checkpoint,
}

impl KillSite {
    pub fn name(self) -> &'static str {
        match self {
            KillSite::Step => "step",
            KillSite::Exchange => "exchange",
            KillSite::Checkpoint => "checkpoint",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        let all = [KillSite::Step, KillSite::Exchange, KillSite::Checkpoint];
        all.into_iter().find(|k| k.name() == s)
    }
}

/// What survivors of a [`Fault::RankKill`] do when a collective fails
/// (`on_rank_death` in chaos reproducers). Every other failed
/// collective aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathPolicy {
    /// Evict, re-partition, replay from the last coordinated
    /// checkpoint — the run continues at the surviving rank count.
    Shrink,
    /// Give up with a typed error on every survivor (clean abort).
    Abort,
}

impl DeathPolicy {
    pub fn name(self) -> &'static str {
        match self {
            DeathPolicy::Shrink => "shrink",
            DeathPolicy::Abort => "abort",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [DeathPolicy::Shrink, DeathPolicy::Abort]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// What a scenario injects: the fault vocabulary of the resilient loop
/// and of the chaos stage's cells alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Nothing: the disarmed control and every reference.
    None,
    /// A seeded schedule on the MPI shim's data plane.
    Network {
        kind: FaultKind,
        /// Per-message firing probability.
        rate: f64,
        /// Total injections before the schedule quiesces.
        budget: u64,
    },
    /// One particle position poisoned to NaN at the top of `step`, on
    /// its first attempt only. Runs on one rank, whose app config must
    /// guard its numerics: the app's invariants may compare reduced
    /// fields with the rank's own particles.
    SoftError { step: usize },
    /// Process fault: `rank` fail-stops at `step`, at `site` (the
    /// "stall-forever" kill); survivors then follow `policy`.
    RankKill {
        rank: usize,
        step: usize,
        site: KillSite,
        policy: DeathPolicy,
    },
}

/// One experiment of the resilient loop; the app and its config are
/// the caller's. `fault` arms the fault; `twin()` makes the fault-free
/// reference the faulted run must match bit-for-bit.
#[derive(Debug, Clone)]
pub struct RankFailScenario {
    pub ranks: usize,
    pub steps: usize,
    /// Seeds the fault schedule, the failure detector and the
    /// soft-error victim.
    pub seed: u64,
    /// Coordinated shard cadence, in steps. Step 0 is always shard-ed.
    pub checkpoint_every: usize,
    pub fault: Fault,
    /// Planned-shrink twin: `(dead rank, checkpoint version)` to
    /// shrink at by fiat. Only [`RankFailScenario::twin`] sets it.
    planned_shrink: Option<(usize, u64)>,
    pub heartbeat_ms: u64,
    pub death_deadline_ms: u64,
    /// Retry budget of the reliable link, and rewind budget of the
    /// run (shrinks and rollbacks alike); 0 disables both.
    pub max_retries: usize,
    pub retransmit_ms: u64,
}

impl RankFailScenario {
    /// Small-but-real default: 4 ranks, a mid-run kill, deadlines
    /// sized so detection dominates neither the run nor CI.
    pub fn baseline() -> Self {
        RankFailScenario {
            ranks: 4,
            steps: 12,
            seed: 0xFA11,
            checkpoint_every: 4,
            fault: Fault::RankKill {
                rank: 2,
                step: 6,
                site: KillSite::Step,
                policy: DeathPolicy::Shrink,
            },
            planned_shrink: None,
            heartbeat_ms: 2,
            death_deadline_ms: 150,
            max_retries: 6,
            retransmit_ms: 80,
        }
    }

    /// The checkpoint version recovery must land on: the newest
    /// boundary every rank had fully written *before* the kill. A
    /// `Checkpoint`-site kill at boundary `k` leaves the victim's slot
    /// at `k - checkpoint_every`, so the formula is uniform.
    pub fn recovery_version(&self) -> u64 {
        let k = match self.fault {
            Fault::RankKill { step, .. } => step,
            _ => self.steps + 1,
        };
        ((k - 1) / self.checkpoint_every * self.checkpoint_every) as u64
    }

    /// The fault-free reference for this scenario: the planned-shrink
    /// twin of a kill, the same scenario with its fault disarmed
    /// otherwise.
    pub fn twin(&self) -> Self {
        let mut t = self.clone();
        if let Fault::RankKill { rank, .. } = self.fault {
            t.planned_shrink = Some((rank, self.recovery_version()));
        }
        t.fault = Fault::None;
        t
    }

    /// The rank a [`Fault::RankKill`] fail-stops.
    pub fn victim(&self) -> Option<usize> {
        match self.fault {
            Fault::RankKill { rank, .. } => Some(rank),
            _ => None,
        }
    }
}

/// Per-rank observables of one run. `None` end state means the rank
/// died (by crash or by planned shrink).
#[derive(Debug, Clone, Default)]
pub struct RankFinal {
    /// The app's [`oppic_core::Simulation::observables`] at the end
    /// (the particle count among them).
    pub observables: Vec<Observable>,
    /// The particles' position column, in store order.
    pub positions: Vec<f64>,
    pub epoch: u64,
    pub members: Vec<usize>,
    /// Faults the run injected, world-wide: the schedule's data-plane
    /// faults, plus one for a kill or a soft error.
    pub injected: u64,
    /// Rewinds performed: shrinks and soft-error rollbacks.
    pub recoveries: u64,
    pub rank_deaths: u64,
    pub stale_epoch_dropped: u64,
    pub retransmits: u64,
    /// Collective-error → death-verdict latency, summed over
    /// recoveries.
    pub detection_ms: f64,
    /// Verdict → membership-installed latency (agreement + restore +
    /// re-partition + adoption), summed over recoveries.
    pub recovery_ms: f64,
    /// The part of `recovery_ms` spent waiting for every survivor's
    /// proposal in [`agree_evict`].
    pub agreement_ms: f64,
    pub steps_replayed: u64,
    pub pre_steps_per_s: f64,
    pub post_steps_per_s: f64,
    /// Flight-recorder dump (`OPFR`) when the rank's hub raised an
    /// alert (a death verdict or a rollback).
    pub recorder_dump: Option<Vec<u8>>,
}

/// A rank's typed abort: the error, and the flight-recorder dump when
/// its hub raised an alert before it gave up.
#[derive(Debug, Clone)]
pub struct RankAbort {
    pub error: String,
    pub recorder_dump: Option<Vec<u8>>,
}

impl fmt::Display for RankAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.error)
    }
}

/// Why a step did not complete.
enum Interrupted {
    /// This rank fail-stopped at the `Exchange` kill site.
    Killed,
    /// A reliable collective failed.
    Link(LinkError),
}

/// The rank's reliable transport, armed to fail-stop at the `Exchange`
/// kill site: after the move and before the migration collective.
struct KillSwitch<'a> {
    net: Reliable<'a>,
    armed: bool,
}

impl Transport for KillSwitch<'_> {
    type Error = Interrupted;

    fn migrate(&mut self, ps: &mut ParticleDats) -> Result<MigrationStats, Interrupted> {
        if self.armed {
            return Err(Interrupted::Killed);
        }
        self.net.migrate(ps).map_err(Interrupted::Link)
    }

    fn allreduce_sum(&mut self, x: &mut [f64]) -> Result<(), Interrupted> {
        self.net.allreduce_sum(x).map_err(Interrupted::Link)
    }
}

/// One rank of a resilient run: everything it mutates across failures
/// (one recovery rewrites most of it), and the recovery tallies its
/// end state reports.
struct RankRun<'a, A: RankApp> {
    sc: &'a RankFailScenario,
    cfg: &'a A::Config,
    sim: A,
    cell_rank: Vec<u32>,
    membership: Membership,
    link: ReliableLink,
    detector: FailureDetector,
    /// Recoveries, deaths, steps replayed and the recovery latencies.
    tally: RankFinal,
}

impl<A: RankApp> RankRun<'_, A> {
    /// Write this rank's coordinated shard for `step` (checkpoint v2:
    /// manifest + opaque state blob).
    fn write_shard(&self, ctx: &RankCtx, step: usize) -> Result<(), String> {
        let manifest = CheckpointManifest {
            epoch: self.membership.epoch(),
            n_ranks: ctx.n_ranks as u64,
            rank: ctx.rank as u64,
            step: step as u64,
            cell_owner: self.cell_rank.iter().map(|&o| o as i32).collect(),
        };
        let mut blob = Vec::new();
        self.sim
            .save_state(&mut blob)
            .map_err(|e| format!("checkpoint save failed: {e}"))?;
        write_shard(ctx, &manifest, &blob).map_err(|e| e.to_string())
    }

    /// Restore this rank's own shard at `version`: its state and the
    /// partition it was written under. The shard's CRC and manifest are
    /// checked before anything is touched.
    fn restore_own(&mut self, ctx: &RankCtx, version: u64) -> Result<(), String> {
        let (manifest, blob) = read_shard(ctx, ctx.rank, version).map_err(|e| e.to_string())?;
        manifest
            .validate(ctx.n_ranks, Some(ctx.rank), self.cell_rank.len())
            .map_err(|e| format!("own shard rejected: {e}"))?;
        self.sim
            .restore_state(&blob)
            .map_err(|e| format!("checkpoint restore failed: {e}"))?;
        self.cell_rank = manifest.cell_owner.iter().map(|&o| o as u32).collect();
        Ok(())
    }

    /// The shrink itself, shared by the faulted path and the planned
    /// twin: restore own shard at `version`, hand the dead ranks' cells
    /// to survivors, adopt their particles (dead rank ascending,
    /// particle index ascending — deterministic), fence the link on the
    /// new epoch.
    fn shrink(
        &mut self,
        ctx: &RankCtx,
        dead: &[usize],
        next: Membership,
        version: u64,
    ) -> Result<(), String> {
        self.restore_own(ctx, version)?;
        let n_cells = self.cell_rank.len();

        // Re-home the dead ranks' cells over the survivors with the
        // same partitioner that cut the original decomposition.
        let dead_cells: Vec<usize> = (0..n_cells)
            .filter(|&c| dead.contains(&(self.cell_rank[c] as usize)))
            .collect();
        if !dead_cells.is_empty() {
            let centroids: Vec<_> = dead_cells
                .iter()
                .map(|&c| self.sim.cell_centroid(c))
                .collect();
            let part = directional_partition(&centroids, 1, next.n_members());
            for (i, &c) in dead_cells.iter().enumerate() {
                self.cell_rank[c] = next.members()[part[i] as usize] as u32;
            }
        }

        // Adopt the particles the dead ranks were carrying at
        // `version`, through a scratch sim of each dead rank.
        let mut payload = Vec::new();
        for &d in dead {
            let (dm, dblob) = read_shard(ctx, d, version).map_err(|e| e.to_string())?;
            dm.validate(ctx.n_ranks, None, n_cells)
                .map_err(|e| format!("dead rank {d} shard rejected: {e}"))?;
            let (mut scratch, _) = A::new_rank(self.cfg, d, self.sc.ranks);
            scratch
                .restore_state(&dblob)
                .map_err(|e| format!("dead rank {d} restore failed: {e}"))?;
            let (adopted, _) = scratch.particles();
            let (ps, _) = self.sim.particles();
            for (i, &c) in adopted.cells().iter().enumerate() {
                if self.cell_rank[c as usize] as usize == ctx.rank {
                    payload.clear();
                    adopted.pack_one(i, &mut payload);
                    ps.unpack_one(&payload, c);
                }
            }
        }

        self.link.install_membership(&next);
        self.membership = next;
        Ok(())
    }

    /// Spend one rewind of the run's budget (`max_retries`; 0 disables
    /// rollback as it disables retransmission).
    fn spend_rewind(&mut self, err: &str) -> Result<(), String> {
        if self.tally.recoveries >= self.sc.max_retries as u64 {
            return Err(format!(
                "rollback budget of {} rewinds exhausted: {err}",
                self.sc.max_retries
            ));
        }
        self.tally.recoveries += 1;
        Ok(())
    }

    /// The faulted-path recovery chain; returns the checkpoint version
    /// to rewind to.
    fn recover_after_failure(&mut self, ctx: &mut RankCtx, err: &str) -> Result<u64, String> {
        if !matches!(
            self.sc.fault,
            Fault::RankKill {
                policy: DeathPolicy::Shrink,
                ..
            }
        ) {
            return Err(format!("collective failed and on-rank-death=abort: {err}"));
        }
        self.spend_rewind(err)?;
        // Suspect every current peer, not just whoever the error names:
        // in an asymmetric collective (gather/broadcast) a survivor only
        // sees the leader time out. The lease board finds the truly
        // frozen ranks; live peers renew and are acquitted.
        let t0 = Instant::now();
        let suspects = self.membership.peers(ctx.rank);
        let dead = self.detector.wait_verdict(ctx, &suspects);
        if dead.is_empty() {
            return Err(format!("collective failed but every peer is alive: {err}"));
        }
        self.tally.detection_ms += t0.elapsed().as_secs_f64() * 1e3;
        self.tally.rank_deaths += dead.len() as u64;
        telemetry::count("resilience.rank_deaths", dead.len() as u64);
        self.sim.telemetry().alert(
            "rank_death",
            AlertSeverity::Critical,
            &format!("ranks {dead:?} declared dead after {err}"),
        );

        let t1 = Instant::now();
        // Version selection must include the dead ranks' slots: a victim
        // killed mid-checkpoint is exactly the rank whose slot lags.
        let pre_shrink_slots = self.membership.members().to_vec();
        let next = agree_evict(ctx, &mut self.detector, &self.membership, &dead)
            .map_err(|e| e.to_string())?;
        self.tally.agreement_ms += t1.elapsed().as_secs_f64() * 1e3;
        let version = latest_common_version(ctx, &pre_shrink_slots).map_err(|e| e.to_string())?;
        self.shrink(ctx, &dead, next, version)?;
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        self.tally.recovery_ms += ms;
        if let Some(h) = telemetry::hist("resilience.recovery_ms") {
            h.record(ms.ceil() as u64);
        }
        Ok(version)
    }

    /// The soft-error rewind: restore this rank's own latest shard,
    /// counted, traced and alerted on the rank's hub; returns the
    /// version to replay from.
    fn roll_back(&mut self, ctx: &RankCtx, step: usize, fault: &str) -> Result<u64, String> {
        self.spend_rewind(fault)?;
        let version = latest_common_version(ctx, &[ctx.rank]).map_err(|e| e.to_string())?;
        self.restore_own(ctx, version)?;
        let replayed = step as u64 - version;
        telemetry::count("resilience.recoveries", 1);
        telemetry::count("resilience.steps_replayed", replayed);
        let hub = self.sim.telemetry();
        hub.trace(
            "recovery",
            format!(
                "fault=\"{fault}\" detected_at={step} rollback_to={version} replayed={replayed}"
            ),
        );
        // A rollback is always alert-worthy: the run survived, but
        // something corrupted live state.
        hub.alert(
            "recovery_rollback",
            AlertSeverity::Warn,
            &format!("rolled back step {step} -> {version} ({replayed} replayed): {fault}"),
        );
        Ok(version)
    }
}

/// Run one scenario of app `A`, every rank built from `cfg`; entry `r`
/// is rank `r`'s end state (`Ok(None)` = died). Deterministic given
/// the scenario and the config: every fault is carried by a seeded
/// [`FaultSchedule`] or the scenario itself, so runs replay. A rank
/// keeps its flight-recorder dump whenever its hub raised an alert,
/// whether it then recovered or gave up. A soft-error scenario on more
/// than one rank is refused with a typed error on every rank.
pub fn run_scenario<A: RankApp>(
    sc: &RankFailScenario,
    cfg: &A::Config,
) -> Vec<Result<Option<RankFinal>, RankAbort>> {
    if matches!(sc.fault, Fault::SoftError { .. }) && sc.ranks != 1 {
        let error = format!(
            "a soft-error scenario runs on one rank, not {}: the app's invariants may \
             compare reduced fields with the rank's own particles",
            sc.ranks
        );
        let abort = RankAbort {
            error,
            recorder_dump: None,
        };
        return vec![Err(abort); sc.ranks];
    }
    // One seeded schedule carries the data-plane fault or the crash.
    let spec = match sc.fault {
        Fault::Network { kind, rate, budget } => Some((FaultSpec::new(kind, rate), budget)),
        Fault::RankKill { rank, step, .. } => Some((
            FaultSpec::new(
                FaultKind::Crash {
                    rank,
                    at_step: step,
                },
                1.0,
            ),
            u64::MAX,
        )),
        _ => None,
    };
    let sched = spec.map(|(spec, budget)| {
        Arc::new(FaultSchedule::new(sc.seed, vec![spec]).with_budget(budget))
    });

    let mut out = world_run_faulty(sc.ranks, sched.clone(), |ctx: &mut RankCtx| {
        let (sim, cell_rank) = A::new_rank(cfg, ctx.rank, sc.ranks);
        let hub = sim.telemetry().clone();
        let _guard = hub.make_current();
        let recorder = Arc::new(FlightRecorder::new(4096));
        hub.set_observer(Some(recorder.clone()));
        let dump = || {
            (hub.alert_total() > 0)
                .then(|| recorder.dump(Vec::new()).ok())
                .flatten()
        };
        match run_rank(ctx, sc, cfg, sim, cell_rank) {
            Ok(fin) => Ok(fin.map(|fin| RankFinal {
                recorder_dump: dump(),
                ..fin
            })),
            Err(error) => Err(RankAbort {
                error,
                recorder_dump: dump(),
            }),
        }
    });
    let injected = sched.map_or(0, |s| s.injected())
        + u64::from(matches!(
            sc.fault,
            Fault::RankKill { .. } | Fault::SoftError { .. }
        ));
    for fin in out.iter_mut().flatten().flatten() {
        fin.injected = injected;
    }
    out
}

/// One rank's step loop: checkpoint every `checkpoint_every` steps,
/// rewind on a failed collective or a failed soft-error check. The
/// sim's hub is the rank's: the step, the reliable link and the
/// recovery chain all count and alert there.
fn run_rank<A: RankApp>(
    ctx: &mut RankCtx,
    sc: &RankFailScenario,
    cfg: &A::Config,
    sim: A,
    cell_rank: Vec<u32>,
) -> Result<Option<RankFinal>, String> {
    let hub: Arc<Telemetry> = sim.telemetry().clone();
    let mut run = RankRun {
        sc,
        cfg,
        cell_rank,
        sim,
        membership: Membership::world(sc.ranks),
        link: ReliableLink::new(RetryPolicy {
            max_retries: sc.max_retries,
            base_timeout: Duration::from_millis(sc.retransmit_ms),
            ..RetryPolicy::default()
        }),
        detector: FailureDetector::new(
            ctx,
            HeartbeatConfig {
                heartbeat: Duration::from_millis(sc.heartbeat_ms),
                death_deadline: Duration::from_millis(sc.death_deadline_ms),
                seed: sc.seed,
            },
        ),
        tally: RankFinal::default(),
    };
    // Whether this rank fail-stops at `site` of step `s`.
    let my_crash = ctx.crash_step();
    let kill_at = |site: KillSite, s: usize| {
        my_crash == Some(s) && matches!(sc.fault, Fault::RankKill { site: at, .. } if at == site)
    };
    let guarded = matches!(sc.fault, Fault::SoftError { .. });
    let mut poisoned = false;

    // Coordinated step-0 shard, then one barrier so every lease has
    // beaten at least once before any kill can fire.
    run.write_shard(ctx, 0)?;
    run.detector.beat_now(ctx);
    ctx.barrier();

    // (seconds, steps) before and after the first recovery.
    let mut rate = [(0.0f64, 0u64); 2];
    let mut s = 1usize;
    while s <= sc.steps {
        // Planned-shrink twin: shrink by fiat right after the chosen
        // checkpoint version, once.
        if let Some((dead_rank, version)) = sc.planned_shrink {
            if s as u64 == version + 1 && run.membership.epoch() == 0 {
                ctx.barrier(); // all shards for `version` are on the store
                if ctx.rank == dead_rank {
                    return Ok(None);
                }
                let mut next = run.membership.clone();
                next.evict(&[dead_rank]).map_err(|e| e.to_string())?;
                run.shrink(ctx, &[dead_rank], next, version)?;
            }
        }
        if kill_at(KillSite::Step, s) {
            return Ok(None); // fail-stop: channels stay open, forever silent
        }
        let (ps, pos) = run.sim.particles();
        if sc.fault == (Fault::SoftError { step: s }) && !poisoned && !ps.is_empty() {
            // The transient soft error: one live position word turns
            // NaN. The guarded step's quarantine is the detector.
            poisoned = true;
            let victim = sc.seed as usize % ps.len();
            ps.el_mut(pos, victim)[0] = f64::NAN;
        }
        let quarantined = hub.counter("resilience.quarantined");
        let step_start = Instant::now();
        run.detector.beat(ctx);

        let mut net = KillSwitch {
            net: Reliable {
                link: &mut run.link,
                ctx,
                cell_rank: &run.cell_rank,
            },
            armed: kill_at(KillSite::Exchange, s),
        };
        let rewind_to = match run.sim.step_over(&mut net) {
            // Fail-stop with peers already committed to the exchange.
            Err(Interrupted::Killed) => return Ok(None),
            Err(Interrupted::Link(e)) => Some(run.recover_after_failure(ctx, &e.to_string())?),
            // The soft-error check: the sim's invariants hold and the
            // step quarantined no particle for non-finite state.
            Ok(_) if guarded => {
                let check = run.sim.invariants().and_then(|()| {
                    match hub.counter("resilience.quarantined") - quarantined {
                        0 => Ok(()),
                        n => Err(format!("{n} particle(s) quarantined with non-finite state")),
                    }
                });
                match check {
                    Err(fault) => Some(run.roll_back(ctx, s, &fault)?),
                    Ok(()) => None,
                }
            }
            Ok(_) => None,
        };
        if let Some(version) = rewind_to {
            run.tally.steps_replayed += s as u64 - version;
            s = version as usize + 1;
            continue;
        }

        if s.is_multiple_of(sc.checkpoint_every) {
            if kill_at(KillSite::Checkpoint, s) {
                return Ok(None); // died before writing the shard
            }
            run.write_shard(ctx, s)?;
        }

        let (t, n) = &mut rate[usize::from(run.tally.recoveries > 0)];
        *t += step_start.elapsed().as_secs_f64();
        *n += 1;
        s += 1;
    }

    let per_s = |(t, n): (f64, u64)| if t > 0.0 { n as f64 / t } else { 0.0 };
    let observables = run.sim.observables();
    let (ps, pos) = run.sim.particles();
    Ok(Some(RankFinal {
        observables,
        positions: ps.col(pos).to_vec(),
        epoch: run.membership.epoch(),
        members: run.membership.members().to_vec(),
        stale_epoch_dropped: hub.counter("resilience.stale_epoch_dropped"),
        retransmits: hub.counter("resilience.retransmits"),
        pre_steps_per_s: per_s(rate[0]),
        post_steps_per_s: per_s(rate[1]),
        ..run.tally
    }))
}

/// How a faulted run compares with its fault-free reference: the
/// three-way verdict of every chaos cell and rank-failure experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosVerdict {
    /// Completed and bit-identical to the fault-free reference.
    Recovered {
        /// Faults the run injected.
        injected: u64,
        /// Retransmissions spent absorbing them (all ranks).
        retransmits: u64,
        /// Rollbacks or shrinks performed (all ranks).
        recoveries: u64,
    },
    /// Typed error instead of a result — no corruption, evidence kept.
    CleanAbort { errors: Vec<String> },
    /// Completed but diverged from the reference: the one outcome the
    /// resilience layer exists to make impossible.
    SilentCorruption { failures: Vec<String> },
}

/// Bit-compare rank `r`'s observables and particle positions, `got`,
/// with the reference's, `want`; `label` names the reference in the
/// lines.
fn compare_rank(
    r: usize,
    label: &str,
    want: &RankFinal,
    got: &RankFinal,
    failures: &mut Vec<String>,
) {
    for ((name, want), (_, got)) in columns(want).zip(columns(got)) {
        if let Some(i) = want
            .iter()
            .zip(got)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            failures.push(format!(
                "rank {r}: {name}[{i}] = {:e}, {label} {:e}",
                got[i], want[i]
            ));
        }
    }
}

/// `fin`'s observables, then its position column, by name.
fn columns(fin: &RankFinal) -> impl Iterator<Item = (&str, &[f64])> {
    let observables = fin.observables.iter();
    let observables = observables.map(|o| (o.name.as_str(), o.values.as_slice()));
    observables.chain([("position", fin.positions.as_slice())])
}

/// Classify a faulted run against its reference (`sc.twin()`'s run),
/// rank by rank. A failed reference is a harness defect the verdict
/// must not paper over (`SilentCorruption`); any rank error makes a
/// `CleanAbort`. Otherwise a kill's victim must be dead and only it,
/// and every live rank must agree with the reference bit for bit on
/// membership, observables and positions;
/// agreement makes `Recovered`, with retransmits and recoveries summed
/// over the faulted ranks.
pub fn classify_shrink<E: fmt::Display>(
    sc: &RankFailScenario,
    reference: &[Result<Option<RankFinal>, E>],
    faulted: &[Result<Option<RankFinal>, E>],
) -> ChaosVerdict {
    let (label, reference_failed) = match sc.victim() {
        Some(_) => ("twin", "planned-shrink twin failed"),
        None => ("reference", "fault-free reference run failed"),
    };
    if let Some(bad) = reference.iter().find_map(|r| r.as_ref().err()) {
        return ChaosVerdict::SilentCorruption {
            failures: vec![format!("{reference_failed}: {bad}")],
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

    let dead = sc.victim();
    let mut failures = Vec::new();
    let (mut injected, mut retransmits, mut recoveries) = (0u64, 0u64, 0u64);
    for (r, (want, got)) in reference.iter().zip(faulted).enumerate() {
        let (Ok(want), Ok(got)) = (want, got) else {
            unreachable!("errors are classified above");
        };
        match (want, got, Some(r) == dead) {
            (_, None, true) | (None, None, false) => {}
            (_, Some(_), true) => failures.push(format!("rank {r}: victim survived its own kill")),
            (None, Some(_), false) => {
                failures.push(format!("rank {r}: alive in faulted run, dead in {label}"))
            }
            (Some(_), None, false) => failures.push(format!("rank {r}: died without being killed")),
            (Some(want), Some(got), false) => {
                if got.epoch != want.epoch || got.members != want.members {
                    failures.push(format!(
                        "rank {r}: membership (epoch {}, {:?}), {label} (epoch {}, {:?})",
                        got.epoch, got.members, want.epoch, want.members
                    ));
                }
                compare_rank(r, label, want, got, &mut failures);
            }
        }
        if let Some(got) = got {
            injected = got.injected;
            retransmits += got.retransmits;
            recoveries += got.recoveries;
        }
    }
    if failures.is_empty() {
        ChaosVerdict::Recovered {
            injected,
            retransmits,
            recoveries,
        }
    } else {
        ChaosVerdict::SilentCorruption { failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_fempic::{FemPic, FemPicConfig};
    use oppic_mpi::{world_run, Plain};

    /// The scenario's Mini-FEM-PIC world with `particles` injected per
    /// step. A soft-error scenario runs guarded (bit-identical to
    /// unguarded on healthy steps), so its quarantine sees the poisoned
    /// particle.
    fn fempic(sc: &RankFailScenario, particles: usize) -> FemPicConfig {
        FemPicConfig {
            guard_numerics: matches!(sc.fault, Fault::SoftError { .. }),
            ..FemPicConfig::tiny_seeded(particles, sc.seed)
        }
    }

    /// [`run_scenario`] on the baseline's 160 particles per step.
    fn run_baseline(sc: &RankFailScenario) -> Vec<Result<Option<RankFinal>, RankAbort>> {
        run_scenario::<FemPic>(sc, &fempic(sc, 160))
    }

    /// The baseline with its kill moved to `rank`, `step`, `site`.
    fn kill(rank: usize, step: usize, site: KillSite) -> RankFailScenario {
        RankFailScenario {
            fault: Fault::RankKill {
                rank,
                step,
                site,
                policy: DeathPolicy::Shrink,
            },
            ..RankFailScenario::baseline()
        }
    }

    fn assert_recovered(sc: &RankFailScenario) {
        let twin = run_baseline(&sc.twin());
        let faulted = run_baseline(sc);
        let verdict = classify_shrink(sc, &twin, &faulted);
        assert!(
            matches!(verdict, ChaosVerdict::Recovered { .. }),
            "scenario {sc:?}: {verdict:?}"
        );
        let survivor = faulted
            .iter()
            .flat_map(|r| r.as_ref().unwrap())
            .next()
            .unwrap();
        assert_eq!(survivor.epoch, 1);
        assert_eq!(survivor.recoveries, 1);
        assert!(survivor.detection_ms > 0.0);
        assert!(survivor.recovery_ms > 0.0);
        let dump = survivor
            .recorder_dump
            .as_deref()
            .expect("a recovery keeps its dump");
        let dump = oppic_obs::FlightDump::parse(dump).unwrap();
        assert!(
            dump.events.iter().any(|ev| matches!(ev,
                oppic_core::telemetry::TelemetryEvent::Alert { rule, .. } if rule == "rank_death")),
            "no rank_death alert in {:?}",
            dump.events
        );
    }

    #[test]
    fn mid_step_kill_recovers_bit_identically() {
        assert_recovered(&RankFailScenario::baseline());
    }

    #[test]
    fn mid_exchange_kill_recovers_bit_identically() {
        assert_recovered(&kill(1, 7, KillSite::Exchange));
    }

    #[test]
    fn mid_checkpoint_kill_falls_back_one_version() {
        let sc = kill(3, 8, KillSite::Checkpoint);
        assert_eq!(sc.recovery_version(), 4, "must fall back past step 8");
        assert_recovered(&sc);
    }

    #[test]
    fn killing_the_leader_moves_the_root() {
        let sc = kill(0, 6, KillSite::Step);
        let twin = run_baseline(&sc.twin());
        let faulted = run_baseline(&sc);
        let verdict = classify_shrink(&sc, &twin, &faulted);
        assert!(
            matches!(verdict, ChaosVerdict::Recovered { .. }),
            "{verdict:?}"
        );
        let survivor = faulted[1].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(survivor.members, vec![1, 2, 3]);
    }

    #[test]
    fn abort_policy_gives_typed_clean_abort() {
        let mut sc = RankFailScenario::baseline();
        let Fault::RankKill { policy, .. } = &mut sc.fault else {
            unreachable!("the baseline kills a rank")
        };
        *policy = DeathPolicy::Abort;
        let twin = run_baseline(&sc.twin());
        let faulted = run_baseline(&sc);
        match classify_shrink(&sc, &twin, &faulted) {
            ChaosVerdict::CleanAbort { errors } => {
                assert_eq!(errors.len(), sc.ranks - 1, "every survivor aborts");
                assert!(errors[0].contains("on-rank-death=abort"));
            }
            v => panic!("expected CleanAbort, got {v:?}"),
        }
    }

    #[test]
    fn fault_free_run_never_shrinks() {
        let mut sc = RankFailScenario::baseline();
        sc.fault = Fault::None;
        for out in run_baseline(&sc) {
            let fin = out.unwrap().unwrap();
            assert_eq!(fin.epoch, 0);
            assert_eq!(fin.recoveries, 0);
            assert_eq!(fin.members, vec![0, 1, 2, 3]);
        }
    }

    /// The reliable link and the checkpoints are transparent to the
    /// physics: a fault-free resilient run ends, rank by rank, in the
    /// bits of the plain loop's.
    #[test]
    fn fault_free_resilient_run_matches_the_plain_loop() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ranks in 2..=4 {
            let mut sc = RankFailScenario::baseline();
            sc.ranks = ranks;
            sc.fault = Fault::None;
            let cfg = fempic(&sc, 160);
            let plain = world_run(ranks, |ctx| {
                let (mut sim, cell_rank) = FemPic::new_rank(&cfg, ctx.rank, ranks);
                let mut net = Plain {
                    ctx,
                    cell_rank: &cell_rank,
                };
                for _ in 0..sc.steps {
                    let Ok(_) = sim.step_over(&mut net);
                }
                sim
            });
            let resilient = run_scenario::<FemPic>(&sc, &cfg);
            for (r, (want, got)) in plain.iter().zip(&resilient).enumerate() {
                let got = got.as_ref().unwrap().as_ref().unwrap();
                let observable = |name: &str| {
                    let o = got.observables.iter().find(|o| o.name == name).unwrap();
                    bits(&o.values)
                };
                let at = format!("{ranks} ranks, rank {r}");
                assert_eq!(
                    observable("n_particles"),
                    bits(&[want.ps.len() as f64]),
                    "{at}"
                );
                assert_eq!(
                    observable("node_charge"),
                    bits(want.node_charge.raw()),
                    "{at}"
                );
                assert_eq!(bits(&got.positions), bits(want.ps.col(want.pos)), "{at}");
                assert_eq!(observable("potential"), bits(want.fem.potential()), "{at}");
            }
        }
    }

    /// A one-rank soft-error scenario: the NaN lands at the top of
    /// step 3, after the step-2 shard.
    fn soft_error() -> RankFailScenario {
        let mut sc = RankFailScenario::baseline();
        sc.ranks = 1;
        sc.steps = 5;
        sc.seed = 5;
        sc.checkpoint_every = 2;
        sc.fault = Fault::SoftError { step: 3 };
        sc
    }

    #[test]
    fn soft_error_rewind_publishes_on_the_rank_hub() {
        let sc = soft_error();
        let cfg = fempic(&sc, 8);
        let out = world_run_faulty(1, None, |ctx: &mut RankCtx| {
            let (sim, cell_rank) = FemPic::new_rank(&cfg, ctx.rank, 1);
            let hub = sim.profiler.telemetry().clone();
            let _guard = hub.make_current();
            let recorder = Arc::new(FlightRecorder::new(4096));
            hub.set_observer(Some(recorder.clone()));
            let fin = run_rank(ctx, &sc, &cfg, sim, cell_rank).unwrap().unwrap();
            let dump = oppic_obs::FlightDump::parse(&recorder.dump(Vec::new()).unwrap()).unwrap();
            (fin, hub, dump)
        });
        let (fin, hub, dump) = &out[0];
        assert_eq!((fin.recoveries, fin.steps_replayed), (1, 1));
        assert_eq!(hub.counter("resilience.recoveries"), 1);
        assert_eq!(hub.counter("resilience.steps_replayed"), 1);
        let traces = hub.traces();
        let (_, decision) = traces.iter().find(|(k, _)| k == "recovery").unwrap();
        assert!(
            decision.contains("detected_at=3 rollback_to=2 replayed=1"),
            "{decision}"
        );
        assert!(
            dump.events.iter().any(|ev| matches!(ev,
                oppic_core::telemetry::TelemetryEvent::Alert { rule, severity, .. }
                    if rule == "recovery_rollback" && *severity == AlertSeverity::Warn)),
            "no recovery_rollback alert in {:?}",
            dump.events
        );
    }

    #[test]
    fn soft_error_heals_bit_identically_and_keeps_its_dump() {
        let sc = soft_error();
        let cfg = fempic(&sc, 8);
        let reference = run_scenario::<FemPic>(&sc.twin(), &cfg);
        let faulted = run_scenario::<FemPic>(&sc, &cfg);
        assert_eq!(
            classify_shrink(&sc, &reference, &faulted),
            ChaosVerdict::Recovered {
                injected: 1,
                retransmits: 0,
                recoveries: 1
            }
        );
        let fin = faulted[0].as_ref().unwrap().as_ref().unwrap();
        assert!(fin.recorder_dump.is_some(), "a rollback keeps the dump");
        // The disarmed reference raised no alert, so it keeps none.
        let clean = reference[0].as_ref().unwrap().as_ref().unwrap();
        assert!(clean.recorder_dump.is_none());
    }

    #[test]
    fn soft_error_on_many_ranks_is_refused() {
        let mut sc = soft_error();
        sc.ranks = 2;
        let out = run_scenario::<FemPic>(&sc, &fempic(&sc, 8));
        assert_eq!(out.len(), 2);
        for r in out {
            assert!(r.unwrap_err().error.contains("runs on one rank"));
        }
    }
}
