//! Rank-failure and shrinking-recovery driver (DESIGN.md §13).
//!
//! Runs the reliable Mini-FEM-PIC distributed loop under a *process*
//! fault: one rank fail-stops mid-run ([`oppic_mpi::FaultKind::Crash`]
//! — an early return that leaves its channels open but forever
//! silent). Survivors then walk the full recovery chain:
//!
//! 1. a reliable collective times out with a typed
//!    `RetriesExhausted` naming the silent peer;
//! 2. the lease-based [`FailureDetector`] grants every peer a full
//!    death deadline and declares exactly the frozen ones dead;
//! 3. [`agree_evict`] commits an identical `(epoch, members)` on
//!    every survivor over the proposal board;
//! 4. each survivor reloads its own shard from the latest checkpoint
//!    version common to *all* pre-shrink slots (a rank killed during
//!    a checkpoint pushes everyone one version back), re-partitions
//!    the dead rank's cells over the survivors, adopts its particles
//!    in deterministic order, and installs the new membership on the
//!    reliable link (the epoch fence against zombies);
//! 5. the step loop rewinds to the checkpoint and replays.
//!
//! The correctness oracle is a *planned-shrink twin*: the same
//! scenario run fault-free, shrinking by fiat at the same checkpoint
//! version with the same dead rank. Because checkpoint restore is
//! bit-exact and the re-partition/adoption order is deterministic,
//! the faulted run's survivors must end bit-identical to the twin's —
//! anything else is silent corruption.

use oppic_core::telemetry::{self, AlertSeverity, Telemetry};
use oppic_core::{CheckpointManifest, ParticleDats, Recoverable};
use oppic_fempic::{FemPic, FemPicConfig};
use oppic_mpi::comm::RankCtx;
use oppic_mpi::partition::directional_partition;
use oppic_mpi::{MigrationStats, Transport};
use oppic_obs::recorder::FlightRecorder;
use oppic_resilience::{
    agree_evict, latest_common_version, read_shard, world_run_faulty, write_shard, FailureDetector,
    FaultSchedule, HeartbeatConfig, LinkError, Membership, Reliable, ReliableLink, RetryPolicy,
};
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
        match s {
            "step" => Some(KillSite::Step),
            "exchange" => Some(KillSite::Exchange),
            "checkpoint" => Some(KillSite::Checkpoint),
            _ => None,
        }
    }
}

/// What survivors do on a death verdict (`--on-rank-death`).
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
        match s {
            "shrink" => Some(DeathPolicy::Shrink),
            "abort" => Some(DeathPolicy::Abort),
            _ => None,
        }
    }
}

/// The injected process fault: `rank` fail-stops at `step`, at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    pub rank: usize,
    pub step: usize,
    pub site: KillSite,
}

/// One rank-failure experiment. `kill` arms the crash; `twin()` makes
/// the fault-free planned-shrink reference the faulted run must match
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct RankFailScenario {
    pub ranks: usize,
    pub steps: usize,
    pub particles: usize,
    pub seed: u64,
    /// Coordinated shard cadence, in steps. Step 0 is always shard-ed.
    pub checkpoint_every: usize,
    pub kill: Option<RankKill>,
    /// Fault-free twin: `(dead rank, checkpoint version)` to shrink at
    /// by fiat. Set via [`RankFailScenario::twin`], not by hand.
    pub planned_shrink: Option<(usize, u64)>,
    pub heartbeat_ms: u64,
    pub death_deadline_ms: u64,
    pub on_death: DeathPolicy,
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
            particles: 160,
            seed: 0xFA11,
            checkpoint_every: 4,
            kill: Some(RankKill {
                rank: 2,
                step: 6,
                site: KillSite::Step,
            }),
            planned_shrink: None,
            heartbeat_ms: 2,
            death_deadline_ms: 150,
            on_death: DeathPolicy::Shrink,
            max_retries: 6,
            retransmit_ms: 80,
        }
    }

    /// The checkpoint version recovery must land on: the newest
    /// boundary every rank had fully written *before* the kill. A
    /// `Checkpoint`-site kill at boundary `k` leaves the victim's slot
    /// at `k - checkpoint_every`, so the formula is uniform.
    pub fn recovery_version(&self) -> u64 {
        let k = self.kill.map(|k| k.step).unwrap_or(self.steps + 1);
        ((k - 1) / self.checkpoint_every * self.checkpoint_every) as u64
    }

    /// The fault-free planned-shrink reference for this scenario.
    pub fn twin(&self) -> Self {
        let mut t = self.clone();
        t.planned_shrink = self.kill.map(|k| (k.rank, self.recovery_version()));
        t.kill = None;
        t
    }
}

/// Per-rank observables of one run. `None` end state means the rank
/// died (by crash or by planned shrink).
#[derive(Debug, Clone)]
pub struct RankFinal {
    pub particles: usize,
    pub node_charge: Vec<f64>,
    pub epoch: u64,
    pub members: Vec<usize>,
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
    pub steps_replayed: u64,
    pub pre_steps_per_s: f64,
    pub post_steps_per_s: f64,
    /// Flight-recorder dump (`OPFR`) when a death verdict was raised.
    pub recorder_dump: Option<Vec<u8>>,
}

/// Everything a rank mutates across failures; one recovery rewrites
/// most of it, so it travels together.
struct RankRun<'a> {
    sc: &'a RankFailScenario,
    sim: FemPic,
    cell_rank: Vec<u32>,
    membership: Membership,
    link: ReliableLink,
    detector: FailureDetector,
    detection_ms: f64,
    recovery_ms: f64,
    recoveries: u64,
    rank_deaths: u64,
    steps_replayed: u64,
}

/// The whole-world configuration; rank `r` runs
/// `scenario_config(sc).rank_share(r, sc.ranks)`.
fn scenario_config(sc: &RankFailScenario) -> FemPicConfig {
    let mut cfg = FemPicConfig::tiny();
    cfg.inject_per_step = sc.particles;
    cfg.seed = cfg.seed.wrapping_add(sc.seed);
    cfg
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

/// Write this rank's coordinated shard for `step` (checkpoint v2:
/// manifest + opaque state blob).
fn write_boundary_shard(ctx: &RankCtx, run: &RankRun<'_>, step: usize) -> Result<(), String> {
    let manifest = CheckpointManifest {
        epoch: run.membership.epoch(),
        n_ranks: ctx.n_ranks as u64,
        rank: ctx.rank as u64,
        step: step as u64,
        cell_owner: run.cell_rank.iter().map(|&o| o as i32).collect(),
    };
    let mut blob = Vec::new();
    run.sim
        .save_state(&mut blob)
        .map_err(|e| format!("checkpoint save failed: {e}"))?;
    write_shard(ctx, &manifest, &blob).map_err(|e| e.to_string())
}

/// The shrink itself, shared by the faulted path and the planned
/// twin: restore own shard at `version`, hand the dead ranks' cells
/// to survivors, adopt their particles (dead rank ascending, particle
/// index ascending — deterministic), fence the link on the new epoch.
fn shrink_recover(
    ctx: &RankCtx,
    run: &mut RankRun<'_>,
    dead: &[usize],
    next: Membership,
    version: u64,
) -> Result<(), String> {
    let n_cells = run.sim.mesh.n_cells();
    let (manifest, blob) = read_shard(ctx, ctx.rank, version).map_err(|e| e.to_string())?;
    manifest
        .validate(ctx.n_ranks, Some(ctx.rank), n_cells)
        .map_err(|e| format!("own shard rejected: {e}"))?;
    run.sim
        .restore_state(&blob)
        .map_err(|e| format!("checkpoint restore failed: {e}"))?;
    run.cell_rank = manifest.cell_owner.iter().map(|&o| o as u32).collect();

    // Re-home the dead ranks' cells over the survivors with the same
    // partitioner that cut the original decomposition.
    let dead_cells: Vec<usize> = (0..n_cells)
        .filter(|&c| dead.contains(&(run.cell_rank[c] as usize)))
        .collect();
    if !dead_cells.is_empty() {
        let centroids: Vec<_> = dead_cells
            .iter()
            .map(|&c| run.sim.mesh.cell_centroid(c))
            .collect();
        let part = directional_partition(&centroids, 1, next.n_members());
        for (i, &c) in dead_cells.iter().enumerate() {
            run.cell_rank[c] = next.members()[part[i] as usize] as u32;
        }
    }

    // Adopt the particles the dead ranks were carrying at `version`.
    let mut payload = Vec::new();
    for &d in dead {
        let (dm, dblob) = read_shard(ctx, d, version).map_err(|e| e.to_string())?;
        dm.validate(ctx.n_ranks, None, n_cells)
            .map_err(|e| format!("dead rank {d} shard rejected: {e}"))?;
        let mut scratch = FemPic::new(scenario_config(run.sc).rank_share(d, run.sc.ranks));
        scratch
            .restore_state(&dblob)
            .map_err(|e| format!("dead rank {d} restore failed: {e}"))?;
        let cells = scratch.ps.cells().to_vec();
        for (i, &c) in cells.iter().enumerate() {
            if run.cell_rank[c as usize] as usize == ctx.rank {
                payload.clear();
                scratch.ps.pack_one(i, &mut payload);
                run.sim.ps.unpack_one(&payload, c);
            }
        }
    }

    run.link.install_membership(&next);
    run.membership = next;
    Ok(())
}

/// The faulted-path recovery chain; returns the checkpoint version to
/// rewind to.
fn recover_after_failure(
    ctx: &mut RankCtx,
    run: &mut RankRun<'_>,
    hub: &Telemetry,
    err: &str,
) -> Result<u64, String> {
    if run.sc.on_death == DeathPolicy::Abort {
        return Err(format!("collective failed and on-rank-death=abort: {err}"));
    }
    // Suspect every current peer, not just whoever the error names:
    // in an asymmetric collective (gather/broadcast) a survivor only
    // sees the leader time out. The lease board finds the truly
    // frozen ranks; live peers renew and are acquitted.
    let t0 = Instant::now();
    let suspects = run.membership.peers(ctx.rank);
    let dead = run.detector.wait_verdict(ctx, &suspects);
    if dead.is_empty() {
        return Err(format!("collective failed but every peer is alive: {err}"));
    }
    run.detection_ms += t0.elapsed().as_secs_f64() * 1e3;
    run.rank_deaths += dead.len() as u64;
    telemetry::count("resilience.rank_deaths", dead.len() as u64);
    hub.alert(
        "rank_death",
        AlertSeverity::Critical,
        &format!("ranks {dead:?} declared dead after {err}"),
    );

    let t1 = Instant::now();
    // Version selection must include the dead ranks' slots: a victim
    // killed mid-checkpoint is exactly the rank whose slot lags.
    let pre_shrink_slots = run.membership.members().to_vec();
    let next =
        agree_evict(ctx, &mut run.detector, &run.membership, &dead).map_err(|e| e.to_string())?;
    let version = latest_common_version(ctx, &pre_shrink_slots).map_err(|e| e.to_string())?;
    shrink_recover(ctx, run, &dead, next, version)?;
    let ms = t1.elapsed().as_secs_f64() * 1e3;
    run.recovery_ms += ms;
    if let Some(h) = telemetry::hist("resilience.recovery_ms") {
        h.record(ms.ceil() as u64);
    }
    run.recoveries += 1;
    Ok(version)
}

/// Run one scenario; entry `r` is rank `r`'s end state (`Ok(None)` =
/// died). Deterministic given the scenario: the crash is carried by a
/// seeded [`FaultSchedule`] so chaos runs replay.
pub fn run_rank_failure(sc: &RankFailScenario) -> Vec<Result<Option<RankFinal>, String>> {
    let sched = sc
        .kill
        .map(|k| Arc::new(FaultSchedule::crash(sc.seed, k.rank, k.step)));
    let site = sc.kill.map(|k| k.site);
    world_run_faulty(sc.ranks, sched, |ctx: &mut RankCtx| {
        let (sim, cell_rank) = FemPic::new_rank(&scenario_config(sc), ctx.rank, sc.ranks);
        // The sim's own hub is the rank's hub: the step, the reliable
        // link and the recovery chain all count and alert there.
        let hub = sim.profiler.telemetry().clone();
        let _guard = hub.make_current();
        let recorder = Arc::new(FlightRecorder::new(4096));
        hub.set_observer(Some(recorder.clone()));

        let mut run = RankRun {
            sc,
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
            detection_ms: 0.0,
            recovery_ms: 0.0,
            recoveries: 0,
            rank_deaths: 0,
            steps_replayed: 0,
        };
        let my_crash = ctx.crash_step();

        // Coordinated step-0 shard, then one barrier so every lease
        // has beaten at least once before any kill can fire.
        write_boundary_shard(ctx, &run, 0)?;
        run.detector.beat_now(ctx);
        ctx.barrier();

        let (mut pre_s, mut pre_n, mut post_s, mut post_n) = (0.0f64, 0u64, 0.0f64, 0u64);
        let mut s = 1usize;
        'steps: while s <= sc.steps {
            // Planned-shrink twin: shrink by fiat right after the
            // chosen checkpoint version, once.
            if let Some((dead_rank, version)) = sc.planned_shrink {
                if s as u64 == version + 1 && run.membership.epoch() == 0 {
                    ctx.barrier(); // all shards for `version` are on the store
                    if ctx.rank == dead_rank {
                        return Ok(None);
                    }
                    let mut next = run.membership.clone();
                    next.evict(&[dead_rank]).map_err(|e| e.to_string())?;
                    shrink_recover(ctx, &mut run, &[dead_rank], next, version)?;
                }
            }
            if my_crash == Some(s) && site == Some(KillSite::Step) {
                return Ok(None); // fail-stop: channels stay open, forever silent
            }
            let step_start = Instant::now();
            run.detector.beat(ctx);

            let armed = my_crash == Some(s) && site == Some(KillSite::Exchange);
            let mut net = KillSwitch {
                net: Reliable {
                    link: &mut run.link,
                    ctx,
                    cell_rank: &run.cell_rank,
                },
                armed,
            };
            match run.sim.step_over(&mut net) {
                Ok(_) => {}
                // Fail-stop with peers already committed to the exchange.
                Err(Interrupted::Killed) => return Ok(None),
                Err(Interrupted::Link(e)) => {
                    let version = recover_after_failure(ctx, &mut run, &hub, &e.to_string())?;
                    run.steps_replayed += s as u64 - version;
                    s = version as usize + 1;
                    continue 'steps;
                }
            }

            if s.is_multiple_of(sc.checkpoint_every) {
                if my_crash == Some(s) && site == Some(KillSite::Checkpoint) {
                    return Ok(None); // died before writing the shard
                }
                write_boundary_shard(ctx, &run, s)?;
            }

            let dt = step_start.elapsed().as_secs_f64();
            if run.recoveries == 0 {
                pre_s += dt;
                pre_n += 1;
            } else {
                post_s += dt;
                post_n += 1;
            }
            s += 1;
        }

        let per_s = |t: f64, n: u64| if t > 0.0 { n as f64 / t } else { 0.0 };
        Ok(Some(RankFinal {
            particles: run.sim.ps.len(),
            node_charge: run.sim.node_charge.raw().to_vec(),
            epoch: run.membership.epoch(),
            members: run.membership.members().to_vec(),
            recoveries: run.recoveries,
            rank_deaths: run.rank_deaths,
            stale_epoch_dropped: hub.counter("resilience.stale_epoch_dropped"),
            retransmits: hub.counter("resilience.retransmits"),
            detection_ms: run.detection_ms,
            recovery_ms: run.recovery_ms,
            steps_replayed: run.steps_replayed,
            pre_steps_per_s: per_s(pre_s, pre_n),
            post_steps_per_s: per_s(post_s, post_n),
            recorder_dump: (run.recoveries > 0)
                .then(|| recorder.dump(Vec::new()).ok())
                .flatten(),
        }))
    })
}

/// How a faulted run compares with its fault-free reference: the
/// three-way verdict of the chaos stage, rank-kill cells and the
/// rank-failure experiments alike.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosVerdict {
    /// Completed and bit-identical to the fault-free reference.
    Recovered {
        /// Faults the schedule actually fired.
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

impl ChaosVerdict {
    /// Classify a faulted run against its reference, rank by rank. A
    /// failed reference is a harness defect the verdict must not paper
    /// over (`SilentCorruption`, headed `reference_failed`); any rank
    /// error makes a `CleanAbort`; otherwise `compare` lists each
    /// rank's divergences, and none makes `Recovered` with `tally`'s
    /// `(retransmits, recoveries)` summed over the faulted ranks.
    pub fn classify<T>(
        reference_failed: &str,
        reference: &[Result<T, String>],
        faulted: &[Result<T, String>],
        injected: u64,
        mut compare: impl FnMut(usize, &T, &T, &mut Vec<String>),
        tally: impl Fn(&T) -> (u64, u64),
    ) -> ChaosVerdict {
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

        let mut failures = Vec::new();
        let (mut retransmits, mut recoveries) = (0u64, 0u64);
        for (r, (want, got)) in reference.iter().zip(faulted).enumerate() {
            let (want, got) = (want.as_ref().unwrap(), got.as_ref().unwrap());
            compare(r, want, got, &mut failures);
            let (t, c) = tally(got);
            retransmits += t;
            recoveries += c;
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
}

/// Bit-compare rank `r`'s particle count and node charge, `got`, with
/// the reference's, `want`; `label` names the reference in the lines.
pub fn compare_rank(
    r: usize,
    label: &str,
    want: (usize, &[f64]),
    got: (usize, &[f64]),
    failures: &mut Vec<String>,
) {
    if got.0 != want.0 {
        failures.push(format!(
            "rank {r}: {} particles, {label} has {}",
            got.0, want.0
        ));
    }
    if let Some(i) = want
        .1
        .iter()
        .zip(got.1)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        failures.push(format!(
            "rank {r}: node_charge[{i}] = {:e}, {label} {:e}",
            got.1[i], want.1[i]
        ));
    }
}

/// Bit-compare a faulted run against its planned-shrink twin, rank by
/// rank: the dead rank must be the victim and only it, and survivors
/// must agree on membership, particles and node charge.
pub fn classify_shrink(
    sc: &RankFailScenario,
    twin: &[Result<Option<RankFinal>, String>],
    faulted: &[Result<Option<RankFinal>, String>],
) -> ChaosVerdict {
    let dead = sc.kill.map(|k| k.rank);
    let compare = |r: usize,
                   want: &Option<RankFinal>,
                   got: &Option<RankFinal>,
                   failures: &mut Vec<String>| match (want, got, Some(r) == dead)
    {
        (_, None, true) | (None, None, false) => {}
        (_, Some(_), true) => failures.push(format!("rank {r}: victim survived its own kill")),
        (None, Some(_), false) => {
            failures.push(format!("rank {r}: alive in faulted run, dead in twin"))
        }
        (Some(_), None, false) => failures.push(format!("rank {r}: died without being killed")),
        (Some(want), Some(got), false) => {
            if got.epoch != want.epoch || got.members != want.members {
                failures.push(format!(
                    "rank {r}: membership (epoch {}, {:?}), twin (epoch {}, {:?})",
                    got.epoch, got.members, want.epoch, want.members
                ));
            }
            compare_rank(
                r,
                "twin",
                (want.particles, &want.node_charge),
                (got.particles, &got.node_charge),
                failures,
            );
        }
    };
    ChaosVerdict::classify(
        "planned-shrink twin failed",
        twin,
        faulted,
        u64::from(sc.kill.is_some()),
        compare,
        |got| {
            got.as_ref()
                .map_or((0, 0), |f| (f.retransmits, f.recoveries))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_recovered(sc: &RankFailScenario) {
        let twin = run_rank_failure(&sc.twin());
        let faulted = run_rank_failure(sc);
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
        let mut sc = RankFailScenario::baseline();
        sc.kill = Some(RankKill {
            rank: 1,
            step: 7,
            site: KillSite::Exchange,
        });
        assert_recovered(&sc);
    }

    #[test]
    fn mid_checkpoint_kill_falls_back_one_version() {
        let mut sc = RankFailScenario::baseline();
        sc.kill = Some(RankKill {
            rank: 3,
            step: 8,
            site: KillSite::Checkpoint,
        });
        assert_eq!(sc.recovery_version(), 4, "must fall back past step 8");
        assert_recovered(&sc);
    }

    #[test]
    fn killing_the_leader_moves_the_root() {
        let mut sc = RankFailScenario::baseline();
        sc.kill = Some(RankKill {
            rank: 0,
            step: 6,
            site: KillSite::Step,
        });
        let twin = run_rank_failure(&sc.twin());
        let faulted = run_rank_failure(&sc);
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
        sc.on_death = DeathPolicy::Abort;
        let twin = run_rank_failure(&sc.twin());
        let faulted = run_rank_failure(&sc);
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
        sc.kill = None;
        for out in run_rank_failure(&sc) {
            let fin = out.unwrap().unwrap();
            assert_eq!(fin.epoch, 0);
            assert_eq!(fin.recoveries, 0);
            assert_eq!(fin.members, vec![0, 1, 2, 3]);
        }
    }
}
