//! Pins of the distributed runs' observable results.
//!
//! Each pin is the summary of one fixed run: global particle count,
//! the bits of the check scalar, and per rank the particles migrated
//! out and the bytes sent. The rank-failure pins record each
//! survivor's particle count, a digest of its node-charge bits, its
//! membership epoch and members, and the steps it replayed. Any change
//! to the distributed step, the migration codec or the per-rank setup
//! that moves a single bit or byte fails here.

use op_pic::cabana::{CabanaConfig, StructuredCabana};
use op_pic::fempic::{FemPic, FemPicConfig};
use oppic_resilience::{
    run_distributed, run_scenario, DistributedReport, RankAbort, RankFailScenario, RankFinal,
};

fn summary(rep: &DistributedReport) -> String {
    let ranks: Vec<String> = rep
        .ranks
        .iter()
        .map(|r| format!("({},{})", r.migrated_out, r.comm_bytes))
        .collect();
    format!(
        "total={} check={:#018x} ranks=[{}]",
        rep.total_particles,
        rep.check_scalar.to_bits(),
        ranks.join(",")
    )
}

/// FNV-1a over the bits of every value.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The baseline scenario in its world: 160 particles injected per
/// step.
fn rank_failure_run(sc: &RankFailScenario) -> Vec<Result<Option<RankFinal>, RankAbort>> {
    run_scenario::<FemPic>(sc, &FemPicConfig::tiny_seeded(160, sc.seed))
}

fn rank_failure_summary(out: &[Result<Option<RankFinal>, RankAbort>]) -> Vec<String> {
    let observable = |f: &RankFinal, name: &str| {
        let o = f.observables.iter().find(|o| o.name == name);
        o.expect("a FemPIC observable").values.clone()
    };
    out.iter()
        .map(|r| match r {
            Err(e) => format!("err({e})"),
            Ok(None) => "dead".to_string(),
            Ok(Some(f)) => format!(
                "(p={} q={:#018x} epoch={} members={:?} replayed={})",
                observable(f, "n_particles")[0],
                digest(&observable(f, "node_charge")),
                f.epoch,
                f.members,
                f.steps_replayed
            ),
        })
        .collect()
}

#[test]
fn fempic_distributed_pin() {
    let rep = run_distributed::<FemPic>(&FemPicConfig::tiny(), 3, 5);
    assert_eq!(
        summary(&rep),
        "total=240 check=0x4003333333333333 ranks=[(50,9520),(50,6960),(61,7928)]"
    );
}

#[test]
fn cabana_distributed_pin() {
    let rep = run_distributed::<StructuredCabana>(&CabanaConfig::tiny(), 4, 6);
    assert_eq!(
        summary(&rep),
        "total=1024 check=0x3f947c85e142ee7b ranks=[(0,55320),(0,18440),(0,18440),(0,18440)]"
    );
}

#[test]
fn rank_failure_step_kill_pin() {
    let sc = RankFailScenario::baseline();
    let got = rank_failure_summary(&rank_failure_run(&sc));
    assert_eq!(
        got,
        [
            "(p=500 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=2)",
            "(p=631 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=2)",
            "dead",
            "(p=468 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=2)",
        ]
    );
}

#[test]
fn rank_failure_planned_shrink_pin() {
    let sc = RankFailScenario::baseline().twin();
    let got = rank_failure_summary(&rank_failure_run(&sc));
    assert_eq!(
        got,
        [
            "(p=500 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=0)",
            "(p=631 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=0)",
            "dead",
            "(p=468 q=0x9174b039899e971c epoch=1 members=[0, 1, 3] replayed=0)",
        ]
    );
}
