//! Pins of the distributed runs' observable results.
//!
//! Each pin is the summary of one fixed run: global particle count,
//! the bits of the check scalar, and per rank the particles migrated
//! out and the bytes sent. The rank-failure pins record each
//! survivor's particle count, a digest of its node-charge bits, its
//! membership epoch and members, and the steps it replayed. Any change
//! to the distributed step, the migration codec or the per-rank setup
//! that moves a single bit or byte fails here.

use op_pic::fempic::FemPicConfig;
use op_pic::mpi::OverlapGate;
use oppic_bench::distributed::{
    run_cabana_distributed, run_fempic_distributed, run_fempic_distributed_overlap,
    DistributedReport,
};
use oppic_bench::rankfail::{run_rank_failure, RankFailScenario, RankFinal};
use std::time::Duration;

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

fn rank_failure_summary(out: &[Result<Option<RankFinal>, String>]) -> Vec<String> {
    out.iter()
        .map(|r| match r {
            Err(e) => format!("err({e})"),
            Ok(None) => "dead".to_string(),
            Ok(Some(f)) => format!(
                "(p={} q={:#018x} epoch={} members={:?} replayed={})",
                f.particles,
                digest(&f.node_charge),
                f.epoch,
                f.members,
                f.steps_replayed
            ),
        })
        .collect()
}

const SPLIT_REPORT: &str = r#"{
  "schema": "oppic-schedule-report-v1",
  "app": "fempic",
  "overlaps": [
    {"dat": "particles", "dir": "migrate", "tag": "fempic/migrate",
     "legal": [], "split_legal": ["DepositCharge"], "blocked": []}
  ]
}"#;

const WHOLE_REPORT: &str = r#"{
  "schema": "oppic-schedule-report-v1",
  "app": "fempic",
  "overlaps": [
    {"dat": "particles", "dir": "migrate", "tag": "fempic/migrate",
     "legal": ["SolvePotential", "ComputeElectricField"],
     "split_legal": ["DepositCharge"], "blocked": []}
  ]
}"#;

#[test]
fn fempic_distributed_pin() {
    let rep = run_fempic_distributed(&FemPicConfig::tiny(), 3, 5);
    assert_eq!(
        summary(&rep),
        "total=240 check=0x4003333333333333 ranks=[(56,10048),(53,7224),(57,7576)]"
    );
}

#[test]
fn fempic_overlap_split_pin() {
    let gate = OverlapGate::from_report_json(SPLIT_REPORT).unwrap();
    let rep = run_fempic_distributed_overlap(&FemPicConfig::tiny(), 3, 5, &gate, Duration::ZERO);
    assert_eq!(
        summary(&rep),
        "total=240 check=0x4003333333333333 ranks=[(56,10048),(53,7224),(57,7576)]"
    );
}

#[test]
fn fempic_overlap_whole_pin() {
    let gate = OverlapGate::from_report_json(WHOLE_REPORT).unwrap();
    let rep = run_fempic_distributed_overlap(&FemPicConfig::tiny(), 3, 5, &gate, Duration::ZERO);
    assert_eq!(
        summary(&rep),
        "total=240 check=0x4003333333333333 ranks=[(56,10048),(53,7224),(57,7576)]"
    );
}

#[test]
fn cabana_distributed_pin() {
    let rep = run_cabana_distributed(&op_pic::cabana::CabanaConfig::tiny(), 4, 6);
    assert_eq!(
        summary(&rep),
        "total=1024 check=0x3f947c85e142ee7b ranks=[(0,55320),(0,18440),(0,18440),(0,18440)]"
    );
}

#[test]
fn rank_failure_step_kill_pin() {
    let sc = RankFailScenario::baseline();
    let got = rank_failure_summary(&run_rank_failure(&sc));
    assert_eq!(
        got,
        [
            "(p=535 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=2)",
            "(p=607 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=2)",
            "dead",
            "(p=453 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=2)",
        ]
    );
}

#[test]
fn rank_failure_planned_shrink_pin() {
    let sc = RankFailScenario::baseline().twin();
    let got = rank_failure_summary(&run_rank_failure(&sc));
    assert_eq!(
        got,
        [
            "(p=535 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=0)",
            "(p=607 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=0)",
            "dead",
            "(p=453 q=0xa5377eaa4e941b16 epoch=1 members=[0, 1, 3] replayed=0)",
        ]
    );
}
