//! Reproducer compatibility: the files under `tests/fixtures/` were
//! written by the two hand-written writers this crate had before the
//! shared reproducer frame. Each must parse to the case it was written
//! from, and writing that case again must give the same bytes — so
//! every reproducer written before the frame still replays.

use oppic_bench::rankfail::{DeathPolicy, KillSite};
use oppic_conformance::{
    App, Case, CellConfig, ChaosCell, ChaosFault, Exec, Mover, Mutation, Runtime,
};
use oppic_core::DepositMethod;
use oppic_resilience::FaultKind;
use std::path::Path;

fn lines(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn differential() -> Vec<(CellConfig, Vec<String>)> {
    let every_axis = CellConfig {
        exec: Exec::Pool4,
        deposit: DepositMethod::SegmentedReduction,
        mover: Mover::DirectHop,
        runtime: Runtime::Mpi(2),
        sort_always: true,
        binding: true,
        steps: 2,
        particles: 7,
        mutation: Some(Mutation::DepositLostUpdate),
        ..CellConfig::reference(App::FemPic)
    };
    let clean_mpi = CellConfig {
        runtime: Runtime::Mpi(2),
        ..CellConfig::reference(App::FemPic)
    };
    vec![
        (
            every_axis,
            lines(&[
                "node_charge[0]: got 1.25e-3, want 2.5e-3 (|d| = 1.25e-3)",
                "invariant \"charge conservation\" broken — total 9.5e0\tvs 1e1",
            ]),
        ),
        (
            clean_mpi,
            lines(&["rank 1: node_charge[12] = 3.5e-2, reference 3.25e-2"]),
        ),
    ]
}

fn chaos() -> Vec<(ChaosCell, Vec<String>)> {
    let cell = |fault, seed, ranks, steps, particles, max_retries| ChaosCell {
        fault,
        seed,
        ranks,
        steps,
        particles,
        max_retries,
        ..ChaosCell::base()
    };
    let kill = |rank, step, site, policy| ChaosFault::RankKill {
        rank,
        step,
        site,
        policy,
    };
    let mpi = |kind, rate, budget| ChaosFault::Mpi { kind, rate, budget };
    vec![
        (ChaosCell::base(), lines(&[])),
        (
            cell(mpi(FaultKind::Drop, 1.0, 3), 0x11, 2, 3, 24, 8),
            lines(&["rank 0: retries exhausted after 8 attempts"]),
        ),
        (
            ChaosCell {
                quiet_retransmit_ms: 250,
                ..cell(mpi(FaultKind::Stall, 0.25, 6), 42, 3, 5, 20, 2)
            },
            lines(&[
                "rank 1: node_charge[3] = 1.5e0, reference 1.25e0",
                "rank 2: 9 particles, reference has 10",
            ]),
        ),
        (
            cell(ChaosFault::NanInject { step: 3 }, 5, 1, 5, 8, 4),
            lines(&["particle positions diverged from reference"]),
        ),
        (
            cell(
                kill(1, 4, KillSite::Step, DeathPolicy::Shrink),
                0x71,
                3,
                6,
                36,
                6,
            ),
            lines(&["rank 2: node_charge[0] = 1e0, twin 2e0"]),
        ),
        (
            cell(
                kill(0, 3, KillSite::Exchange, DeathPolicy::Abort),
                0xC1,
                4,
                8,
                48,
                6,
            ),
            lines(&[
                "rank 1: collective failed and on-rank-death=abort: peer 0 silent",
                "rank 2: collective failed and on-rank-death=abort: peer 0 silent",
            ]),
        ),
        (
            cell(
                kill(2, 4, KillSite::Checkpoint, DeathPolicy::Shrink),
                0xC2,
                4,
                8,
                48,
                6,
            ),
            lines(&["rank 3: membership (epoch 1, [0, 1, 3]), twin (epoch 1, [0, 1, 2])"]),
        ),
    ]
}

fn fixture<C: Case>(case: &C) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}.json", case.id()));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn parses_back<C: Case + std::fmt::Debug>(cases: Vec<(C, Vec<String>)>) {
    for (case, failures) in cases {
        let (back, recorded) = C::parse_reproducer(&fixture(&case)).expect("fixture parses");
        assert_eq!(back, case);
        assert_eq!(recorded, failures, "{case}");
    }
}

fn writes_the_same_bytes<C: Case>(cases: Vec<(C, Vec<String>)>) {
    for (case, failures) in cases {
        assert_eq!(case.reproducer_json(&failures), fixture(&case), "{case}");
    }
}

#[test]
fn fixtures_parse_to_the_cases_they_were_written_from() {
    parses_back(differential());
    parses_back(chaos());
}

#[test]
fn the_frame_writes_each_fixture_byte_for_byte() {
    writes_the_same_bytes(differential());
    writes_the_same_bytes(chaos());
}
