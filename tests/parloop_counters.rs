//! Pins of the par-loop telemetry counters.
//!
//! `parloop.invocations` counts executor calls and
//! `parloop.bytes_touched` the writable bytes they hand to kernels.
//! perfbench's `core.parloop.invocations_per_step` and its replay and
//! traced-vs-untraced invocation gates read these counts, so each
//! pin records both running totals after every step of a tiny run and
//! any change to which loops a step runs, or to what they touch,
//! fails here.

use op_pic::cabana::{CabanaConfig, CabanaPic};
use op_pic::core::telemetry::Telemetry;
use op_pic::core::{ExecPolicy, SortPolicy};
use op_pic::fempic::{CollisionModel, FemPic, FemPicConfig};

const STEPS: usize = 4;

/// `(invocations, bytes_touched)` totals after each step.
fn totals(tel: &Telemetry) -> (u64, u64) {
    (
        tel.counter("parloop.invocations"),
        tel.counter("parloop.bytes_touched"),
    )
}

fn fempic_counts(cfg: FemPicConfig) -> Vec<(u64, u64)> {
    let mut sim = FemPic::new(cfg);
    (0..STEPS)
        .map(|_| {
            sim.step();
            totals(sim.profiler.telemetry())
        })
        .collect()
}

fn cabana_counts(cfg: CabanaConfig) -> Vec<(u64, u64)> {
    let mut sim = CabanaPic::new_dsl(cfg);
    (0..STEPS)
        .map(|_| {
            sim.step();
            totals(sim.profiler.telemetry())
        })
        .collect()
}

#[test]
fn fempic_seq_unsorted_counters() {
    let counts = fempic_counts(FemPicConfig::tiny());
    assert_eq!(counts, vec![(3, 6800), (6, 17800), (9, 33000), (12, 52400)]);
}

#[test]
fn fempic_seq_sorted_counters() {
    let counts = fempic_counts(FemPicConfig {
        sort_policy: SortPolicy::Always,
        ..FemPicConfig::tiny()
    });
    assert_eq!(counts, vec![(3, 6800), (6, 17800), (9, 33000), (12, 52400)]);
}

#[test]
fn fempic_par_binding_collisions_counters() {
    let counts = fempic_counts(FemPicConfig {
        policy: ExecPolicy::Par,
        binding: true,
        collisions: Some(CollisionModel {
            neutral_density: 1.0,
            cross_section: 1.0,
        }),
        ..FemPicConfig::tiny()
    });
    assert_eq!(
        counts,
        vec![(4, 8000), (8, 21400), (12, 40200), (16, 64076)]
    );
}

#[test]
fn cabana_sort_every_counters() {
    let counts = cabana_counts(CabanaConfig {
        sort_policy: SortPolicy::EveryN(2),
        ..CabanaConfig::tiny()
    });
    assert_eq!(
        counts,
        vec![(6, 68608), (12, 137216), (18, 205824), (24, 274432)]
    );
}

#[test]
fn cabana_par_binding_counters() {
    let counts = cabana_counts(CabanaConfig {
        policy: ExecPolicy::Par,
        binding: true,
        ..CabanaConfig::tiny()
    });
    assert_eq!(
        counts,
        vec![(6, 68608), (12, 137216), (18, 205824), (24, 274432)]
    );
}
