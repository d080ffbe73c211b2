//! The traced loops and the 2-rank step loop time the program the apps and
//! the conformance harness run: both end bit-identical to the code they
//! stand in for.

use oppic_bench::distributed::run_fempic_distributed;
use oppic_cabana::CabanaPic;
use oppic_core::ExecPolicy;
use oppic_fempic::FemPic;
use oppic_perfbench::cabana_wl::{self, two_stream_config};
use oppic_perfbench::fempic_wl::{self, duct_config};
use oppic_perfbench::host::Host;
use oppic_perfbench::single::BLOCK;
use oppic_perfbench::trace::{Layer, Trace};
use oppic_perfbench::{rank2, run_segment, run_traced_part, Workload};

/// FNV-1a over the bit patterns of `xs`.
fn bits_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fempic_traced_loop_matches_step() {
    // Par is deterministic at a fixed thread count (scatter-array
    // deposit reduces per-thread arrays in order), so both policies
    // must match bit for bit.
    for policy in [ExecPolicy::Seq, ExecPolicy::Par] {
        let label = format!("{policy:?}");
        let mut plain = FemPic::new(duct_config(11, policy.clone()));
        let mut traced = FemPic::new(duct_config(11, policy));
        let mut tr = Trace::default();
        for _ in 0..30 {
            let a = plain.step();
            let b = fempic_wl::traced_step(&mut traced, &mut tr);
            assert_eq!(a.n_particles, b.n_particles, "{label}");
            assert_eq!(a.cg_iterations, b.cg_iterations, "{label}");
            assert_eq!(
                a.total_charge.to_bits(),
                b.total_charge.to_bits(),
                "{label}"
            );
        }
        assert_eq!(
            bits_hash(plain.ps.col(plain.pos)),
            bits_hash(traced.ps.col(traced.pos)),
            "{label}: positions"
        );
        assert_eq!(plain.ps.cells(), traced.ps.cells(), "{label}: cells");
        assert_eq!(tr.steps, 30);
        assert!(tr.ms_per_step(Layer::FemMove) > 0.0);
    }
}

#[test]
fn cabana_traced_loop_matches_step_including_the_sort_gate() {
    // Seq: under Par the atomic current accumulation is not
    // order-deterministic, so bit identity is a Seq property.
    let mut plain = CabanaPic::new_dsl(two_stream_config(ExecPolicy::Seq));
    let mut traced = CabanaPic::new_dsl(two_stream_config(ExecPolicy::Seq));
    let mut step_no = 0;
    let mut tr = Trace::default();
    // 45 steps cross the sorts at steps 20 and 40.
    for _ in 0..45 {
        let a = plain.step();
        let b = cabana_wl::traced_step(&mut traced, &mut step_no, &mut tr);
        assert_eq!(a.step, b.step);
        assert_eq!(a.e_field.to_bits(), b.e_field.to_bits());
        assert_eq!(a.b_field.to_bits(), b.b_field.to_bits());
        assert_eq!(a.kinetic.to_bits(), b.kinetic.to_bits());
        assert_eq!(a.mean_visited.to_bits(), b.mean_visited.to_bits());
    }
    assert_eq!(plain.ps.len(), traced.ps.len());
    assert_eq!(
        bits_hash(plain.ps.col(plain.pos)),
        bits_hash(traced.ps.col(traced.pos)),
        "positions"
    );
    assert!(tr.ms_per_step(Layer::Sort) > 0.0, "the sort gate fired");
}

#[test]
fn two_rank_loop_matches_run_fempic_distributed() {
    let base = duct_config(5, ExecPolicy::Seq);
    let reference = run_fempic_distributed(&base, rank2::RANKS, 30);
    let nproc = Host::probe().nproc;
    for traced in [false, true] {
        let (total, charge) = rank2::run_fixed(&base, nproc, 30, traced);
        assert_eq!(total, reference.total_particles, "traced={traced}");
        assert_eq!(
            charge.to_bits(),
            reference.check_scalar.to_bits(),
            "traced={traced}"
        );
    }
}

#[test]
fn every_workload_verifies_clean_traced_and_untraced() {
    let host = Host::probe();
    for w in Workload::ALL {
        if w.plan(&host).is_err() {
            continue; // more ranks than cores on this host
        }
        let seg = run_segment(&host, w, 3, 0.05, true).unwrap();
        assert!(
            seg.checks.failures.is_empty(),
            "{w:?}: {:?}",
            seg.checks.failures
        );
        assert!(seg.step_ms.len() >= BLOCK, "{w:?}");
        assert!(seg.checks.attempted > seg.step_ms.len() as u64, "{w:?}");

        let (pl, checks) = run_traced_part(&host, w, 3, 0.05).unwrap();
        assert!(checks.failures.is_empty(), "{w:?}: {:?}", checks.failures);
        assert!(
            pl.trace.steps > 0 && pl.traced_s > 0.0 && pl.plain_s > 0.0,
            "{w:?}"
        );
    }
}

#[test]
fn plans_above_the_core_count_are_refused() {
    let one_core = Host {
        nproc: 1,
        profile: "release",
        git_rev: "test".into(),
    };
    assert!(Workload::FempicDuct2Rank.plan(&one_core).is_err());
    assert!(Workload::parse("no_such_workload").is_err());
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Ok(w));
    }
}
