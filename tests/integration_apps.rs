//! Cross-crate integration: the two applications end to end, including
//! the paper's validation criteria.

use op_pic::cabana::{CabanaConfig, CabanaPic, StructuredCabana};
use op_pic::core::{DepositMethod, ExecPolicy};
use op_pic::fempic::{FemPic, FemPicConfig, MoveStrategy};

#[test]
fn fempic_reaches_a_flow_steady_state() {
    // Inject at a constant rate with outflow: the particle count must
    // saturate (injection balanced by outlet removal).
    let mut cfg = FemPicConfig::tiny();
    cfg.inject_per_step = 100;
    cfg.inlet_velocity = 1.0;
    cfg.dt = 0.1; // cross the 2.0 duct in ~20 steps
    let mut sim = FemPic::new(cfg);
    let mut counts = Vec::new();
    for _ in 0..80 {
        counts.push(sim.step().n_particles);
    }
    sim.check_invariants().unwrap();
    // Growth must stop: the last-20 mean within 25% of the prior-20.
    let a: f64 = counts[40..60].iter().sum::<usize>() as f64 / 20.0;
    let b: f64 = counts[60..80].iter().sum::<usize>() as f64 / 20.0;
    assert!((b - a).abs() / a < 0.25, "not saturating: {a} -> {b}");
    // And removals must be happening.
    assert!(counts[79] < 80 * 100, "some particles must have exited");
}

#[test]
fn fempic_field_raises_as_charge_accumulates() {
    let mut cfg = FemPicConfig::tiny();
    cfg.wall_potential = 0.0; // pure space-charge field
    cfg.charge = 0.05;
    let mut sim = FemPic::new(cfg);
    sim.run(10);
    // Node potential away from Dirichlet nodes must be nonzero with
    // charge in the domain (positive charge => positive potential).
    let phi = sim.fem.potential();
    let max_phi = phi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(max_phi > 0.0, "space charge must raise the potential");
    // And the electric field is nonzero somewhere.
    assert!(sim.efield.raw().iter().any(|&e| e.abs() > 1e-12));
}

#[test]
fn fempic_full_strategy_matrix_is_consistent() {
    // {MH, DH} x {SA, AT, SR} all conserve particle count and charge.
    let reference = {
        let mut cfg = FemPicConfig::tiny();
        cfg.inject_per_step = 80;
        let mut sim = FemPic::new(cfg);
        let d = sim.run(6);
        (d.n_particles, d.total_charge)
    };
    for strategy in [
        MoveStrategy::MultiHop,
        MoveStrategy::DirectHop { overlay_res: 12 },
    ] {
        for method in [
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
            DepositMethod::SegmentedReduction,
        ] {
            let mut cfg = FemPicConfig::tiny();
            cfg.inject_per_step = 80;
            cfg.policy = ExecPolicy::Par;
            cfg.move_strategy = strategy;
            cfg.deposit = method;
            let mut sim = FemPic::new(cfg);
            let d = sim.run(6);
            assert_eq!(d.n_particles, reference.0, "{strategy:?}/{method:?}");
            assert!(
                (d.total_charge - reference.1).abs() < 1e-9,
                "{strategy:?}/{method:?}: {} vs {}",
                d.total_charge,
                reference.1
            );
        }
    }
}

#[test]
fn cabana_validation_matches_paper_criterion() {
    // Figure/Section 4: field energy DSL vs original < machine
    // precision. Ours: exactly equal (sequential).
    let cfg = CabanaConfig::tiny();
    let mut dsl = CabanaPic::new_dsl(cfg.clone());
    let mut orig = StructuredCabana::new_structured(cfg);
    for _ in 0..25 {
        let a = dsl.step();
        let b = orig.step();
        assert_eq!(a.e_field.to_bits(), b.e_field.to_bits());
        assert_eq!(a.b_field.to_bits(), b.b_field.to_bits());
    }
}

#[test]
fn cabana_momentum_is_conserved_without_fields() {
    // With zero charge the plasma is force-free: total momentum is
    // exactly constant and fields stay zero.
    let mut cfg = CabanaConfig::tiny();
    cfg.charge = 0.0;
    let mut sim = StructuredCabana::new_structured(cfg);
    let p0: f64 = sim.ps.col(sim.vel).chunks(3).map(|v| v[0]).sum();
    sim.run(15);
    let p1: f64 = sim.ps.col(sim.vel).chunks(3).map(|v| v[0]).sum();
    assert_eq!(p0, p1, "no forces => no momentum change");
    assert!(sim.e.raw().iter().all(|&x| x == 0.0));
    assert!(sim.b.raw().iter().all(|&x| x == 0.0));
    sim.check_invariants().unwrap();
}

#[test]
fn cabana_perturbation_seeds_the_instability() {
    // The unperturbed beams still carry lattice-level current noise,
    // but the seeded run must develop a distinctly larger field — the
    // perturbation is what the instability feeds on.
    // High ppc suppresses lattice shot noise so the coherent seed
    // stands out (noise amplitude ~ v0/√ppc, seed = 0.2·v0).
    let mut quiet_cfg = CabanaConfig::tiny();
    quiet_cfg.nx = 16;
    quiet_cfg.ny = 2;
    quiet_cfg.nz = 2;
    quiet_cfg.dx = 1.0 / 16.0;
    quiet_cfg.dy = 0.5;
    quiet_cfg.dz = 0.5;
    quiet_cfg.ppc = 256;
    quiet_cfg.perturbation = 0.0;
    let mut seeded_cfg = quiet_cfg.clone();
    seeded_cfg.perturbation = 0.2;

    let mut quiet = StructuredCabana::new_structured(quiet_cfg);
    let mut seeded = StructuredCabana::new_structured(seeded_cfg);
    let dq = quiet.run(12);
    let ds = seeded.run(12);
    let eq: f64 = dq[4..].iter().map(|d| d.e_field).sum();
    let es: f64 = ds[4..].iter().map(|d| d.e_field).sum();
    assert!(es > 3.0 * eq, "seeded {es:e} vs quiet {eq:e}");
    // Both stay small relative to the kinetic scale early on.
    assert!(dq.last().unwrap().e_field < 0.05 * dq.last().unwrap().kinetic);
}

#[test]
fn cabana_sorting_does_not_change_physics() {
    let cfg = CabanaConfig::tiny();
    let mut a = StructuredCabana::new_structured(cfg.clone());
    let mut b = StructuredCabana::new_structured(cfg);
    for step in 0..12 {
        if step % 4 == 2 {
            let nc = b.geom.n_cells();
            b.ps.sort_by_cell(nc); // the auxiliary sort API
        }
        let da = a.step();
        let db = b.step();
        // Deposition order changes, so compare with tolerance.
        let scale = da.total().abs().max(1e-30);
        assert!(
            (da.total() - db.total()).abs() / scale < 1e-10,
            "step {step}"
        );
    }
    assert_eq!(a.ps.len(), b.ps.len());
}
