//! Bit identity of CabanaPIC's fused `Move_Deposit`, which deposits
//! current through scatter arrays.
//!
//! * Under `Seq` the mover is one scatter piece that adds current into
//!   the accumulator in particle order, the left fold of any
//!   single-threaded accumulation. Digests of the
//!   `configs/cabana_two_stream.cfg` problem pin that arithmetic: any
//!   change to the `Seq` step shows up as a mismatch.
//! * Under a pool each worker piece deposits into a private array and
//!   the arrays are reduced in piece order, so two runs on the same
//!   pool agree bit for bit — with scatter pieces cut by ranges or a
//!   persistent binding, on a sorted store or not.

use oppic_cabana::{CabanaConfig, CabanaPic, EnergyDiagnostics, StructuredCabana};
use oppic_core::telemetry::fnv1a;
use oppic_core::{ExecPolicy, SortPolicy};

const STEPS: usize = 100;

/// `configs/cabana_two_stream.cfg`: 32×4×4 cells × 64 particles per
/// cell, beams at ±0.2 with a 2-mode 0.02 perturbation, CSR sort every
/// 20 steps; cell sizes and `dt` derived as the `cabana` binary does.
fn two_stream(policy: ExecPolicy) -> CabanaConfig {
    let (nx, ny, nz) = (32, 4, 4);
    let nmax = nx.max(ny).max(nz) as f64;
    CabanaConfig {
        nx,
        ny,
        nz,
        dx: 1.0 / nx as f64,
        dy: 1.0 / ny as f64,
        dz: 1.0 / nz as f64,
        ppc: 64,
        v0: 0.2,
        perturbation: 0.02,
        modes: 2,
        dt: 0.5 / nmax / 3f64.sqrt(),
        sort_policy: SortPolicy::EveryN(20),
        policy,
        ..CabanaConfig::default()
    }
}

/// FNV-1a over the little-endian bytes of `values`.
fn hash_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// `(energy digest, position hash)`: the energy digest covers the E,
/// B and kinetic energies and the mean visits of every step.
fn digests(diags: &[EnergyDiagnostics], positions: &[f64]) -> (u64, u64) {
    let energies = diags
        .iter()
        .flat_map(|d| [d.e_field, d.b_field, d.kinetic, d.mean_visited]);
    (hash_f64s(energies), hash_f64s(positions.iter().copied()))
}

const ENERGY_DIGEST: u64 = 0x89ad_9377_7b2b_3809;
const POSITION_HASH: u64 = 0x8c89_86e2_f377_a8d7;

/// Everything a step writes: diagnostics, particle state, current and
/// fields.
type State = (
    Vec<EnergyDiagnostics>,
    Vec<f64>,
    Vec<f64>,
    Vec<i32>,
    Vec<f64>,
    Vec<f64>,
);

fn run_dsl(cfg: CabanaConfig, steps: usize) -> State {
    let mut sim = CabanaPic::new_dsl(cfg);
    let diags = sim.run(steps);
    sim.check_invariants().unwrap();
    (
        diags,
        sim.ps.col(sim.pos).to_vec(),
        sim.ps.col(sim.vel).to_vec(),
        sim.ps.cells().to_vec(),
        sim.j.raw().to_vec(),
        sim.e.raw().to_vec(),
    )
}

fn run_structured(cfg: CabanaConfig, steps: usize) -> State {
    let mut sim = StructuredCabana::new_structured(cfg);
    let diags = sim.run(steps);
    sim.check_invariants().unwrap();
    (
        diags,
        sim.ps.col(sim.pos).to_vec(),
        sim.ps.col(sim.vel).to_vec(),
        sim.ps.cells().to_vec(),
        sim.j.raw().to_vec(),
        sim.e.raw().to_vec(),
    )
}

#[test]
fn dsl_two_stream_seq_is_pinned() {
    let (diags, pos, ..) = run_dsl(two_stream(ExecPolicy::Seq), STEPS);
    let got = digests(&diags, &pos);
    assert_eq!(
        got,
        (ENERGY_DIGEST, POSITION_HASH),
        "dsl: (energy digest, position hash) = ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn structured_two_stream_seq_is_pinned() {
    let (diags, pos, ..) = run_structured(two_stream(ExecPolicy::Seq), STEPS);
    let got = digests(&diags, &pos);
    // Both topologies share every floating-point operation, so they
    // pin to the same digests.
    assert_eq!(
        got,
        (ENERGY_DIGEST, POSITION_HASH),
        "structured: (energy digest, position hash) = ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

fn assert_same(a: &State, b: &State, what: &str) {
    assert_eq!(a.0, b.0, "{what}: diagnostics");
    assert_eq!(a.1, b.1, "{what}: positions");
    assert_eq!(a.2, b.2, "{what}: velocities");
    assert_eq!(a.3, b.3, "{what}: cells");
    assert_eq!(a.4, b.4, "{what}: current");
    assert_eq!(a.5, b.5, "{what}: E field");
}

#[test]
fn two_stream_pool2_runs_are_bit_identical() {
    // 25 steps, crossing the sort at step 20.
    let a = run_dsl(two_stream(ExecPolicy::pool(2)), 25);
    let b = run_dsl(two_stream(ExecPolicy::pool(2)), 25);
    assert_same(&a, &b, "dsl");
}

#[test]
fn every_pool2_mover_path_is_bit_identical() {
    let mut tiny = CabanaConfig::tiny();
    tiny.policy = ExecPolicy::pool(2);
    let cases = [
        ("slices", tiny.clone()),
        (
            "sorted",
            CabanaConfig {
                sort_policy: SortPolicy::EveryN(1),
                ..tiny.clone()
            },
        ),
        (
            "binding",
            CabanaConfig {
                binding: true,
                ..tiny.clone()
            },
        ),
    ];
    for (what, cfg) in cases {
        let a = run_structured(cfg.clone(), 12);
        let b = run_structured(cfg, 12);
        assert_same(&a, &b, what);
    }
}
