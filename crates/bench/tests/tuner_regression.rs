//! AutoTuner regression against the recorded ablation sweep.
//!
//! Table-driven over `results/BENCH_ablation_deposit_matrix.json` (the
//! committed artifact of `ablation_deposit_strategies`): for every
//! recorded (threads, ppc) regime the tuner is probed in the two
//! states the sweep actually measured — a fresh cell index and a fully
//! dirty store — and its decision is costed with the recorded
//! milliseconds. Over a dirty store it must not pick the Matrix
//! deposit at all: it is legal only on a fresh index. The tuner must
//! never pick a strategy materially
//! slower than the best recorded option for that regime, so a
//! heuristic edit that starts selecting a losing strategy fails here
//! without re-running the bench.

use oppic_core::json::{self, Json};
use oppic_core::{AutoTuner, DepositMethod, TunerInput};

/// Accepted slack over the best recorded strategy. The sweep is a
/// best-of-3 on a shared machine, so near-ties jitter by ~25%; the
/// bound still rejects any structurally wrong pick (the cheapest
/// mistakes in the table cost 1.5x, most cost 3-10x).
const TOLERANCE: f64 = 1.35;

struct Regime {
    threads: usize,
    ppc: f64,
    n_particles: usize,
    sa: f64,
    at: f64,
    mx: f64,
    sort: f64,
}

fn load_table() -> (usize, usize, Vec<Regime>) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_ablation_deposit_matrix.json"
    );
    let src = std::fs::read_to_string(path).expect("committed bench artifact must exist");
    let doc = json::parse(&src).expect("bench artifact must be valid JSON");
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).expect(k);
    let n_cells = num(&doc, "n_cells") as usize;
    let n_targets = num(&doc, "n_targets") as usize;
    let mut regimes = Vec::new();
    for sweep in doc.get("sweeps").and_then(Json::as_arr).expect("sweeps") {
        let threads = num(sweep, "threads") as usize;
        for r in sweep
            .get("regimes")
            .and_then(Json::as_arr)
            .expect("regimes")
        {
            let ms = r.get("ms").expect("ms");
            regimes.push(Regime {
                threads,
                ppc: num(r, "ppc"),
                n_particles: num(r, "n_particles") as usize,
                sa: num(ms, "scatter_arrays"),
                at: num(ms, "atomics"),
                mx: num(ms, "matrix"),
                sort: num(ms, "sort"),
            });
        }
    }
    (n_cells, n_targets, regimes)
}

/// Cost of a tuner decision in regime `r`, in recorded milliseconds.
/// `Serial` is costed as the scatter-arrays column: on one thread SA
/// is the serial scatter plus a private-copy merge, the closest
/// recorded upper bound (the sweep records no plain-serial column).
fn cost(r: &Regime, method: DepositMethod) -> f64 {
    match method {
        DepositMethod::Serial | DepositMethod::ScatterArrays => r.sa,
        DepositMethod::Atomics | DepositMethod::UnsafeAtomics => r.at,
        DepositMethod::Matrix => r.mx,
        DepositMethod::SegmentedReduction => {
            panic!("tuner picked {method:?}, which the sweep does not record")
        }
    }
}

#[test]
fn tuner_never_picks_a_recorded_loser() {
    let (n_cells, n_targets, regimes) = load_table();
    assert!(regimes.len() >= 9, "sweep must cover threads x ppc grid");
    let mut tuner = AutoTuner::new();
    for r in &regimes {
        // The two states the sweep measured: deposit straight off a
        // fresh index, and deposit on a fully dirty store (where the
        // sorted path must first pay the recorded sort).
        let probes = [
            (true, [r.sa, r.at, r.mx]),
            (false, [r.sa, r.at, r.mx + r.sort]),
        ];
        for (index_fresh, options) in probes {
            let d = tuner.choose(TunerInput {
                n_particles: r.n_particles,
                n_cells,
                n_targets,
                index_fresh,
                threads: r.threads,
            });
            // A dirty store never gets the Matrix deposit.
            if !index_fresh {
                assert!(
                    d.method != DepositMethod::Matrix,
                    "threads {} ppc {}: {:?} on a dirty store",
                    r.threads,
                    r.ppc,
                    d.method
                );
            }
            let picked = cost(r, d.method);
            let best = options.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                picked <= TOLERANCE * best,
                "threads {} ppc {} fresh {index_fresh}: tuner picked {:?} \
                 ({picked:.1} ms) but best recorded is {best:.1} ms ({})",
                r.threads,
                r.ppc,
                d.method,
                d.reason
            );
        }
    }
}

#[test]
fn matrix_is_selected_exactly_where_it_wins_single_thread() {
    let (n_cells, n_targets, regimes) = load_table();
    let mut tuner = AutoTuner::new();
    for r in regimes.iter().filter(|r| r.threads == 1) {
        let d = tuner.choose(TunerInput {
            n_particles: r.n_particles,
            n_cells,
            n_targets,
            index_fresh: true,
            threads: 1,
        });
        if r.ppc >= AutoTuner::MX_SEQ_MIN_PPC {
            // Acceptance row of the ablation: from MX_SEQ_MIN_PPC on,
            // the cell-major streaming schedule beats the serial
            // scatter's closest recorded column on one thread...
            assert!(
                r.mx < r.sa,
                "ppc {}: matrix {} ms must beat scatter arrays {} ms single-thread",
                r.ppc,
                r.mx,
                r.sa
            );
            // ...and the tuner routes fresh dense deposits to it.
            assert_eq!(d.method, DepositMethod::Matrix, "ppc {}", r.ppc);
        }
    }
}
