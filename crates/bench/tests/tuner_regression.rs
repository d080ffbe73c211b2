//! AutoTuner regression against the recorded ablation sweep.
//!
//! Table-driven over `results/BENCH_ablation_deposit_matrix.json` (the
//! committed artifact of `ablation_deposit_strategies`): for every
//! recorded (threads, ppc) regime the tuner's decision is costed with
//! the recorded milliseconds. The tuner must never pick a strategy
//! materially slower than the best recorded option for that regime, so
//! a heuristic edit that starts selecting a losing strategy fails here
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
    sa: f64,
    at: f64,
}

fn load_table() -> (usize, Vec<Regime>) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_ablation_deposit_matrix.json"
    );
    let src = std::fs::read_to_string(path).expect("committed bench artifact must exist");
    let doc = json::parse(&src).expect("bench artifact must be valid JSON");
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).expect(k);
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
                sa: num(ms, "scatter_arrays"),
                at: num(ms, "atomics"),
            });
        }
    }
    (n_targets, regimes)
}

/// Cost of a tuner decision in regime `r`, in recorded milliseconds.
/// `Serial` is costed as the scatter-arrays column: on one thread SA
/// is the serial scatter plus a private-copy merge, the closest
/// recorded upper bound (the sweep records no plain-serial column).
fn cost(r: &Regime, method: DepositMethod) -> f64 {
    match method {
        DepositMethod::Serial | DepositMethod::ScatterArrays => r.sa,
        DepositMethod::Atomics | DepositMethod::UnsafeAtomics => r.at,
        DepositMethod::SegmentedReduction => {
            panic!("tuner picked {method:?}, which the sweep does not record")
        }
    }
}

#[test]
fn tuner_never_picks_a_recorded_loser() {
    let (n_targets, regimes) = load_table();
    assert!(regimes.len() >= 9, "sweep must cover threads x ppc grid");
    let mut tuner = AutoTuner::new();
    for r in &regimes {
        let d = tuner.choose(TunerInput {
            n_targets,
            threads: r.threads,
        });
        let picked = cost(r, d.method);
        let best = r.sa.min(r.at);
        assert!(
            picked <= TOLERANCE * best,
            "threads {} ppc {}: tuner picked {:?} ({picked:.1} ms) but best \
             recorded is {best:.1} ms ({})",
            r.threads,
            r.ppc,
            d.method,
            d.reason
        );
    }
}
