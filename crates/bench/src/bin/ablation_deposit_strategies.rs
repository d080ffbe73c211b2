//! Ablation (Section 3.3 / 4.1.1): race-handling strategies for the
//! double-indirect charge deposit — scatter arrays (SA), safe atomics
//! (AT), unsafe atomics (UA) and segmented reduction (SR).
//!
//! Four views:
//! 1. host wall-times of the real strategies across a contention sweep
//!    (few targets = the serialization pathology);
//! 2. end-to-end Mini-FEM-PIC runtime per strategy;
//! 3. modeled GPU deposit times, reproducing "standard atomics (AT) on
//!    AMD GPUs perform significantly worse, over 200× slower than UA
//!    or SR";
//! 4. SA vs AT across particle-per-cell regimes and thread counts
//!    {1, nproc}, recorded to `results/BENCH_ablation_deposit_matrix.json`
//!    (the table `AutoTuner` is checked against).

use oppic_bench::report::{banner, scale_factor, steps, telemetry_from_env};
use oppic_core::{deposit_loop, DepositMethod, ExecPolicy};
use oppic_device::{analyze_warps, AtomicFlavor, DeviceSpec};
use oppic_fempic::{FemPic, FemPicConfig};
use std::time::Instant;

fn main() {
    banner("Ablation", "deposit race handling: SA / AT / UA / SR");

    // ---- 1. contention sweep on the raw executor ----
    let n = 400_000usize;
    println!("--- raw deposit_loop, {n} iterations × 4 adds, host wall time (ms) ---");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "targets", "SA", "AT", "UA", "SR"
    );
    for targets in [8usize, 512, 65_536] {
        print!("{targets:>10}");
        for method in [
            DepositMethod::ScatterArrays,
            DepositMethod::Atomics,
            DepositMethod::UnsafeAtomics,
            DepositMethod::SegmentedReduction,
        ] {
            let mut buf = vec![0.0f64; targets];
            let t0 = Instant::now();
            deposit_loop(&ExecPolicy::Par, method, n, &mut buf, |i| {
                let idx = |k: usize| (i.wrapping_mul(2654435761) + k * 97) % targets;
                ([idx(0), idx(1), idx(2), idx(3)], [1.0; 4])
            });
            print!(" {:>10.3}", t0.elapsed().as_secs_f64() * 1e3);
            // Guard: totals must match regardless of strategy.
            let total: f64 = buf.iter().sum();
            assert!((total - 4.0 * n as f64).abs() < 1e-6 * n as f64);
        }
        println!();
    }

    // ---- 2. end-to-end Mini-FEM-PIC ----
    let n_steps = steps(15);
    println!("\n--- Mini-FEM-PIC end-to-end, DepositCharge seconds per strategy ---");
    for method in [
        DepositMethod::ScatterArrays,
        DepositMethod::Atomics,
        DepositMethod::UnsafeAtomics,
        DepositMethod::SegmentedReduction,
    ] {
        let mut cfg = FemPicConfig::paper_scaled(0.01);
        cfg.policy = ExecPolicy::Par;
        cfg.deposit = method;
        let mut sim = FemPic::new(cfg);
        let tel = sim.profiler.telemetry().clone();
        let sink = telemetry_from_env(
            &tel,
            "fempic",
            &format!("deposit-{method:?}"),
            sim.cfg.policy.threads(),
            &format!("{:?}", sim.cfg),
        );
        sim.run(n_steps);
        if sink {
            let _ = tel.finish();
        }
        let dep = tel.get("DepositCharge").map_or(0.0, |s| s.seconds);
        println!(
            "{:<24} {:>10.4} s  (total charge {:.6})",
            format!("{method:?}"),
            dep,
            sim.node_charge.sum()
        );
    }
    // The paper's third CPU option: cell coloring (sorted particles).
    {
        let mut cfg = FemPicConfig::paper_scaled(0.01);
        cfg.policy = ExecPolicy::Par;
        cfg.coloring = true;
        let mut sim = FemPic::new(cfg);
        sim.run(n_steps);
        let tel = sim.profiler.telemetry();
        let dep = tel.get("DepositCharge").map_or(0.0, |s| s.seconds);
        let sort = tel.get("SortParticles").map_or(0.0, |s| s.seconds);
        println!(
            "{:<24} {:>10.4} s  (+ {:.4} s sort overhead, total charge {:.6})",
            "Coloring",
            dep,
            sort,
            sim.node_charge.sum()
        );
    }

    // ---- 3. modeled GPU deposit times ----
    println!("\n--- modeled GPU deposit time (ms) for a 70M-particle-equivalent step ---");
    let mut cfg = FemPicConfig::paper_scaled(0.01);
    cfg.policy = ExecPolicy::Par;
    let mut sim = FemPic::new(cfg);
    sim.run(5);
    let np = sim.ps.len();
    let cells = sim.ps.cells().to_vec();
    let c2n = sim.mesh.c2n.clone();
    let st = sim.profiler.telemetry().get("DepositCharge").unwrap();
    let (b, f) = (st.bytes as f64 / 5.0, st.flops as f64 / 5.0);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "device", "AT", "UA", "SR", "AT/UA"
    );
    for spec in [
        DeviceSpec::v100(),
        DeviceSpec::mi210(),
        DeviceSpec::mi250x_gcd(),
        DeviceSpec::intel_max_1550(), // the paper's future-work target
    ] {
        let rep = analyze_warps(
            spec.warp_size,
            np,
            |_| 0,
            |i, out| {
                out.extend(c2n[cells[i] as usize].iter().map(|&x| x as u32));
            },
        );
        let at = rep.modeled_seconds(&spec, AtomicFlavor::Safe, b, f);
        let ua = rep.modeled_seconds(&spec, AtomicFlavor::Unsafe, b, f);
        // SR: no atomics at all; sort/reduce costs ~3 extra passes over
        // the staged pairs.
        let sr_bytes = b + rep.atomic_ops as f64 * 12.0 * 3.0;
        let sr = spec.roofline_time(sr_bytes, f);
        println!(
            "{:<22} {:>12.4} {:>12.4} {:>12.4} {:>9.0}x",
            spec.name,
            at * 1e3,
            ua * 1e3,
            sr * 1e3,
            at / ua
        );
    }

    println!(
        "\nShape checks vs the paper: on the CPU, scatter arrays win and all methods\n\
         agree numerically; on AMD-class devices safe atomics are two orders of\n\
         magnitude slower than UA/SR under contention (the >200x finding), while\n\
         NVIDIA atomics stay competitive; SR ≈ UA with a small constant overhead."
    );

    // ---- 4. SA vs AT across densities and thread counts ----
    density_sweep();
}

/// Deterministic LCG (the sweep must not depend on platform RNG).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Scatter arrays versus atomics across mean particles-per-cell
/// regimes and thread counts on a synthetic FEM-like mesh (every cell
/// scatters into 4 of `n_targets` node slots, as the tet-weighting
/// deposit does), with particles in random cell order. Thread counts
/// stop at this host's parallelism, and every column is the best of
/// `reps` runs.
fn density_sweep() {
    let sf = scale_factor(1.0);
    let n_cells = ((24_000.0 * sf) as usize).max(64);
    let n_targets = ((50_000.0 * sf) as usize).max(32);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_sweep = vec![1usize, nproc];
    thread_sweep.dedup();
    let reps = 3usize;

    // Synthetic cells→nodes relation: 4 distinct pseudo-random targets
    // per cell.
    let mut seed = 0x5EEDu64;
    let c2n: Vec<[usize; 4]> = (0..n_cells)
        .map(|_| {
            let mut t = [0usize; 4];
            let mut k = 0;
            while k < 4 {
                let cand = (lcg(&mut seed) as usize) % n_targets;
                if !t[..k].contains(&cand) {
                    t[k] = cand;
                    k += 1;
                }
            }
            t
        })
        .collect();

    println!(
        "\n--- SA vs AT across densities ---\n\
         {n_cells} cells -> {n_targets} targets, 4 adds/particle, threads {thread_sweep:?} \
         (nproc {nproc}), best of {reps} (ms)"
    );
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12}",
        "ppc", "threads", "particles", "SA", "AT"
    );

    // (threads, ppc, n, sa, at) — assembled into per-thread-count JSON
    // sweeps at the end.
    type Row = (usize, usize, usize, f64, f64);
    let mut rows: Vec<Row> = Vec::new();
    for ppc in [2usize, 8, 16, 32, 64, 256] {
        let n = n_cells * ppc;
        // Random cell assignment + per-particle weights — one store per
        // regime, shared by every thread count so the sweeps are
        // directly comparable.
        let pcells: Vec<usize> = (0..n)
            .map(|_| (lcg(&mut seed) as usize) % n_cells)
            .collect();
        let w: Vec<f64> = (0..n * 4)
            .map(|i| 0.25 + ((i % 13) as f64) * 0.03125)
            .collect();

        let time_best = |f: &mut dyn FnMut() -> f64| -> (f64, f64) {
            let mut best = f64::INFINITY;
            let mut total = 0.0;
            for _ in 0..reps {
                let t0 = Instant::now();
                total = f();
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            (best, total)
        };

        for &threads in &thread_sweep {
            let policy = ExecPolicy::pool(threads);
            let deposit = |method: DepositMethod| {
                time_best(&mut || {
                    let mut buf = vec![0.0f64; n_targets];
                    deposit_loop(&policy, method, n, &mut buf, |i| {
                        (c2n[pcells[i]], std::array::from_fn(|k| w[i * 4 + k]))
                    });
                    buf.iter().sum()
                })
            };
            let (sa_ms, sa_total) = deposit(DepositMethod::ScatterArrays);
            let (at_ms, at_total) = deposit(DepositMethod::Atomics);
            assert!(
                (sa_total - at_total).abs() < 1e-6 * sa_total.abs().max(1.0),
                "AT must agree numerically with SA at ppc {ppc}"
            );
            println!("{ppc:>6} {threads:>8} {n:>10} {sa_ms:>12.3} {at_ms:>12.3}");
            rows.push((threads, ppc, n, sa_ms, at_ms));
        }
    }

    let sweeps: Vec<String> = thread_sweep
        .iter()
        .map(|&t| {
            let regimes: Vec<String> = rows
                .iter()
                .filter(|r| r.0 == t)
                .map(|&(_, ppc, n, sa, at)| {
                    format!(
                        "        {{\"ppc\": {ppc}, \"n_particles\": {n}, \"ms\": \
                         {{\"scatter_arrays\": {sa:.4}, \"atomics\": {at:.4}}}}}"
                    )
                })
                .collect();
            format!(
                "    {{\"threads\": {t}, \"regimes\": [\n{}\n    ]}}",
                regimes.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_deposit_strategies/cell_locality_matrix\",\n  \
         \"n_cells\": {n_cells},\n  \"n_targets\": {n_targets},\n  \
         \"nproc\": {nproc},\n  \"threads\": {thread_sweep:?},\n  \"adds_per_particle\": 4,\n  \
         \"best_of\": {reps},\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        sweeps.join(",\n")
    );
    if sf < 1.0 {
        println!("\nOPPIC_SCALE={sf} < 1: smoke run, not recording results/");
        return;
    }
    let path = std::path::Path::new("results");
    if std::fs::create_dir_all(path).is_ok() {
        let file = path.join("BENCH_ablation_deposit_matrix.json");
        match std::fs::write(&file, &json) {
            Ok(()) => println!("\nrecorded {}", file.display()),
            Err(e) => eprintln!("could not record {}: {e}", file.display()),
        }
    }
}
