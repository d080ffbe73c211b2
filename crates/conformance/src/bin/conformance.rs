//! Differential conformance runner.
//!
//! ```text
//! conformance --quick                  # CI smoke: ≥ 24 matrix cells
//! conformance --full                   # the entire backend matrix
//! conformance --replay <file>          # re-execute a shrunk reproducer
//! conformance --chaos [--quick|--full] # seeded fault schedules over the
//!                                      # resilient drivers (DESIGN.md §10)
//! conformance --chaos-replay <file>    # re-execute a chaos reproducer
//! ```
//!
//! Exit status 0 when every cell passes; 1 otherwise. On failure each
//! cell is shrunk to a minimal reproducer and written under
//! `results/conformance/<cell-id>.json` (CI fails on uncommitted
//! files there, so a red run leaves evidence behind). The chaos stage
//! fails only on *silent corruption* — a clean typed abort exits 0
//! but still writes its reproducer, which the CI porcelain check
//! surfaces.

use oppic_conformance::{
    chaos_full_matrix, chaos_quick_matrix, full_matrix, quick_matrix, run_chaos_cell, run_matrix,
    shrink, verify_schedules, watchdog_control_checks, Case, CellConfig, ChaosCell, ChaosVerdict,
    REPRO_DIR,
};
use oppic_core::telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: conformance [--quick | --full | --schedules | --replay <file.json> | \
         --chaos [--quick|--full] | --chaos-replay <file.json>]"
    );
    std::process::exit(2);
}

/// Re-execute a reproducer of case type `C`: exit 0 when the recorded
/// failure no longer reproduces, 1 when it does, 2 when the file
/// cannot be read or parsed.
fn replay<C: Case>(path: &str) -> i32 {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("conformance: cannot read {path}: {e}");
            return 2;
        }
    };
    let (case, recorded) = match C::parse_reproducer(&src) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("conformance: {e}");
            return 2;
        }
    };
    println!("replaying {case}");
    if !recorded.is_empty() {
        println!("recorded failures:");
        for line in &recorded {
            println!("  {line}");
        }
    }
    match case.run() {
        Ok(()) => {
            println!("PASS — the recorded failure no longer reproduces");
            0
        }
        Err(lines) => {
            println!("FAIL — reproduced:");
            for line in lines {
                println!("  {line}");
            }
            1
        }
    }
}

/// Shrink a failing case to a minimal one and write its reproducer
/// under [`REPRO_DIR`].
fn shrink_and_write<C: Case>(case: &C) {
    println!("shrinking {} ...", case.id());
    let (shrunk, spent) = shrink(case, &mut C::fails);
    let lines = shrunk.run().err().unwrap_or_default();
    let [steps, particles] = shrunk.clone().sizes().map(|n| *n);
    match shrunk.write_reproducer(Path::new(REPRO_DIR), &lines) {
        Ok(path) => println!(
            "  minimal reproducer ({steps} steps, {particles} particles, {spent} attempts): {}\n  \
             replay with: cargo run --release --bin conformance -- {} {}",
            path.display(),
            C::REPLAY_FLAG,
            path.display()
        ),
        Err(e) => eprintln!("  cannot write reproducer: {e}"),
    }
}

fn run(cells: &[CellConfig], label: &str) -> i32 {
    let tel = Arc::new(Telemetry::new());
    let _guard = tel.make_current();
    let t0 = Instant::now();
    println!("conformance --{label}: {} matrix cells", cells.len());

    let reports = run_matrix(cells);
    let mut failed = Vec::new();
    for report in &reports {
        if report.passed() {
            println!(
                "  PASS {:<34} {:>6} values, oracle {:?}",
                report.cell.id(),
                report.comparison.compared,
                report.oracle
            );
        } else {
            println!("  FAIL {}", report.cell);
            for line in report.failure_lines() {
                println!("       {line}");
            }
            failed.push(report.cell.clone());
        }
    }

    for cell in &failed {
        shrink_and_write(cell);
    }

    let counters = tel.counters_snapshot();
    let compared: u64 = counters
        .iter()
        .filter(|(k, _)| k.ends_with("/values_compared"))
        .map(|(_, v)| *v)
        .sum();
    // Per-cell keys are `conformance/<id>/divergent`; deeper keys are
    // the per-kernel attribution and would double-count.
    let divergent: u64 = counters
        .iter()
        .filter(|(k, _)| k.ends_with("/divergent") && k.matches('/').count() == 2)
        .map(|(_, v)| *v)
        .sum();
    // The run time goes to stderr, so two runs of one build print the
    // same standard output.
    println!(
        "{}/{} cells passed, {compared} values compared, {divergent} divergent",
        reports.len() - failed.len(),
        reports.len(),
    );
    eprintln!("matrix run: {:.2}s", t0.elapsed().as_secs_f64());
    if failed.is_empty() {
        0
    } else {
        1
    }
}

/// Run one chaos cell and report it. Returns the verdict; anything
/// short of `Recovered` is shrunk into a reproducer.
fn chaos_cell_outcome(cell: &ChaosCell) -> ChaosVerdict {
    let report = run_chaos_cell(cell);
    // Flight-recorder evidence: recovery cells keep their event ring
    // whenever anything alerted or the run fell short of Recovered.
    if let Some(bytes) = &report.recorder_dump {
        let path = Path::new(REPRO_DIR).join(format!("{}.opfr", cell.id()));
        // The dump's size depends on timing, so it goes to stderr with
        // the run time and stdout stays the same from run to run.
        match std::fs::create_dir_all(REPRO_DIR).and_then(|()| std::fs::write(&path, bytes)) {
            Ok(()) => {
                println!(
                    "  flight recorder dump: {} (decode with oppic-report --decode-recorder)",
                    path.display()
                );
                eprintln!("  {}: {} bytes", path.display(), bytes.len());
            }
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
    }
    match &report.verdict {
        // The retransmit count is left out: retries fire on wall-clock
        // timeouts, so it varies between runs of one build and seed.
        ChaosVerdict::Recovered {
            injected,
            recoveries,
            ..
        } => println!(
            "  PASS  {:<40} recovered ({injected} injected, {recoveries} rollbacks)",
            cell.id()
        ),
        ChaosVerdict::CleanAbort { errors } => {
            println!("  ABORT {:<40} clean typed abort", cell.id());
            for line in errors {
                println!("        {line}");
            }
        }
        ChaosVerdict::SilentCorruption { failures } => {
            println!("  FAIL  {:<40} SILENT CORRUPTION", cell.id());
            for line in failures {
                println!("        {line}");
            }
        }
    }
    if !report.recovered() {
        shrink_and_write(cell);
    }
    report.verdict
}

fn run_chaos(cells: &[ChaosCell], label: &str) -> i32 {
    let t0 = Instant::now();
    println!(
        "conformance --chaos --{label}: {} seeded schedules",
        cells.len()
    );
    let (mut recovered, mut aborted, mut corrupted) = (0usize, 0usize, 0usize);
    for cell in cells {
        match chaos_cell_outcome(cell) {
            ChaosVerdict::Recovered { .. } => recovered += 1,
            ChaosVerdict::CleanAbort { .. } => aborted += 1,
            ChaosVerdict::SilentCorruption { .. } => corrupted += 1,
        }
    }
    // Watchdog negative controls (DESIGN.md §6): a fault-free
    // synthetic step series must raise zero alerts, and each injected
    // anomaly must trip exactly its own rule exactly once.
    let controls = watchdog_control_checks();
    println!("watchdog controls: {} checks", controls.len());
    let mut control_failures = 0usize;
    for check in &controls {
        match &check.result {
            Ok(()) => println!("  PASS  {}", check.name),
            Err(evidence) => {
                control_failures += 1;
                println!("  FAIL  {}", check.name);
                println!("        {evidence}");
            }
        }
    }
    // The run time goes to stderr, so two runs of one build print the
    // same standard output.
    println!(
        "{recovered} recovered, {aborted} clean aborts, {corrupted} silently corrupted, \
         {}/{} watchdog controls passed",
        controls.len() - control_failures,
        controls.len(),
    );
    eprintln!("chaos run: {:.2}s", t0.elapsed().as_secs_f64());
    if corrupted == 0 && control_failures == 0 {
        0
    } else {
        1
    }
}

/// Whole-step schedule conformance (DESIGN.md §11): both apps'
/// recorded communication schedules audit Error-free and record their
/// exchanges, and the broken-schedule negative control still trips the
/// staleness detector.
fn run_schedule_checks() -> i32 {
    let t0 = Instant::now();
    let checks = verify_schedules();
    println!("conformance schedules: {} checks", checks.len());
    let mut failed = 0;
    for check in &checks {
        if check.passed() {
            println!("  PASS {:<34} {:>6} events", check.app, check.events);
        } else {
            failed += 1;
            println!("  FAIL {}", check.app);
            for line in &check.failures {
                println!("       {line}");
            }
        }
    }
    println!(
        "{}/{} schedule checks passed",
        checks.len() - failed,
        checks.len(),
    );
    eprintln!("schedule checks: {:.2}s", t0.elapsed().as_secs_f64());
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--quick") | None => run(&quick_matrix(), "quick").max(run_schedule_checks()),
        Some("--full") => run(&full_matrix(), "full").max(run_schedule_checks()),
        Some("--schedules") => run_schedule_checks(),
        Some("--replay") => match args.get(1) {
            Some(path) => replay::<CellConfig>(path),
            None => usage(),
        },
        Some("--chaos") => match args.get(1).map(String::as_str) {
            Some("--quick") | None => run_chaos(&chaos_quick_matrix(), "quick"),
            Some("--full") => run_chaos(&chaos_full_matrix(), "full"),
            _ => usage(),
        },
        Some("--chaos-replay") => match args.get(1) {
            Some(path) => replay::<ChaosCell>(path),
            None => usage(),
        },
        _ => usage(),
    };
    std::process::exit(code);
}
