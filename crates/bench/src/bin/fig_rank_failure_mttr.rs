//! Rank-failure MTTR benchmark (robustness companion to the scaling
//! figures): kill one rank at each site (mid-step, mid-exchange,
//! mid-checkpoint) and measure the survivors' mean time to repair —
//! detection latency (collective error → death verdict), recovery
//! time in two parts — agreement (verdict → every survivor's proposal
//! on the board) and restore (state restored, cells and particles
//! re-homed, membership installed) — and post-recovery throughput
//! against the pre-failure baseline. Detection always includes the
//! configured death deadline, which the detector grants every suspect,
//! so the artifact records what detection takes beyond it. Survivors
//! suspect at different times, so agreement holds the wait for the
//! last survivor's own verdict.
//!
//! Every site is first validated against its planned-shrink twin
//! (bit-identical survivors at the shrunk rank count) — a diverging
//! run records nothing and exits non-zero, so the committed artifact
//! can only ever hold numbers from provably-correct recoveries.
//! `crates/bench/tests/mttr_regression.rs` pins the recorded bounds.

use oppic_bench::rankfail::{
    classify_shrink, run_rank_failure, ChaosVerdict, KillSite, RankFailScenario, RankKill,
};
use oppic_bench::report::banner;
use std::fmt::Write as _;

fn scenario(site: KillSite) -> RankFailScenario {
    let mut sc = RankFailScenario::baseline();
    sc.steps = 16;
    sc.particles = 200;
    sc.seed = 0xA77;
    sc.kill = Some(RankKill {
        rank: 2,
        // A checkpoint-site kill dies at the boundary itself.
        step: if site == KillSite::Checkpoint { 8 } else { 9 },
        site,
    });
    sc
}

fn main() {
    banner(
        "Rank-failure MTTR",
        "heartbeat detection + membership shrink + checkpoint replay (DESIGN.md §13)",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sites = if smoke {
        vec![KillSite::Step]
    } else {
        vec![KillSite::Step, KillSite::Exchange, KillSite::Checkpoint]
    };

    println!(
        "{:>11} {:>9} {:>13} {:>10} {:>12} {:>9} {:>9} {:>9}",
        "site",
        "replayed",
        "past ddl (ms)",
        "agree (ms)",
        "restore (ms)",
        "mttr",
        "pre s/s",
        "post s/s"
    );
    let mut rows = String::new();
    let mut failed = false;
    for site in sites {
        let sc = scenario(site);
        let kill = sc.kill.unwrap();
        let twin = run_rank_failure(&sc.twin());
        let faulted = run_rank_failure(&sc);
        let verdict = classify_shrink(&sc, &twin, &faulted);
        let bit_identical = matches!(verdict, ChaosVerdict::Recovered { .. });
        if !bit_identical {
            eprintln!("site {}: NOT bit-identical: {verdict:?}", site.name());
            failed = true;
            continue;
        }
        let survivors: Vec<_> = faulted
            .iter()
            .filter_map(|r| r.as_ref().ok().and_then(|o| o.as_ref()))
            .collect();
        // The slowest survivor defines repair time; throughput is the
        // per-rank mean.
        let fmax = |f: &dyn Fn(&&oppic_bench::rankfail::RankFinal) -> f64| {
            survivors.iter().map(f).fold(0.0f64, f64::max)
        };
        let mean = |f: &dyn Fn(&&oppic_bench::rankfail::RankFinal) -> f64| {
            survivors.iter().map(f).sum::<f64>() / survivors.len() as f64
        };
        let detection_ms = fmax(&|f| f.detection_ms);
        let beyond_ms = detection_ms - sc.death_deadline_ms as f64;
        let agreement_ms = fmax(&|f| f.agreement_ms);
        let restore_ms = fmax(&|f| f.recovery_ms - f.agreement_ms);
        let mttr_ms = detection_ms + agreement_ms + restore_ms;
        let steps_replayed = survivors.iter().map(|f| f.steps_replayed).max().unwrap();
        let pre = mean(&|f| f.pre_steps_per_s);
        let post = mean(&|f| f.post_steps_per_s);
        let stale: u64 = survivors.iter().map(|f| f.stale_epoch_dropped).sum();
        // Every survivor counts the same death: report the count they
        // agreed on, not their sum.
        let deaths = survivors.iter().map(|f| f.rank_deaths).max().unwrap();
        println!(
            "{:>11} {:>9} {:>13.1} {:>10.1} {:>12.1} {:>9.1} {:>9.1} {:>9.1}",
            site.name(),
            steps_replayed,
            beyond_ms,
            agreement_ms,
            restore_ms,
            mttr_ms,
            pre,
            post
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"site\": \"{}\", \"kill_rank\": {}, \"kill_step\": {}, \
             \"detection_beyond_deadline_ms\": {beyond_ms:.3}, \"agreement_ms\": {agreement_ms:.3}, \
             \"restore_ms\": {restore_ms:.3}, \
             \"mttr_ms\": {mttr_ms:.3}, \"steps_replayed\": {steps_replayed}, \
             \"pre_steps_per_s\": {pre:.3}, \"post_steps_per_s\": {post:.3}, \
             \"stale_epoch_dropped\": {stale}, \"rank_deaths\": {deaths}, \
             \"bit_identical\": {bit_identical}}}",
            site.name(),
            kill.rank,
            kill.step,
        );
    }
    if failed {
        eprintln!("refusing to record an artifact from a corrupted recovery");
        std::process::exit(1);
    }

    let sc = scenario(KillSite::Step);
    let json = format!(
        "{{\n  \"schema\": \"oppic-mttr-v3\",\n  \"ranks\": {},\n  \"steps\": {},\n  \
         \"particles\": {},\n  \"checkpoint_every\": {},\n  \"heartbeat_ms\": {},\n  \
         \"death_deadline_ms\": {},\n  \"sites\": [\n{rows}\n  ]\n}}\n",
        sc.ranks,
        sc.steps,
        sc.particles,
        sc.checkpoint_every,
        sc.heartbeat_ms,
        sc.death_deadline_ms
    );
    if smoke {
        println!("\n--smoke: artifact not recorded");
        return;
    }
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let file = dir.join("BENCH_rank_failure_mttr.json");
        match std::fs::write(&file, &json) {
            Ok(()) => println!("recorded {}", file.display()),
            Err(e) => eprintln!("could not record {}: {e}", file.display()),
        }
    }
    println!(
        "\nMTTR = detection (the death deadline + the detector's time past it)\n\
         + agreement (waiting for every survivor's proposal)\n\
         + restore (shard restore, re-partition, adoption);\n\
         replay cost is bounded by the checkpoint cadence."
    );
}
