//! `oppic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts and every metric by name with its unit, then, as
//! the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! output check failed and 2 on a usage error or a refused plan.
//!
//! `--segment <k>` is the child-process mode: it measures one segment
//! of an untraced run, or one part of a traced run, and prints its raw
//! data for the parent.

use oppic_perfbench::host::Host;
use oppic_perfbench::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    segment: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut segment = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--segment" => segment = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        segment,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: oppic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    if let Some(k) = args.segment {
        let part = if args.trace {
            oppic_perfbench::run_traced_part(&host, args.workload, args.seed, args.seconds)
                .map(|(pl, checks)| pl.encode(&checks))
        } else {
            oppic_perfbench::run_segment(&host, args.workload, args.seed, args.seconds, k == 0)
                .map(|seg| seg.encode())
        };
        return match part {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let run = if args.trace {
        oppic_perfbench::run_traced
    } else {
        oppic_perfbench::run_untraced
    };
    let out = match run(&host, args.workload, args.seed, args.seconds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "# attempted={} failed={}",
        out.attempted,
        out.failures.len()
    );
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
