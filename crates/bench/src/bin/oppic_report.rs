//! `oppic-report` — digest telemetry JSONL streams into the paper's
//! presentation artifacts.
//!
//! ```text
//! oppic-report [--artifacts <dir>] <run.jsonl>...
//! oppic-report --timeline <out.json> [--schedule <trace.json>] <run.jsonl>...
//! oppic-report --decode-recorder <dump.bin>
//! ```
//!
//! Prints one breakdown table (kernels, per-class totals, step
//! statistics) per input stream. With `--artifacts <dir>` it also
//! writes `BENCH_roofline.csv` (Figure 10/11 operands) and
//! `BENCH_step_timings.json` (per-step timings/populations) into the
//! directory. `--timeline` merges the runs (plus an optional
//! `oppic-schedule-v1` trace) into Chrome-trace JSON for
//! `chrome://tracing` / Perfetto; `--decode-recorder` prints a
//! flight-recorder dump (`OPFR` binary, DESIGN.md §6b): one summary
//! line, then the ring's events as the JSONL records a `--telemetry`
//! sink writes.

use oppic_bench::telemetry_report::{
    breakdown_table, parse_run, roofline_csv, step_timings_json, RunSummary,
};
use oppic_core::schedule::ScheduleTrace;
use oppic_obs::cli::{self, take_value, Exit};
use oppic_obs::recorder::FlightDump;
use oppic_obs::timeline::chrome_trace;
use std::fmt::Display;
use std::io::Write;

const USAGE: &str = "usage: oppic-report [--artifacts <dir>] [--timeline <out.json>] \
                     [--schedule <trace.json>] <run.jsonl>... | --decode-recorder <dump.bin>";

/// Report `msg` on standard error; exit status 1.
fn fail(msg: impl Display) -> Exit {
    eprintln!("oppic-report: {msg}");
    Exit(1)
}

/// `--decode-recorder` mode: parse an `OPFR` dump, print its summary
/// line and then one JSONL record per event, oldest first.
fn decode_recorder(out: &mut impl Write, path: &str) -> Result<(), Exit> {
    let bytes = std::fs::read(path).map_err(|e| fail(format_args!("cannot read {path}: {e}")))?;
    let dump = FlightDump::parse(&bytes).map_err(|e| fail(format_args!("{path}: {e}")))?;
    writeln!(
        out,
        "flight recorder dump: ring capacity {}, {} event(s) total, {} dropped, {} in window",
        dump.capacity,
        dump.total,
        dump.dropped(),
        dump.events.len()
    )?;
    for ev in &dump.events {
        writeln!(out, "{}", ev.encode())?;
    }
    Ok(())
}

/// Exit status: 0 on success, 1 on a usage, input or output error,
/// and `cli::EXIT_CLOSED_PIPE` when the reader of standard output goes
/// away (`| head`).
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(report(&mut std::io::stdout(), &mut args));
}

fn report(out: &mut impl Write, args: &mut Vec<String>) -> Result<(), Exit> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let mut take = |flag| take_value(args, flag).map_err(fail);
    let (artifacts, timeline, schedule, decode) = (
        take("--artifacts")?,
        take("--timeline")?,
        take("--schedule")?,
        take("--decode-recorder")?,
    );
    if let Some(path) = decode {
        return decode_recorder(out, &path);
    }
    if args.is_empty() {
        eprintln!("{USAGE}");
        return Err(Exit(1));
    }

    let mut runs: Vec<RunSummary> = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in args.iter() {
        let src = std::fs::read_to_string(path)
            .map_err(|e| fail(format_args!("cannot read {path}: {e}")))?;
        let run = parse_run(&src).map_err(|e| fail(format_args!("{path}: {e}")))?;
        writeln!(out, "== {path}")?;
        writeln!(out, "{}", breakdown_table(&run))?;
        runs.push(run);
        sources.push((path.clone(), src));
    }

    if let Some(dest) = timeline {
        let trace = match &schedule {
            Some(path) => Some(
                std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|s| ScheduleTrace::from_json(&s))
                    .map_err(|e| fail(format_args!("schedule trace {path}: {e}")))?,
            ),
            None => None,
        };
        let labeled: Vec<(&str, &str)> = sources
            .iter()
            .map(|(p, s)| (p.as_str(), s.as_str()))
            .collect();
        let json = chrome_trace(&labeled, trace.as_ref());
        std::fs::write(&dest, json).map_err(|e| fail(format_args!("cannot write {dest}: {e}")))?;
        writeln!(out, "wrote {dest} (chrome://tracing / Perfetto format)")?;
    }

    if let Some(dir) = artifacts {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| fail(format_args!("cannot create {}: {e}", dir.display())))?;
        for (name, content) in [
            ("BENCH_roofline.csv", roofline_csv(&runs)),
            ("BENCH_step_timings.json", step_timings_json(&runs)),
        ] {
            let p = dir.join(name);
            std::fs::write(&p, content).map_err(fail)?;
            writeln!(out, "wrote {}", p.display())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, ErrorKind};

    /// A reader that has gone away: every write fails with `BrokenPipe`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::from(ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_stops_decoding_quietly() {
        let recorder = oppic_obs::FlightRecorder::new(16);
        let path =
            std::env::temp_dir().join(format!("oppic_report_pipe_{}.opfr", std::process::id()));
        recorder.dump_to(&path).unwrap();
        let path = path.to_str().unwrap().to_string();
        let mut args = vec!["--decode-recorder".to_string(), path.clone()];
        assert_eq!(
            report(&mut ClosedPipe, &mut args),
            Err(Exit(cli::EXIT_CLOSED_PIPE))
        );
        let mut text = Vec::new();
        decode_recorder(&mut text, &path).unwrap();
        assert!(String::from_utf8(text)
            .unwrap()
            .starts_with("flight recorder dump"));
        std::fs::remove_file(&path).ok();
    }
}
