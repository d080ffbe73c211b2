//! The one front end of the app binaries (DESIGN.md §6): `fempic` and
//! `cabana` share its flags, telemetry sink, observability plane, run
//! loop and exit codes. Each binary keeps only its config keys, its
//! banner and report line, and its calls into the analyzer.
//!
//! ```text
//! <app> [config.cfg] [--validate [--strict]] [--telemetry <run.jsonl>]
//!       [--record-schedule <trace.json>] [--print-defaults] [ObsArgs flags]
//! ```
//!
//! The loop drives an app through [`Simulation`]: `advance` steps it,
//! `n_particles` and `last_step_flux` feed the plane's [`StepObs`], and
//! `invariants` is the end-of-run check.
//!
//! Exit status: 0 on success; 1 on an invariant violation (under
//! `--validate`: the analyzer report's exit code); 2 for a flag,
//! config or I/O error; 3 when the watchdog raised alerts;
//! [`EXIT_CLOSED_PIPE`] when the reader of standard output went away.

use crate::{ObsArgs, ObsPlane, StepObs};
use oppic_core::schedule::ScheduleTrace;
use oppic_core::telemetry::{fnv1a, RunInfo, Telemetry};
use oppic_core::{Params, Simulation};
use std::fmt::{Debug, Display};
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit status once the reader of standard output has closed it
/// (`| head`): 128 + SIGPIPE, what a shell reports for a program that
/// SIGPIPE ended. The run stops at the first failed write, quietly.
pub const EXIT_CLOSED_PIPE: i32 = 141;

/// A front end that stops before its normal end, as the process exit
/// status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit(pub i32);

impl From<io::Error> for Exit {
    /// A failed write to standard output: a closed pipe stops quietly
    /// with [`EXIT_CLOSED_PIPE`], any other error is reported and
    /// exits 2.
    fn from(e: io::Error) -> Exit {
        if e.kind() == ErrorKind::BrokenPipe {
            Exit(EXIT_CLOSED_PIPE)
        } else {
            fail(format_args!("error: cannot write output: {e}"))
        }
    }
}

/// End the process with `r`'s status (0 for `Ok`).
pub fn exit(r: Result<(), Exit>) -> ! {
    std::process::exit(r.err().map_or(0, |Exit(code)| code))
}

/// Report `msg` on standard error; exit status 2.
fn fail(msg: impl Display) -> Exit {
    eprintln!("{msg}");
    Exit(2)
}

/// Strip every `flag` from `args`; true if there was one.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let had = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    had
}

/// Strip `flag <value>` from `args`, returning the value.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// The command line both app binaries accept.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// `--validate`: a few warm-up steps, then the analyzer passes.
    pub validate: bool,
    /// `--strict`: under `--validate`, Warn findings fail the run too.
    pub strict: bool,
    /// `--print-defaults`: print every config key with its default,
    /// as a config file, instead of running.
    pub print_defaults: bool,
    /// `--telemetry <path>`: the JSONL event sink.
    pub telemetry: Option<PathBuf>,
    /// `--record-schedule <path>`: write the step schedule and stop.
    pub record_schedule: Option<PathBuf>,
    pub obs: ObsArgs,
    /// The config file: the first argument the flags leave.
    pub config: Option<String>,
}

impl Cli {
    /// Strip the shared flags out of `args` (`args[0]` is the program).
    /// Everything else, the config path included, stays for the app.
    pub fn extract(args: &mut Vec<String>) -> Result<Cli, String> {
        Ok(Cli {
            validate: take_flag(args, "--validate"),
            strict: take_flag(args, "--strict"),
            print_defaults: take_flag(args, "--print-defaults"),
            telemetry: take_value(args, "--telemetry")?.map(PathBuf::from),
            record_schedule: take_value(args, "--record-schedule")?.map(PathBuf::from),
            obs: ObsArgs::extract(args)?,
            config: args.get(1).cloned(),
        })
    }

    /// The process's command line; a malformed flag exits 2.
    pub fn from_env() -> Cli {
        let mut args: Vec<String> = std::env::args().collect();
        Cli::extract(&mut args).unwrap_or_else(|e| exit(Err(fail(format_args!("error: {e}")))))
    }

    /// Load the config file (every default when there is none) and
    /// `parse` it. Under `--print-defaults`, `parse` an empty file
    /// instead, print a `key = default` line for every key it read (a
    /// `# key = formula` comment for a derived default), and stop with
    /// status 0.
    pub fn config<T>(
        &self,
        out: &mut impl Write,
        title: &str,
        parse: impl FnOnce(&Params) -> Result<T, String>,
    ) -> Result<T, Exit> {
        let params = match &self.config {
            Some(path) if !self.print_defaults => {
                Params::load(path).map_err(|e| fail(format_args!("error: {e}")))?
            }
            _ => Params::default(),
        };
        let parsed = parse(&params).map_err(|e| fail(format_args!("config error: {e}")))?;
        if !self.print_defaults {
            return Ok(parsed);
        }
        writeln!(out, "# {title} configuration keys and defaults")?;
        for line in params.defaults() {
            writeln!(out, "{line}")?;
        }
        Err(Exit(0))
    }

    /// Open the `--telemetry` sink on `app`'s hub, its header saying
    /// how many steps follow.
    fn attach(&self, app: &App, steps: usize) -> Result<(), Exit> {
        let Some(path) = &self.telemetry else {
            return Ok(());
        };
        let mut info = app.info.clone();
        info.extra.insert(0, ("steps".into(), steps.to_string()));
        app.tel.attach_sink(path, &info).map_err(|e| {
            fail(format_args!(
                "error: cannot open telemetry sink {}: {e}",
                path.display()
            ))
        })
    }

    /// `--validate` mode: `warmup` steps populate the dynamic maps,
    /// then `audit` returns the text to print (loop plans and the
    /// analyzer's report) and the report's exit code, which ends the
    /// run.
    pub fn validate<S: Simulation>(
        &self,
        out: &mut impl Write,
        sim: &mut S,
        app: &App,
        warmup: usize,
        audit: impl FnOnce(&S) -> (String, i32),
    ) -> Result<(), Exit> {
        self.attach(app, warmup)?;
        for _ in 0..warmup {
            sim.advance();
        }
        let (text, code) = audit(sim);
        writeln!(out, "{text}")?;
        finish_sink(&app.tel)?;
        match code {
            0 => Ok(()),
            code => Err(Exit(code)),
        }
    }

    /// Run mode: `steps` steps under the sink and the plane, with
    /// `report(sim)` every `report_every` steps and after the last,
    /// then the main-loop time and the kernel breakdown. Ends with the
    /// invariant check and the watchdog's verdict.
    pub fn run<S: Simulation>(
        &self,
        out: &mut impl Write,
        sim: &mut S,
        app: &App,
        steps: usize,
        report_every: usize,
        report: impl Fn(&S) -> String,
    ) -> Result<(), Exit> {
        self.attach(app, steps)?;
        let mut plane = self
            .obs
            .build(&app.tel, &app.info.app, app.info.threads)
            .map_err(|e| fail(format_args!("error: observability plane: {e}")))?;
        if let Some(addr) = plane.as_ref().and_then(ObsPlane::metrics_addr) {
            writeln!(out, "metrics: serving http://{addr}/metrics")?;
        }
        let t0 = Instant::now();
        for s in 1..=steps {
            let st = Instant::now();
            if self.obs.inject_stall_step == Some(s as u64) {
                // Negative control for the watchdog: a deliberate stall
                // inside the timed window (see `ci.sh obs`).
                std::thread::sleep(Duration::from_millis(300));
            }
            sim.advance();
            let ms = st.elapsed().as_secs_f64() * 1e3;
            if let Some(plane) = plane.as_mut() {
                let (injected, removed) = sim.last_step_flux();
                plane.on_step(StepObs {
                    step: s as u64,
                    ms,
                    alive: sim.n_particles() as u64,
                    injected: injected as u64,
                    removed: removed as u64,
                });
            }
            if s % report_every == 0 || s == steps {
                writeln!(out, "{}", report(sim))?;
            }
        }
        writeln!(
            out,
            "\nMainLoop TotalTime = {:.4} s",
            t0.elapsed().as_secs_f64()
        )?;
        write!(out, "{}", app.tel.breakdown_table())?;
        finish_sink(&app.tel)?;
        if let Err(e) = sim.invariants() {
            eprintln!("INVARIANT VIOLATION: {e}");
            return Err(Exit(1));
        }
        let Some(mut plane) = plane else {
            return Ok(());
        };
        let summary = plane
            .finish()
            .map_err(|e| fail(format_args!("error: observability plane: {e}")))?;
        writeln!(out, "watchdog: {} alert(s)", summary.alerts.len())?;
        for a in &summary.alerts {
            eprintln!("  [{}] step {}: {}", a.rule, a.step, a.message);
        }
        match summary.alerts.len() {
            0 => Ok(()),
            _ => Err(Exit(3)),
        }
    }
}

/// The warm-up steps of `--validate` and the steps `--record-schedule`
/// records: `steps`, clamped to 1..=5.
pub fn warmup(steps: usize) -> usize {
    steps.clamp(1, 5)
}

/// `--record-schedule` mode: write the [`warmup`]`(steps)`-step trace
/// that `record` returns to `path` as `oppic-schedule-v1` JSON, for
/// `oppic-analyzer --audit-schedule`.
pub fn record_schedule(
    out: &mut impl Write,
    title: &str,
    path: &Path,
    steps: usize,
    record: impl FnOnce(usize) -> ScheduleTrace,
) -> Result<(), Exit> {
    let steps = warmup(steps);
    let trace = record(steps);
    std::fs::write(path, trace.to_json()).map_err(|e| {
        fail(format_args!(
            "error: cannot write schedule trace {}: {e}",
            path.display()
        ))
    })?;
    let events = trace.events.len();
    writeln!(
        out,
        "{title} --record-schedule: {steps} step(s), {events} event(s) -> {}",
        path.display()
    )?;
    Ok(())
}

fn finish_sink(tel: &Telemetry) -> Result<(), Exit> {
    tel.finish()
        .map_err(|e| fail(format_args!("error: telemetry sink: {e}")))
}

/// One app instance as the front end sees it: its hub, and the run
/// header's fields (each mode adds `steps` first).
#[derive(Debug, Clone)]
pub struct App {
    pub tel: Arc<Telemetry>,
    pub info: RunInfo,
}

impl App {
    /// `name` labels the header and the plane; the header's config
    /// hash is the FNV-1a of `cfg`'s `Debug` text.
    pub fn new(name: &str, cfg: &impl Debug, threads: usize, tel: &Arc<Telemetry>) -> App {
        App {
            tel: tel.clone(),
            info: RunInfo {
                app: name.into(),
                config_hash: format!("{:016x}", fnv1a(format!("{cfg:?}").as_bytes())),
                threads,
                extra: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_shared_flag_is_stripped_and_the_rest_is_left() {
        let mut a = args(&[
            "app",
            "run.cfg",
            "--validate",
            "--strict",
            "--unknown",
            "--telemetry",
            "t.jsonl",
            "--record-schedule",
            "s.json",
            "--print-defaults",
            "--watchdog",
            "--flight-recorder",
            "fr.opfr",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-dump",
            "m.prom",
            "--obs-inject-stall",
            "4",
            "extra",
        ]);
        let cli = Cli::extract(&mut a).unwrap();
        assert_eq!(a, args(&["app", "run.cfg", "--unknown", "extra"]));
        assert!(cli.validate && cli.strict && cli.print_defaults);
        assert_eq!(cli.telemetry.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!(cli.record_schedule.as_deref(), Some(Path::new("s.json")));
        assert_eq!(cli.config.as_deref(), Some("run.cfg"));
        assert!(cli.obs.watchdog);
        assert_eq!(
            cli.obs.flight_recorder.as_deref(),
            Some(Path::new("fr.opfr"))
        );
        assert_eq!(cli.obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.obs.metrics_dump.as_deref(), Some(Path::new("m.prom")));
        assert_eq!(cli.obs.inject_stall_step, Some(4));

        let mut bare = args(&["app"]);
        let cli = Cli::extract(&mut bare).unwrap();
        assert!(!cli.validate && !cli.print_defaults && !cli.obs.enabled());
        assert_eq!(cli.config, None);
    }

    #[test]
    fn a_missing_value_reads_the_same_for_every_flag() {
        for flag in [
            "--telemetry",
            "--record-schedule",
            "--flight-recorder",
            "--metrics-addr",
            "--metrics-dump",
            "--obs-inject-stall",
        ] {
            let err = Cli::extract(&mut args(&["app", "--validate", flag])).unwrap_err();
            assert_eq!(err, format!("{flag} requires a value"));
        }
    }

    /// A config with two keys, as an app's `config_from` reads them.
    fn two_keys(p: &Params) -> Result<(usize, f64), String> {
        let cfg = (p.get_usize("nx", 16)?, p.get_f64("dt", 0.5)?);
        p.check_all_read()?;
        Ok(cfg)
    }

    #[test]
    fn print_defaults_lists_the_keys_and_stops_with_status_0() {
        let cli = Cli {
            print_defaults: true,
            config: Some("/nonexistent/oppic.cfg".into()),
            ..Cli::default()
        };
        let mut out = Vec::new();
        let r = cli.config(&mut out, "App", two_keys);
        assert_eq!(r, Err(Exit(0)));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# App configuration keys and defaults\nnx = 16\ndt = 0.5\n"
        );
    }

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
    fn a_closed_stdout_stops_quietly_with_the_pipe_status() {
        let cli = Cli {
            print_defaults: true,
            ..Cli::default()
        };
        let r = cli.config(&mut ClosedPipe, "App", two_keys);
        assert_eq!(r, Err(Exit(EXIT_CLOSED_PIPE)));
        let other = Exit::from(io::Error::from(ErrorKind::PermissionDenied));
        assert_eq!(other, Exit(2));
    }

    #[test]
    fn config_errors_exit_2() {
        let cli = Cli {
            config: Some("/nonexistent/oppic.cfg".into()),
            ..Cli::default()
        };
        let r = cli.config(&mut Vec::new(), "App", two_keys);
        assert_eq!(r, Err(Exit(2)));
        let r: Result<(), Exit> = Cli::default().config(&mut Vec::new(), "App", |_| {
            Err("unknown parameter 'x'".into())
        });
        assert_eq!(r, Err(Exit(2)));
    }
}
