//! End-to-end and per-layer benchmark for the OP-PIC apps.
//!
//! Three closed-loop workloads run through the library's public entry
//! points — one simulation per process, each step issued when the
//! previous one returns:
//!
//! * `fempic_duct_seq`: `configs/fempic_small.cfg` under `ExecPolicy::Seq`
//!   on one thread;
//! * `fempic_duct_2rank`: the same problem on two in-process ranks;
//! * `cabana_two_stream_seq`: `configs/cabana_two_stream.cfg` under
//!   `ExecPolicy::Seq` on one thread.
//!
//! Untraced runs time the apps' own `step()` on the CPU clock and
//! report the end-to-end metrics; traced runs call each layer's public
//! function from this crate and time it, and time an `ExecPolicy::Par`
//! twin beside the `Seq` simulations. Both spread their time over
//! several child processes of the benchmark's own executable.
//! `METRICS.md` lists every metric.

pub mod cabana_wl;
pub mod fempic_wl;
pub mod host;
pub mod outcome;
pub mod rank2;
pub mod single;
pub mod trace;

use host::Host;
use outcome::{end_to_end, per_layer, Outcome, PerLayer, Segment};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FempicDuctSeq,
    FempicDuct2Rank,
    CabanaTwoStreamSeq,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FempicDuctSeq,
        Workload::FempicDuct2Rank,
        Workload::CabanaTwoStreamSeq,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FempicDuctSeq => "fempic_duct_seq",
            Workload::FempicDuct2Rank => "fempic_duct_2rank",
            Workload::CabanaTwoStreamSeq => "cabana_two_stream_seq",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; expected one of {names:?}")
            })
    }

    /// Threads and ranks the workload runs on `host`; refuses a plan
    /// with more threads or ranks than cores.
    pub fn plan(self, host: &Host) -> Result<(usize, usize), String> {
        let (threads, ranks) = match self {
            // One thread end to end; the traced run's `Par` twin uses
            // every core.
            Workload::FempicDuctSeq | Workload::CabanaTwoStreamSeq => {
                (rayon::current_num_threads(), 1)
            }
            // nproc / ranks threads per rank.
            Workload::FempicDuct2Rank => (
                rank2::RANKS * (host.nproc / rank2::RANKS).max(1),
                rank2::RANKS,
            ),
        };
        host.check_cap(threads, ranks)?;
        Ok((threads, ranks))
    }

    /// Host facts and the plan, for the run's header line.
    fn facts(self, host: &Host, seed: u64, traced: bool) -> Result<String, String> {
        let (threads, ranks) = self.plan(host)?;
        Ok(format!(
            "workload={} seed={seed}{} traced={traced} nproc={} profile={} git={} threads={threads} ranks={ranks}",
            self.name(),
            if self == Workload::CabanaTwoStreamSeq { " (seed-independent)" } else { "" },
            host.nproc,
            host.profile,
            host.git_rev,
        ))
    }
}

/// An untraced run splits its time over this many segments, each in a
/// fresh child process running one simulation. A process keeps one
/// speed level for its whole life, and levels differ between processes
/// (METRICS.md), so a single process per run would measure that draw,
/// not the code.
pub const SEGMENTS: usize = 20;

/// A traced run splits its time over this many parts, each in a fresh
/// child process. Within one process two simulations of one code path
/// can run at different speeds, with a sign that changes from process
/// to process (METRICS.md), so the ratios between them need several
/// processes.
pub const TRACED_PARTS: usize = 8;

/// One untraced segment of `workload` in this process; with `replay`,
/// also check that a second simulation reproduces its counts.
pub fn run_segment(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
    replay: bool,
) -> Result<Segment, String> {
    workload.plan(host)?;
    let budget = Duration::from_secs_f64(seconds);
    Ok(match workload {
        Workload::FempicDuctSeq => single::segment::<fempic_wl::FemDuct>(seed, budget, replay),
        Workload::CabanaTwoStreamSeq => {
            single::segment::<cabana_wl::TwoStream>(seed, budget, replay)
        }
        Workload::FempicDuct2Rank => rank2::segment(seed, budget, host.nproc, replay),
    })
}

/// One part of a traced run of `workload` in this process.
pub fn run_traced_part(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(PerLayer, Outcome), String> {
    workload.plan(host)?;
    let budget = Duration::from_secs_f64(seconds);
    let nproc = host.nproc;
    Ok(match workload {
        Workload::FempicDuctSeq => single::traced_part::<fempic_wl::FemDuct>(seed, budget, nproc),
        Workload::CabanaTwoStreamSeq => {
            single::traced_part::<cabana_wl::TwoStream>(seed, budget, nproc)
        }
        Workload::FempicDuct2Rank => rank2::traced_part(seed, budget, nproc),
    })
}

/// Run `n` child processes of this executable one after another
/// (`--segment <k>`), each measuring `seconds / n`. Returns the index
/// and standard output of each that succeeded; each that did not is a
/// failed operation in `out`.
fn run_children(
    out: &mut Outcome,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    n: usize,
) -> Result<Vec<(usize, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let part = (seconds / n as f64).to_string();
    let seed_arg = seed.to_string();
    let mut texts = Vec::with_capacity(n);
    for k in 0..n {
        let child = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed_arg])
            .args(["--seconds", &part, "--trace", if trace { "1" } else { "0" }])
            .args(["--segment", &k.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child process: {e}"))?;
        if child.status.success() {
            texts.push((k, String::from_utf8_lossy(&child.stdout).into_owned()));
        } else {
            out.verify(Err(format!("child {k}: exited with {}", child.status)));
        }
    }
    Ok(texts)
}

/// Untraced run: [`SEGMENTS`] segments, each in a fresh child process,
/// merged into the end-to-end metrics. The first segment also replays
/// its count window.
pub fn run_untraced(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(workload.facts(host, seed, false)?);
    let mut segments = Vec::with_capacity(SEGMENTS);
    for (k, text) in run_children(&mut out, workload, seed, seconds, false, SEGMENTS)? {
        match Segment::decode(&text) {
            Ok(seg) => segments.push(seg),
            Err(e) => out.verify(Err(format!("segment {k}: {e}"))),
        }
    }
    if !segments.is_empty() {
        end_to_end(&mut out, &segments);
    }
    Ok(out)
}

/// Traced run: [`TRACED_PARTS`] parts, each in a fresh child process,
/// merged into the per-layer metrics.
pub fn run_traced(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(workload.facts(host, seed, true)?);
    let mut parts = Vec::with_capacity(TRACED_PARTS);
    for (k, text) in run_children(&mut out, workload, seed, seconds, true, TRACED_PARTS)? {
        match PerLayer::decode(&text) {
            Ok(part) => parts.push(part),
            Err(e) => out.verify(Err(format!("traced part {k}: {e}"))),
        }
    }
    if !parts.is_empty() {
        per_layer(&mut out, &mut parts);
    }
    Ok(out)
}
