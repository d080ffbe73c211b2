//! The apps' shared front end (`oppic_obs::cli`) end to end: each
//! app's `tiny()` config runs through the one run loop with a JSONL
//! sink and the watchdog armed, as `<app> --telemetry <path>
//! --watchdog` does.

use op_pic::analyzer::audit_telemetry;
use op_pic::cabana::{CabanaConfig, CabanaPic, StructuredCabana};
use op_pic::core::Simulation;
use op_pic::fempic::{FemPic, FemPicConfig};
use op_pic::obs::cli::{App, Cli};
use op_pic::obs::ObsArgs;
use std::path::PathBuf;

/// Five steps: the watchdog's wall-time rule arms only after five
/// warm-up steps, so the verdict cannot depend on host load, while the
/// alive-count rule checks the loop's `StepObs` every step.
const STEPS: usize = 5;

fn cli(tag: &str) -> (Cli, PathBuf) {
    let sink = std::env::temp_dir().join(format!(
        "oppic_front_end_{tag}_{}.jsonl",
        std::process::id()
    ));
    let cli = Cli {
        telemetry: Some(sink.clone()),
        obs: ObsArgs {
            watchdog: true,
            ..ObsArgs::default()
        },
        ..Cli::default()
    };
    (cli, sink)
}

/// The run must end with status 0, the watchdog with no alert, and
/// the stream must pass the analyzer's telemetry audit.
fn check_run(stdout: Vec<u8>, sink: PathBuf, lines: &[&str]) {
    let stdout = String::from_utf8(stdout).unwrap();
    for line in lines {
        assert!(stdout.contains(line), "no {line:?} in:\n{stdout}");
    }
    assert!(stdout.contains("MainLoop TotalTime"), "{stdout}");
    assert!(stdout.ends_with("watchdog: 0 alert(s)\n"), "{stdout}");
    let stream = std::fs::read_to_string(&sink).unwrap();
    std::fs::remove_file(&sink).ok();
    let report = audit_telemetry(&stream);
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn fempic_runs_through_the_shared_loop() {
    let (cli, sink) = cli("fempic");
    let mut sim = FemPic::new(FemPicConfig::tiny());
    let app = App::new(
        "fempic",
        &sim.cfg,
        sim.cfg.policy.threads(),
        sim.profiler.telemetry(),
    );
    let mut out = Vec::new();
    let r = cli.run(&mut out, &mut sim, &app, STEPS, 2, |s| {
        format!("step {} alive {}", s.step_count(), s.n_particles())
    });
    assert_eq!(r, Ok(()));
    let alive = sim.n_particles();
    check_run(
        out,
        sink,
        &["step 2 alive", &format!("step {STEPS} alive {alive}")],
    );
}

#[test]
fn cabana_runs_through_the_shared_loop_on_both_topologies() {
    fn go<T: op_pic::cabana::Topology>(tag: &str, mut sim: op_pic::cabana::CabanaEngine<T>) {
        let (cli, sink) = cli(tag);
        let mut app = App::new(
            "cabana",
            &sim.cfg,
            sim.cfg.policy.threads(),
            sim.profiler.telemetry(),
        );
        app.info
            .extra
            .push(("topology".into(), sim.topo.name().to_string()));
        let mut out = Vec::new();
        let r = cli.run(&mut out, &mut sim, &app, STEPS, STEPS, |s| {
            format!("step {} E {:e}", s.step_count(), s.energies().e_field)
        });
        assert_eq!(r, Ok(()));
        check_run(out, sink, &[&format!("step {STEPS} E ")]);
    }
    go("cabana_dsl", CabanaPic::new_dsl(CabanaConfig::tiny()));
    go(
        "cabana_structured",
        StructuredCabana::new_structured(CabanaConfig::tiny()),
    );
}
