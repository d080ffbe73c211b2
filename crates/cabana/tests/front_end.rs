//! The `cabana` binary's front-end surface: `--print-defaults` and a
//! standard output that closes early.

use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_cabana");

#[test]
fn print_defaults_lists_cabanas_keys() {
    let out = Command::new(BIN).arg("--print-defaults").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with("# CabanaPIC configuration keys and defaults\n"),
        "{text}"
    );
    for key in [
        "nx",
        "ppc",
        "structured",
        "sort_every",
        "rebalance_drift",
        "report_every",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{key} = "))),
            "no {key} in:\n{text}"
        );
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let cfg = std::env::temp_dir().join(format!("oppic_cabana_pipe_{}.cfg", std::process::id()));
    std::fs::write(&cfg, "nx = 4\nny = 4\nnz = 4\nppc = 2\nsteps = 3\n").unwrap();
    let mut child = Command::new(BIN)
        .arg(&cfg)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the first line is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&cfg).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        out.status.code(),
        Some(oppic_obs::cli::EXIT_CLOSED_PIPE),
        "{stderr}"
    );
}
