//! Exit-code hygiene of the batch and sweep binaries.
//!
//! A binary greeting a typo with a panic backtrace (or worse, exit code 0)
//! breaks every shell script built on top of it. The convention pinned here:
//! usage errors exit 2, runtime failures exit 1, and every failure prints a
//! one-line `error:` diagnostic to stderr — never an unwrap panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin(path: &str) -> Command {
    Command::new(path)
}

fn scenario_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name)
}

fn scenario() -> PathBuf {
    scenario_file("10_table1_power.toml")
}

fn run(mut cmd: Command) -> Output {
    cmd.output().expect("binary spawns")
}

/// Asserts the run failed with `code`, printed exactly one `error:` line on
/// stderr and no panic backtrace.
fn assert_clean_failure(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "expected exit code {code}; stderr:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "expected a one-line `error:` diagnostic; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "diagnostic should mention `{needle}`; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked at") && !stderr.contains("RUST_BACKTRACE"),
        "no panic output allowed; stderr:\n{stderr}"
    );
}

#[test]
fn run_scenario_rejects_unknown_flags_with_exit_2() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario()).arg("--frobnicate");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");
}

#[test]
fn run_scenario_without_files_prints_usage_with_exit_2() {
    let out = run(bin(env!("CARGO_BIN_EXE_run_scenario")));
    assert_clean_failure(&out, 2, "usage: run_scenario");
}

#[test]
fn run_scenario_reports_a_missing_file_with_exit_1() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg("no/such/scenario.toml");
    let out = run(cmd);
    assert_clean_failure(&out, 1, "cannot load scenario no/such/scenario.toml");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("no/such/scenario.toml").count(),
        1,
        "{stderr}"
    );
}

#[test]
fn run_scenario_reports_an_unwritable_trace_dir_with_exit_1() {
    // A regular file where the trace directory should go fails the batch at
    // runtime: that is exit 1, not the usage code.
    let file = std::env::temp_dir().join(format!("tbp_trace_dir_is_a_file_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("file writes");
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.env("TBP_DURATION", "0.1")
        .arg(scenario_file("40_threshold_sweep_mobile.toml"))
        .arg("--trace-dir")
        .arg(&file);
    let out = run(cmd);
    let _ = std::fs::remove_file(&file);
    assert_clean_failure(&out, 1, "create trace dir");
}

#[test]
fn run_scenario_turns_shared_parser_panics_into_exit_2() {
    // --cache-dir without a value panics inside the shared flag parser; the
    // binary's panic hook must turn that into a clean usage failure.
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario()).arg("--cache-dir");
    assert_clean_failure(&run(cmd), 2, "--cache-dir needs a directory");
}

#[test]
fn sweep_coord_requires_listen_and_rejects_bad_flags() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario());
    assert_clean_failure(&run(cmd), 2, "--listen is required");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--bogus"]);
    assert_clean_failure(&run(cmd), 2, "unknown flag `--bogus`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--fault", "explode=1"]);
    assert_clean_failure(&run(cmd), 2, "unknown fault kind `explode`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--lease-timeout", "never"]);
    assert_clean_failure(&run(cmd), 2, "positive duration in seconds");
}

#[test]
fn sweep_worker_requires_connect_and_reports_missing_files() {
    let out = run(bin(env!("CARGO_BIN_EXE_sweep_worker")));
    assert_clean_failure(&out, 2, "usage: sweep_worker");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_worker"));
    cmd.arg("no/such/scenario.toml")
        .args(["--connect", "127.0.0.1:1"]);
    assert_clean_failure(&run(cmd), 1, "cannot load scenario");
}

#[test]
fn sweep_worker_reports_an_unreachable_coordinator_with_exit_1() {
    // Port 1 refuses immediately; a zero retry budget keeps the test fast.
    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_worker"));
    cmd.arg(scenario()).args([
        "--connect",
        "127.0.0.1:1",
        "--retries",
        "0",
        "--backoff-base",
        "1",
        "--backoff-cap",
        "2",
    ]);
    assert_clean_failure(&run(cmd), 1, "coordinator unreachable");
}

#[test]
fn reproduce_all_reports_a_broken_scenario_file_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("tbp_broken_scenarios_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scenario dir creates");
    std::fs::write(
        dir.join("10_broken.toml"),
        "name = \"broken\"\n[schedule]\nduration = -1.0\n",
    )
    .expect("scenario file writes");
    let mut cmd = bin(env!("CARGO_BIN_EXE_reproduce_all"));
    cmd.env("TBP_SCENARIOS", &dir).env("TBP_DURATION", "1");
    let out = run(cmd);
    let _ = std::fs::remove_dir_all(&dir);
    assert_clean_failure(&out, 1, "10_broken.toml");
    assert_clean_failure(&out, 1, "schedule.duration");
    // The file and the error class are each named once.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("10_broken.toml").count(), 1, "{stderr}");
    assert_eq!(
        stderr.matches("invalid scenario specification").count(),
        1,
        "{stderr}"
    );
}

#[test]
fn a_malformed_duration_is_a_usage_error_with_exit_2() {
    // Not a number, not finite or not above zero: each must stop before any
    // simulation instead of running a default or clamped window.
    for raw in ["abc", "nan", "inf", "-3"] {
        let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
        cmd.env("TBP_DURATION", raw)
            .arg(scenario_file("95_phased_reconfig.toml"))
            .arg("--csv");
        assert_clean_failure(&run(cmd), 2, "TBP_DURATION");

        let mut cmd = bin(env!("CARGO_BIN_EXE_reproduce_all"));
        cmd.env("TBP_DURATION", raw).arg("--csv");
        assert_clean_failure(&run(cmd), 2, "TBP_DURATION");
    }
}
