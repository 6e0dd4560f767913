//! Runs every experiment of the paper's evaluation from the declarative
//! scenario files in `scenarios/` and prints the regenerated tables/figures.
//!
//! All tables and figures flow through `ScenarioSpec` + `Runner`: the TOML
//! files expand into a batch of concrete runs that execute in parallel, and
//! `tbp_bench::print_scenario` renders each scenario's reports (the same
//! renderer `run_scenario` uses). The two trace-based narratives (N1
//! warm-up, N2 transient) follow; they step their simulations directly.
//!
//! * `TBP_DURATION=<seconds>` shortens/lengthens the measured window.
//! * `--json` / `--csv` (or `TBP_FORMAT`) emit the structured batch report.
//! * `TBP_SCENARIOS=<dir>` points at an alternative scenario directory.
//!   Without a scenario directory (e.g. outside the repository) the binary
//!   runs the copies of the shipped files embedded in `tbp-core`, so the
//!   batch is the same everywhere. A file that fails to load is an error
//!   (exit 1), never a fallback.
//! * `--cache-dir <dir>` (or `TBP_CACHE_DIR`) memoizes run reports by
//!   content hash: a warm re-run performs zero simulations.
//! * `--shard i/k` executes the i-th of k contiguous slices of the batch and
//!   prints a partial report (JSON) on stdout; `--merge <file>...` merges
//!   such partials back into the full batch (byte-identical to a
//!   single-process run) and renders it.

use tbp_arch::units::{Celsius, Seconds};
use tbp_core::scenario::ScenarioSpec;
use tbp_thermal::package::PackageKind;

/// Sampling step (seconds) of the N2 balancing transient.
const TRANSIENT_STEP: f64 = 0.05;

/// Samples of the N2 transient: 10 s after the policy is enabled.
const TRANSIENT_SAMPLES: u32 = 200;

fn main() {
    tbp_bench::exit_cleanly_on_panic();
    let duration = tbp_bench::measured_duration();
    let specs = load_specs(duration);
    let cli = tbp_bench::batch_cli();
    let Some(batch) = tbp_bench::run_cli_with(&cli, "paper batch", &specs) else {
        return; // shard mode: the partial report went to stdout
    };
    if tbp_bench::emit_structured(&batch) {
        return;
    }
    for spec in &specs {
        tbp_bench::print_scenario(spec, &batch);
    }
    // The two trace-based narratives step their simulations directly, so they
    // are neither shardable nor part of a merged batch — skip them when this
    // invocation only reassembles partial reports.
    if !cli.is_merge() {
        warmup_gradient();
        balancing_transient();
    }
}

/// Loads the scenario files with the measured window set to `duration`,
/// falling back to the embedded shipped files when the directory is missing
/// or holds no scenario. A present-but-broken file exits with an error:
/// silently ignoring it would run something other than what the user
/// pointed at.
fn load_specs(duration: Seconds) -> Vec<ScenarioSpec> {
    let dir = tbp_bench::scenarios_dir();
    let specs = if dir.is_dir() {
        tbp_core::scenario::load_dir(&dir).unwrap_or_else(|e| {
            tbp_bench::fail(format!("cannot load scenarios from {}: {e}", dir.display()))
        })
    } else {
        Vec::new()
    };
    let specs = if specs.is_empty() {
        eprintln!(
            "note: no scenario files in {}; using the embedded shipped files",
            dir.display()
        );
        tbp_core::scenario::shipped()
    } else {
        specs
    };
    specs
        .into_iter()
        .map(|spec| tbp_bench::override_duration(spec, duration))
        .collect()
}

fn spread_of(temps: &[Celsius]) -> f64 {
    let (lo, hi) = temps
        .iter()
        .map(|c| c.as_celsius())
        .fold((f64::MAX, f64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
    hi - lo
}

/// One table row: a time label, each core's temperature and the spread.
fn temperature_row(time: String, temps: &[Celsius]) -> Vec<String> {
    let mut row = vec![time];
    row.extend(temps.iter().map(|c| format!("{:.2}", c.as_celsius())));
    row.push(format!("{:.2}", spread_of(temps)));
    row
}

/// Prints [`temperature_row`]s of the paper's three cores under `title`.
fn print_temperatures(title: &str, time: &str, rows: &[Vec<String>]) {
    let header = [
        time,
        "core0 [°C]",
        "core1 [°C]",
        "core2 [°C]",
        "spread [°C]",
    ];
    tbp_bench::print_table(title, &header, rows);
}

/// Narrative N1: 12.5 s of DVFS-only execution leave the cores stable but
/// about 10 °C apart (paper).
fn warmup_gradient() {
    let mut sim = ScenarioSpec::new("warmup-gradient")
        .with_policy("dvfs-only", 3.0)
        .with_schedule(0.0, 12.5)
        .build()
        .expect("warm-up sim builds");
    let mut rows = Vec::new();
    let mut last = 0.0;
    for t in [1.0, 2.5, 5.0, 7.5, 10.0, 12.5] {
        sim.run_for(Seconds::new(t - last)).expect("warm-up runs");
        last = t;
        rows.push(temperature_row(format!("{t:.1}"), &sim.core_temperatures()));
    }
    print_temperatures(
        "Narrative N1 — DVFS-only warm-up (12.5 s, mobile package)",
        "time [s]",
        &rows,
    );
    let temps = sim.core_temperatures();
    println!(
        "core temperatures: {:.1} / {:.1} / {:.1} °C, gradient {:.1} °C (paper: ~10 °C)",
        temps[0].as_celsius(),
        temps[1].as_celsius(),
        temps[2].as_celsius(),
        spread_of(&temps)
    );
}

/// Narrative N2: after the warm-up, the policy at ±3 °C balances the cores
/// within a second and the hottest core stays above the upper threshold for
/// less than 400 ms (paper).
fn balancing_transient() {
    let threshold = 3.0;
    let mut sim = ScenarioSpec::new("balance-transient")
        .with_package(PackageKind::MobileEmbedded)
        .with_policy("thermal-balancing", threshold)
        .with_schedule(12.5, 10.0)
        .build()
        .expect("transient sim builds");
    sim.run_for(Seconds::new(12.5)).expect("warm-up runs");
    let spread_before = spread_of(&sim.core_temperatures());
    let mut rows = Vec::new();
    let mut balanced_after = None;
    let mut above_time = 0.0;
    for i in 1..=TRANSIENT_SAMPLES {
        sim.run_for(Seconds::new(TRANSIENT_STEP))
            .expect("transient runs");
        let t = f64::from(i) * TRANSIENT_STEP;
        let temps = sim.core_temperatures();
        let mean = temps.iter().map(|c| c.as_celsius()).sum::<f64>() / temps.len() as f64;
        let max = temps
            .iter()
            .map(|c| c.as_celsius())
            .fold(f64::MIN, f64::max);
        if max > mean + threshold {
            above_time += TRANSIENT_STEP;
        }
        if balanced_after.is_none() && spread_of(&temps) <= 2.0 * threshold {
            balanced_after = Some(t);
        }
        // Every 0.5 s for the first 6 s.
        if i % 10 == 0 && i <= 120 {
            rows.push(temperature_row(format!("{t:.1}"), &temps));
        }
    }
    print_temperatures(
        "Narrative N2 — balancing transient (threshold 3 °C, mobile package)",
        "t after enable [s]",
        &rows,
    );
    println!(
        "spread before enabling the policy: {spread_before:.1} °C; balanced (spread ≤ 6 °C) after {} s (paper: < 1 s); time above upper threshold {above_time:.2} s (paper: < 0.4 s)",
        balanced_after
            .map(|t| format!("{t:.2}"))
            .unwrap_or_else(|| "more than 10".into()),
    );
    let summary = sim.summary();
    println!(
        "migrations during the transient: {} ({} KiB)",
        summary.migration.migrations,
        summary.migration.bytes.as_kib()
    );
}
