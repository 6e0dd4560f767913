//! Plain-text rendering of batch reports: one function,
//! [`print_scenario`], prints every table and figure of the paper from the
//! reports of its scenario, so `reproduce_all` and `run_scenario` show the
//! same output for the same scenario file.

use tbp_arch::core::CoreId;
use tbp_arch::freq::DvfsScale;
use tbp_arch::units::Bytes;
use tbp_core::scenario::{AnalysisKind, BatchReport, RunReport, ScenarioSpec, TableReport};
use tbp_os::governor::DvfsGovernor;
use tbp_os::migration::{MigrationCostModel, MigrationStrategy};
use tbp_streaming::sdr::SdrBenchmark;
use tbp_thermal::package::PackageKind;

/// Prints the reports of one scenario with the layout its table or figure
/// uses: analytic tables as computed (Table 2 adds the governor's per-core
/// frequencies, Figure 2 the cost of the 64 KiB minimum transfer), the
/// threshold sweeps as Figures 7+8 / 9+10, the migration-rate sweep as
/// Figure 11, the queue sweep as narrative N3, and any other scenario as one
/// summary row per run. Scenarios without reports in `batch` print nothing.
pub fn print_scenario(spec: &ScenarioSpec, batch: &BatchReport) {
    let reports = batch.group(&spec.name);
    if reports.is_empty() {
        return;
    }
    if let Some(table) = reports[0].table() {
        print_table_report(table);
        match spec.analysis {
            Some(AnalysisKind::Table2Mapping) => print_governor_selection(),
            Some(AnalysisKind::Fig2MigrationCost) => print_minimum_transfer_cost(),
            _ => {}
        }
        return;
    }
    match spec.name.as_str() {
        "threshold-sweep-mobile" => print_sweep_figures(&reports, "mobile embedded", 7, 8),
        "threshold-sweep-hiperf" => print_sweep_figures(&reports, "high-performance", 9, 10),
        "migration-rate" => print_migration_rate(&reports),
        "queue-capacity" => print_queue_capacity(&reports),
        _ => print_table(&spec.name, &SUMMARY_HEADER, &summary_rows(&reports)),
    }
}

/// Prints a table header followed by aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints an analytic table report.
fn print_table_report(table: &TableReport) {
    let header: Vec<&str> = table.header.iter().map(String::as_str).collect();
    print_table(&table.title, &header, &table.rows);
}

/// The distinct non-empty labels of `reports` (e.g. their policies), in
/// first-appearance order.
pub fn distinct_labels<'a>(
    reports: &[&'a RunReport],
    label: impl Fn(&'a RunReport) -> Option<&'a str>,
) -> Vec<&'a str> {
    let mut labels: Vec<&str> = Vec::new();
    for value in reports.iter().filter_map(|r| label(r)) {
        if !labels.contains(&value) {
            labels.push(value);
        }
    }
    labels
}

/// The distinct policies of a report group, in first-appearance order.
fn policy_columns<'a>(reports: &[&'a RunReport]) -> Vec<&'a str> {
    distinct_labels(reports, |r| r.policy.as_deref())
}

/// Pivots simulation reports into a threshold-indexed table with one metric
/// column per policy — the layout of Figures 7–10.
fn pivot_threshold_policy(
    reports: &[&RunReport],
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<Vec<String>> {
    let mut thresholds: Vec<f64> = reports.iter().filter_map(|r| r.threshold).collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
    thresholds.dedup();
    let policies = policy_columns(reports);
    thresholds
        .iter()
        .map(|&threshold| {
            let mut row = vec![format!("{threshold:.0}")];
            for policy in &policies {
                let value = reports
                    .iter()
                    .find(|r| {
                        r.policy.as_deref() == Some(*policy) && r.threshold == Some(threshold)
                    })
                    .map(|r| metric(r))
                    .unwrap_or(f64::NAN);
                row.push(format!("{value:.3}"));
            }
            row
        })
        .collect()
}

/// One summary row per simulation report (generic fallback rendering).
fn summary_rows(reports: &[&RunReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .filter_map(|report| {
            let summary = report.summary()?;
            Some(vec![
                report.scenario.clone(),
                format!("{:.3}", summary.mean_spatial_std_dev()),
                format!("{:.2}", summary.mean_spread()),
                format!("{}", summary.qos.deadline_misses),
                format!("{:.2}", summary.migrations_per_second()),
                format!("{:.0}", summary.migrated_kib_per_second()),
            ])
        })
        .collect()
}

/// Header matching [`summary_rows`].
const SUMMARY_HEADER: [&str; 6] = [
    "scenario",
    "σ [°C]",
    "spread [°C]",
    "misses",
    "migrations/s",
    "KiB/s",
];

fn print_sweep_figures(reports: &[&RunReport], package: &str, sigma_fig: u32, miss_fig: u32) {
    let mut header = vec!["threshold [°C]"];
    header.extend(policy_columns(reports));
    let sigma_rows = pivot_threshold_policy(reports, |r| {
        r.summary().map_or(f64::NAN, |s| s.mean_spatial_std_dev())
    });
    print_table(
        &format!("Figure {sigma_fig} — temperature σ [°C] vs threshold ({package} package)"),
        &header,
        &sigma_rows,
    );
    let miss_rows = pivot_threshold_policy(reports, |r| {
        r.summary()
            .map_or(f64::NAN, |s| s.qos.deadline_misses as f64)
    });
    print_table(
        &format!("Figure {miss_fig} — deadline misses vs threshold ({package} package)"),
        &header,
        &miss_rows,
    );
}

fn print_migration_rate(reports: &[&RunReport]) {
    let of_package = |package: PackageKind| -> Vec<&RunReport> {
        reports
            .iter()
            .copied()
            .filter(|r| r.package == Some(package))
            .collect()
    };
    let mobile = of_package(PackageKind::MobileEmbedded);
    let hiperf = of_package(PackageKind::HighPerformance);
    let rows: Vec<Vec<String>> = mobile
        .iter()
        .zip(&hiperf)
        .filter_map(|(m, h)| {
            let (ms, hs) = (m.summary()?, h.summary()?);
            Some(vec![
                format!("{:.0}", m.threshold.unwrap_or(f64::NAN)),
                format!("{:.2}", ms.migrations_per_second()),
                format!("{:.0}", ms.migrated_kib_per_second()),
                format!("{:.2}", hs.migrations_per_second()),
                format!("{:.0}", hs.migrated_kib_per_second()),
            ])
        })
        .collect();
    print_table(
        "Figure 11 — migrations per second vs threshold (thermal balancing policy)",
        &[
            "threshold [°C]",
            "mobile [1/s]",
            "mobile [KiB/s]",
            "high-perf [1/s]",
            "high-perf [KiB/s]",
        ],
        &rows,
    );
}

fn print_queue_capacity(reports: &[&RunReport]) {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|r| {
            let s = r.summary()?;
            Some(vec![
                format!("{}", r.queue_capacity.unwrap_or(0)),
                format!("{}", s.qos.deadline_misses),
                format!("{}", s.qos.min_queue_level),
                format!("{:.1}", s.qos.mean_queue_level),
                format!("{}", s.migration.migrations),
            ])
        })
        .collect();
    print_table(
        "Queue capacity sweep (thermal balancing, 1 °C threshold, high-performance package)",
        &[
            "queue size [frames]",
            "deadline misses",
            "min queue level",
            "mean queue level",
            "migrations",
        ],
        &rows,
    );
}

/// Table 2's per-core totals plus the frequency the DVFS governor picks for
/// each core's load.
fn print_governor_selection() {
    let sdr = SdrBenchmark::paper_default();
    let governor = DvfsGovernor::new(DvfsScale::paper_default());
    let rows: Vec<Vec<String>> = (0..3)
        .map(|core| {
            let on_core = || sdr.mapping().iter().filter(move |e| e.core == CoreId(core));
            let fse: f64 = on_core().map(|e| e.fse_load()).sum();
            let util: f64 = on_core().map(|e| e.load_percent).sum();
            vec![
                format!("Core {}", core + 1),
                format!("{util:.1}"),
                format!("{fse:.3}"),
                format!("{}", governor.frequency_for(fse)),
            ]
        })
        .collect();
    print_table(
        "Per-core totals and governor frequency selection",
        &[
            "core",
            "Table 2 load [%]",
            "total FSE",
            "governor frequency",
        ],
        &rows,
    );
}

/// Figure 2's headline number: the CPU time of one minimum-size migration.
fn print_minimum_transfer_cost() {
    let model = MigrationCostModel::paper_default();
    println!(
        "\nReplication of the 64 KiB minimum transfer costs {:.2} ms of CPU time at 500 MHz.",
        model.cycles(MigrationStrategy::TaskReplication, Bytes::from_kib(64)) / 500e6 * 1e3
    );
}
