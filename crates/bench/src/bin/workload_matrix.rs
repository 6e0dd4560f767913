//! The cross-workload policy matrix: every policy × every workload family.
//!
//! One declarative spec expands into the full grid — 4 workloads (`sdr`,
//! `synthetic`, `video-analytics`, `dag`) × 3 policies — and the tables
//! pivot the reports per workload so the policies' behaviour can be compared
//! *across* application shapes, not just on the paper's SDR benchmark.
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin workload_matrix -- --cache-dir .tbp-cache
//! ```
//!
//! Accepts the shared batch flags (`--json`/`--csv`, `--cache-dir`,
//! `--shard i/k`, `--merge`) and `TBP_DURATION`.

use tbp_core::scenario::{RunReport, ScenarioSpec, SweepSpec, WorkloadKind};

fn main() {
    let duration = tbp_bench::measured_duration();
    let spec = ScenarioSpec::new("workload-matrix")
        .with_description("All three policies across the four workload families")
        .with_policy("thermal-balancing", 2.0)
        .with_schedule(6.0, duration.as_secs())
        .with_sweep(
            SweepSpec::default()
                .with_workloads([
                    WorkloadKind::Sdr,
                    WorkloadKind::Synthetic,
                    WorkloadKind::VideoAnalytics,
                    WorkloadKind::Dag,
                ])
                .with_policies(["thermal-balancing", "stop-and-go", "energy-balancing"]),
        );
    let Some(batch) = tbp_bench::run_cli("workload matrix", &[spec]) else {
        return; // shard mode: the partial report went to stdout
    };
    if tbp_bench::emit_structured(&batch) {
        return;
    }

    let reports: Vec<&RunReport> = batch.reports.iter().collect();
    let policies = tbp_bench::distinct_labels(&reports, |r| r.policy.as_deref());
    let mut header = vec!["workload"];
    header.extend(policies.iter().copied());

    let workloads = tbp_bench::distinct_labels(&reports, |r| r.workload.as_deref());
    let pivot = |metric: &dyn Fn(&RunReport) -> f64| -> Vec<Vec<String>> {
        workloads
            .iter()
            .map(|workload| {
                let mut row = vec![workload.to_string()];
                for policy in &policies {
                    let value = reports
                        .iter()
                        .find(|r| {
                            r.workload.as_deref() == Some(*workload)
                                && r.policy.as_deref() == Some(*policy)
                        })
                        .map(|r| metric(r))
                        .unwrap_or(f64::NAN);
                    row.push(format!("{value:.3}"));
                }
                row
            })
            .collect()
    };

    tbp_bench::print_table(
        "Temperature σ [°C] per workload × policy",
        &header,
        &pivot(&|r| r.summary().map_or(f64::NAN, |s| s.mean_spatial_std_dev())),
    );
    tbp_bench::print_table(
        "Deadline misses per workload × policy (flat workloads have no deadlines)",
        &header,
        &pivot(&|r| {
            r.summary()
                .map_or(f64::NAN, |s| s.qos.deadline_misses as f64)
        }),
    );
    tbp_bench::print_table(
        "Migrations per second per workload × policy",
        &header,
        &pivot(&|r| r.summary().map_or(f64::NAN, |s| s.migrations_per_second())),
    );
}
