//! Serves a distributed sweep: lease-based coordinator over TCP.
//!
//! Loads the given scenario files exactly like `run_scenario`, binds the
//! listen address and hands the batch's expanded scenarios out to
//! `sweep_worker` processes one lease at a time. When every scenario has a
//! result, prints the merged batch report — byte-identical to running the
//! same files through `run_scenario` in one process (see
//! `docs/DISTRIBUTED.md` for the protocol and the failure matrix):
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin sweep_coord -- \
//!     scenarios/90_dag_sweep.toml --listen 127.0.0.1:4750 --csv
//! ```
//!
//! Flags:
//!
//! * `--listen <host:port>` (required) — address to serve on.
//! * `--lease-timeout <s>` — lease lifetime granted at issue and renewed on
//!   every heartbeat (default 5).
//! * `--timeout <s>` — give up when the batch has not completed after this
//!   long (default: wait forever).
//! * `--fault <spec>` — deterministic fault injection on outgoing frames,
//!   e.g. `drop=3,corrupt=7` (see `FaultPlan::parse`).
//! * `--json` / `--csv` — structured report instead of tables.
//! * `--metrics <file>` / `--metrics-prom <file>` — live `sweepd.*`
//!   instruments (leases granted/expired/reclaimed, results, queue depth,
//!   connected workers) as a JSONL heartbeat / one-shot Prometheus dump.
//!
//! `TBP_DURATION` applies the same duration override as `run_scenario` —
//! workers must run with the identical environment, or the handshake's batch
//! digest check will refuse them.

use std::path::PathBuf;
use std::time::Duration;

use tbp_bench::{fail, fail_usage, MetricsOutputs};
use tbp_sweepd::{CoordConfig, CoordMetrics, Coordinator, FaultPlan};

fn main() {
    tbp_bench::exit_cleanly_on_panic();
    let cli = Cli::parse(std::env::args().skip(1));
    let specs = tbp_bench::load_scenarios(&cli.paths);
    let config = CoordConfig {
        lease_timeout: cli.lease_timeout,
        completion_timeout: cli.timeout,
        fault: cli.fault,
        ..CoordConfig::default()
    };
    let obs = match (&cli.metrics, &cli.metrics_prom) {
        (None, None) => None,
        (metrics, prom) => Some(
            MetricsOutputs::start(metrics.as_deref(), prom.as_deref())
                .unwrap_or_else(|e| fail(format!("cannot create metrics file: {e}"))),
        ),
    };
    let mut coordinator = Coordinator::bind(&cli.listen, &specs, config)
        .unwrap_or_else(|e| fail(format!("cannot serve on {}: {e}", cli.listen)));
    if let Some(obs) = &obs {
        coordinator = coordinator.with_metrics(CoordMetrics::register(obs.registry()));
    }
    let addr = coordinator
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| cli.listen.clone());
    eprintln!(
        "[coord] serving {} scenarios on {addr}",
        coordinator.total()
    );
    let result = tbp_bench::timed("coord", || coordinator.run());
    if let Some(obs) = obs {
        obs.finish();
    }
    let batch = result.unwrap_or_else(|e| fail(format!("sweep failed: {e}")));
    if tbp_bench::emit_structured(&batch) {
        return;
    }
    for spec in &specs {
        tbp_bench::print_scenario(spec, &batch);
    }
}

const USAGE: &str = "usage: sweep_coord <scenario.toml>... --listen <host:port> \
                     [--lease-timeout <s>] [--timeout <s>] [--fault <spec>] \
                     [--json|--csv] [--metrics <file>] [--metrics-prom <file>]";

struct Cli {
    paths: Vec<PathBuf>,
    listen: String,
    lease_timeout: Duration,
    timeout: Option<Duration>,
    fault: FaultPlan,
    metrics: Option<PathBuf>,
    metrics_prom: Option<PathBuf>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut paths = Vec::new();
        let mut listen = None;
        let mut lease_timeout = Duration::from_secs(5);
        let mut timeout = None;
        let mut fault = FaultPlan::none();
        let mut metrics = None;
        let mut metrics_prom = None;
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--listen" => listen = Some(flag_value(&mut args, "--listen")),
                "--lease-timeout" => {
                    lease_timeout = parse_seconds(&flag_value(&mut args, "--lease-timeout"));
                }
                "--timeout" => {
                    timeout = Some(parse_seconds(&flag_value(&mut args, "--timeout")));
                }
                "--fault" => {
                    let spec = flag_value(&mut args, "--fault");
                    fault = FaultPlan::parse(&spec).unwrap_or_else(|e| fail_usage(e));
                }
                "--metrics" => {
                    metrics = Some(PathBuf::from(flag_value(&mut args, "--metrics")));
                }
                "--metrics-prom" => {
                    metrics_prom = Some(PathBuf::from(flag_value(&mut args, "--metrics-prom")));
                }
                "--json" | "--csv" => {}
                other if other.starts_with("--") => {
                    fail_usage(format!("unknown flag `{other}`\n{USAGE}"))
                }
                other => paths.push(PathBuf::from(other)),
            }
        }
        if paths.is_empty() {
            fail_usage(USAGE);
        }
        let Some(listen) = listen else {
            fail_usage(format!("--listen is required\n{USAGE}"));
        };
        Cli {
            paths,
            listen,
            lease_timeout,
            timeout,
            fault,
            metrics,
            metrics_prom,
        }
    }
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => fail_usage(format!("{flag} needs a value\n{USAGE}")),
    }
}

fn parse_seconds(value: &str) -> Duration {
    match value.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Duration::from_secs_f64(secs),
        _ => fail_usage(format!(
            "expected a positive duration in seconds, got `{value}`"
        )),
    }
}
