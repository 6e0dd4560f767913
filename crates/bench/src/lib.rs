//! # tbp-bench — experiment harness for the DATE 2008 reproduction
//!
//! The binaries in `src/bin/` load [`ScenarioSpec`]s from the workspace's
//! `scenarios/` TOML files (the only definition of the paper's scenarios),
//! hand them to the parallel [`Runner`] and render the returned
//! [`BatchReport`]. `reproduce_all` runs the whole evaluation and
//! `run_scenario` the files it is given; both print every table and figure
//! through one renderer, [`print_scenario`].
//!
//! All binaries accept `--json` / `--csv` (or `TBP_FORMAT=json|csv`) to emit
//! the structured reports instead of plain-text tables, and honour
//! `TBP_DURATION=<seconds>` to shorten the measured window.
//!
//! Binaries that execute batches additionally accept (see [`run_cli`]):
//!
//! * `--cache-dir <dir>` (or `TBP_CACHE_DIR`) — memoize run reports in a
//!   content-addressed filesystem cache; warm re-runs simulate nothing.
//! * `--shard i/k` (or `TBP_SHARD`) — execute only the i-th of k contiguous
//!   shards of the batch and print a partial report (JSON) on stdout.
//! * `--lanes <n>` (or `TBP_LANES`) — step up to `n` compatible simulation
//!   misses in lockstep through one SIMD lane batch; output is byte-identical
//!   to `--lanes 1`.
//! * `--merge <file>...` — skip execution, merge previously emitted partial
//!   reports back into the full batch and render it as usual.
//! * `--metrics <file>` (or `TBP_METRICS`) — append a JSONL
//!   [`MetricsSnapshot`](tbp_obs::MetricsSnapshot) heartbeat line every
//!   ~500 ms while the batch runs (plus a final line), for live dashboards
//!   and `trace_tui`'s status bar.
//! * `--metrics-prom <file>` (or `TBP_METRICS_PROM`) — write a one-shot
//!   Prometheus-style exposition of the final metric values on completion.
//! * `--progress` (or `TBP_PROGRESS=1`) — print a `[progress]` line to
//!   stderr every ~500 ms (done/total, cache hits/misses, elapsed,
//!   aggregate steps/s). Off by default so existing stderr greps stay
//!   stable.
//!
//! None of the observability flags change what the binaries compute:
//! reports, CSVs and cache entries stay byte-identical with them on.

#![deny(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tbp_arch::units::Seconds;
use tbp_core::scenario::{
    BatchReport, CacheMetrics, FsCache, PartialReport, Runner, RunnerMetrics, ScenarioSpec,
    ShardPlan,
};
use tbp_obs::{MetricsRegistry, SnapshotEmitter};

mod render;

pub use render::{distinct_labels, print_scenario, print_table};

/// Measured duration used by the figure experiments (seconds of simulated
/// time after the warm-up). Override with the `TBP_DURATION` environment
/// variable (e.g. `TBP_DURATION=5` for a quick pass). A value that is not a
/// finite number of seconds above zero exits via [`fail_usage`]; values
/// below 1 s run 1 s.
pub fn measured_duration() -> Seconds {
    duration_override().unwrap_or(Seconds::new(20.0))
}

/// The `TBP_DURATION` override, or `None` when the variable is unset.
///
/// A value that is not a finite number of seconds above zero is a usage
/// error: the process exits via [`fail_usage`] naming the variable, rather
/// than running some other window than the one asked for.
fn duration_override() -> Option<Seconds> {
    let raw = std::env::var_os("TBP_DURATION")?;
    Some(parse_duration(&raw.to_string_lossy()).unwrap_or_else(|e| fail_usage(e)))
}

/// Parses a `TBP_DURATION` value: a finite number of seconds above zero,
/// raised to the 1 s floor every measured window keeps.
fn parse_duration(raw: &str) -> Result<Seconds, String> {
    match raw.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Ok(Seconds::new(secs.max(1.0))),
        _ => Err(format!(
            "TBP_DURATION must be a finite number of seconds above 0, got `{raw}`"
        )),
    }
}

/// Output format of a bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable tables (the default).
    Table,
    /// The batch's JSON report on stdout.
    Json,
    /// The batch's CSV report on stdout.
    Csv,
}

/// The output format selected by `--json`/`--csv` or `TBP_FORMAT`.
pub fn report_format() -> ReportFormat {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--json") {
        return ReportFormat::Json;
    }
    if args.iter().any(|a| a == "--csv") {
        return ReportFormat::Csv;
    }
    match std::env::var("TBP_FORMAT").as_deref() {
        Ok("json") => ReportFormat::Json,
        Ok("csv") => ReportFormat::Csv,
        _ => ReportFormat::Table,
    }
}

/// Emits the batch in the selected structured format, returning `true` when
/// it did (callers then skip their table rendering).
pub fn emit_structured(batch: &BatchReport) -> bool {
    match report_format() {
        ReportFormat::Json => {
            println!("{}", batch.to_json());
            true
        }
        ReportFormat::Csv => {
            print!("{}", batch.to_csv());
            true
        }
        ReportFormat::Table => false,
    }
}

/// Batch-level CLI options shared by the bench binaries: caching, sharding
/// and partial-report merging.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchCli {
    /// Cache directory (`--cache-dir <dir>` or `TBP_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Shard to execute (`--shard i/k` or `TBP_SHARD=i/k`).
    pub shard: Option<ShardPlan>,
    /// Directory for per-run binary traces (`--trace-dir <dir>` or
    /// `TBP_TRACE_DIR`).
    pub trace_dir: Option<PathBuf>,
    /// Lanes per batched simulation step (`--lanes <n>` or `TBP_LANES`);
    /// `None` means the classic one-simulation-per-run path.
    pub lanes: Option<usize>,
    /// Partial-report files to merge instead of executing (`--merge <f>...`).
    pub merge: Vec<PathBuf>,
    /// JSONL metrics heartbeat file (`--metrics <file>` or `TBP_METRICS`).
    pub metrics: Option<PathBuf>,
    /// One-shot Prometheus exposition file on completion
    /// (`--metrics-prom <file>` or `TBP_METRICS_PROM`).
    pub metrics_prom: Option<PathBuf>,
    /// Whether to print periodic `[progress]` lines to stderr
    /// (`--progress` or `TBP_PROGRESS=1`).
    pub progress: bool,
}

impl BatchCli {
    /// Whether the binary should merge partials instead of executing runs.
    pub fn is_merge(&self) -> bool {
        !self.merge.is_empty()
    }

    /// Whether any live-observability output was requested.
    pub fn wants_observability(&self) -> bool {
        self.metrics.is_some() || self.metrics_prom.is_some() || self.progress
    }
}

/// Parses the batch-level flags from the process arguments and environment.
///
/// A `--merge` invocation executes nothing, so combining it with `--shard`
/// or `--cache-dir` is rejected as a usage error rather than silently
/// ignoring the execution flags. The `TBP_CACHE_DIR`/`TBP_SHARD` environment
/// fallbacks are not applied in merge mode (a globally exported cache dir
/// must not break merge invocations).
///
/// # Panics
///
/// Panics with a usage message on malformed flags (a missing value after
/// `--cache-dir`/`--shard`/`--merge`, an unparsable shard, or `--merge`
/// combined with the execution flags).
pub fn batch_cli() -> BatchCli {
    let mut cli = parse_batch_cli(std::env::args().skip(1));
    if cli.is_merge() {
        return cli;
    }
    if cli.cache_dir.is_none() {
        if let Ok(dir) = std::env::var("TBP_CACHE_DIR") {
            cli.cache_dir = Some(PathBuf::from(dir));
        }
    }
    if cli.shard.is_none() {
        if let Ok(shard) = std::env::var("TBP_SHARD") {
            cli.shard = Some(ShardPlan::parse(&shard).expect("TBP_SHARD parses"));
        }
    }
    if cli.trace_dir.is_none() {
        if let Ok(dir) = std::env::var("TBP_TRACE_DIR") {
            cli.trace_dir = Some(PathBuf::from(dir));
        }
    }
    if cli.lanes.is_none() {
        if let Ok(lanes) = std::env::var("TBP_LANES") {
            cli.lanes = Some(lanes.parse().expect("TBP_LANES parses as a lane count"));
        }
    }
    if cli.metrics.is_none() {
        if let Ok(path) = std::env::var("TBP_METRICS") {
            cli.metrics = Some(PathBuf::from(path));
        }
    }
    if cli.metrics_prom.is_none() {
        if let Ok(path) = std::env::var("TBP_METRICS_PROM") {
            cli.metrics_prom = Some(PathBuf::from(path));
        }
    }
    if !cli.progress {
        if let Ok(value) = std::env::var("TBP_PROGRESS") {
            cli.progress = !matches!(value.as_str(), "" | "0");
        }
    }
    cli
}

fn parse_batch_cli(args: impl Iterator<Item = String>) -> BatchCli {
    let mut cli = BatchCli::default();
    // A flag's value must not itself look like a flag: `--cache-dir --csv`
    // is a forgotten value, not a directory named `--csv`.
    fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
        match args.next() {
            Some(value) if !value.starts_with("--") => value,
            _ => panic!("{flag} needs {what}"),
        }
    }
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let dir = flag_value(&mut args, "--cache-dir", "a directory");
                cli.cache_dir = Some(PathBuf::from(dir));
            }
            "--shard" => {
                let spec = flag_value(&mut args, "--shard", "an i/k value, e.g. 2/4");
                cli.shard = Some(ShardPlan::parse(&spec).expect("--shard value parses"));
            }
            "--trace-dir" => {
                let dir = flag_value(&mut args, "--trace-dir", "a directory");
                cli.trace_dir = Some(PathBuf::from(dir));
            }
            "--lanes" => {
                let lanes = flag_value(&mut args, "--lanes", "a lane count, e.g. 4");
                cli.lanes = Some(lanes.parse().expect("--lanes value parses"));
            }
            "--metrics" => {
                let path = flag_value(&mut args, "--metrics", "a file path");
                cli.metrics = Some(PathBuf::from(path));
            }
            "--metrics-prom" => {
                let path = flag_value(&mut args, "--metrics-prom", "a file path");
                cli.metrics_prom = Some(PathBuf::from(path));
            }
            "--progress" => {
                cli.progress = true;
            }
            "--merge" => {
                while let Some(path) = args.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    cli.merge.push(PathBuf::from(args.next().expect("peeked")));
                }
                assert!(
                    !cli.merge.is_empty(),
                    "--merge needs at least one partial-report file"
                );
            }
            _ => {}
        }
    }
    assert!(
        !(cli.is_merge()
            && (cli.shard.is_some()
                || cli.cache_dir.is_some()
                || cli.trace_dir.is_some()
                || cli.wants_observability())),
        "--merge executes nothing and cannot be combined with --shard, --cache-dir, \
         --trace-dir, --metrics, --metrics-prom or --progress"
    );
    cli
}

/// Executes `specs` honouring the batch-level flags, returning the batch to
/// render — or `None` in shard mode, where the partial report has already
/// been printed to stdout and the caller should simply exit.
///
/// * default — run the whole batch (optionally through the cache).
/// * `--shard i/k` — run one shard, print its [`PartialReport`] JSON.
/// * `--lanes <n>` — batch up to `n` compatible simulations per lockstep
///   group (byte-identical to the default path; applies to shards too).
/// * `--merge <file>...` — execute nothing; merge the partials instead.
///
/// With `--cache-dir`, a `[cache] hits=… misses=…` line is printed to stderr
/// after execution (the cached-reproduce CI job greps for `misses=0`).
///
/// A run that fails (a failing simulation, an unwritable trace directory)
/// exits through [`fail`] with [`EXIT_FAILURE`].
///
/// # Panics
///
/// Panics with a descriptive message when a partial file cannot be read or
/// the partials do not merge — matching the fail-fast style of the bench
/// binaries.
pub fn run_cli(label: &str, specs: &[ScenarioSpec]) -> Option<BatchReport> {
    run_cli_with(&batch_cli(), label, specs)
}

/// [`run_cli`] with an already-parsed [`BatchCli`] — for binaries that also
/// need the options themselves (and must not parse the CLI twice).
///
/// # Panics
///
/// See [`run_cli`].
pub fn run_cli_with(cli: &BatchCli, label: &str, specs: &[ScenarioSpec]) -> Option<BatchReport> {
    if cli.is_merge() {
        let partials: Vec<PartialReport> = cli
            .merge
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read partial {}: {e}", path.display()));
                PartialReport::from_json_str(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            })
            .collect();
        // The partials must describe the batch *this* invocation would run,
        // or the rendered tables would silently pose as the local
        // configuration's results.
        let expected = tbp_core::scenario::batch_digest(specs)
            .expect("local specs expand to a digestible batch")
            .to_hex();
        if let Some(partial) = partials.iter().find(|p| p.batch != expected) {
            panic!(
                "partial reports were produced from a different batch than this \
                 invocation describes (digest {} vs local {expected}); check \
                 TBP_DURATION, TBP_SCENARIOS and the scenario files",
                partial.batch
            );
        }
        let batch = PartialReport::merge(partials)
            .unwrap_or_else(|e| panic!("partial reports do not merge: {e}"));
        return Some(batch);
    }
    let obs = LiveObs::start(cli);
    let mut runner = Runner::new();
    if let Some(lanes) = cli.lanes {
        runner = runner.with_lanes(lanes);
    }
    if let Some(dir) = &cli.trace_dir {
        runner = runner.with_trace_dir(dir.clone());
    }
    if let Some(obs) = &obs {
        runner = runner.with_metrics(RunnerMetrics::register(obs.outputs.registry()));
    }
    if let Some(dir) = &cli.cache_dir {
        let mut cache = FsCache::open(dir)
            .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()));
        if let Some(obs) = &obs {
            cache = cache.with_metrics(CacheMetrics::register(obs.outputs.registry()));
        }
        runner = runner.with_cache(cache);
    }
    if let Some(plan) = cli.shard {
        let partial = timed(label, || {
            runner
                .run_shard(specs, plan)
                .unwrap_or_else(|e| fail(format!("shard {plan} failed: {e}")))
        });
        eprintln!(
            "[shard {plan}] runs {}..{} of {}",
            partial.start,
            partial.start + partial.reports.len(),
            partial.total
        );
        if let Some(obs) = obs {
            obs.finish();
        }
        report_cache_stats(&runner, cli);
        println!("{}", partial.to_json());
        return None;
    }
    let batch = timed(label, || {
        runner
            .run(specs)
            .unwrap_or_else(|e| fail(format!("batch failed: {e}")))
    });
    if let Some(obs) = obs {
        obs.finish();
    }
    report_cache_stats(&runner, cli);
    Some(batch)
}

/// Interval between metrics heartbeat lines and progress ticks.
const METRICS_INTERVAL: Duration = Duration::from_millis(500);

/// Live observability for one batch execution: the [`MetricsOutputs`]
/// requested on the CLI plus an optional `[progress]` stderr ticker. Purely
/// additive: attaching it never changes the reports.
struct LiveObs {
    outputs: MetricsOutputs,
    progress: Option<ProgressTicker>,
}

struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LiveObs {
    fn start(cli: &BatchCli) -> Option<LiveObs> {
        if !cli.wants_observability() {
            return None;
        }
        let outputs = MetricsOutputs::start(cli.metrics.as_deref(), cli.metrics_prom.as_deref())
            .unwrap_or_else(|e| {
                let path = cli.metrics.clone().unwrap_or_default();
                panic!("cannot create metrics file {}: {e}", path.display())
            });
        let progress = cli
            .progress
            .then(|| spawn_progress(outputs.registry().clone(), METRICS_INTERVAL));
        Some(LiveObs { outputs, progress })
    }

    /// Stops the progress ticker (which prints a final line), then finishes
    /// the metrics outputs.
    fn finish(self) {
        if let Some(progress) = self.progress {
            progress.stop.store(true, Ordering::Relaxed);
            if let Some(handle) = progress.handle {
                let _ = handle.join();
            }
        }
        self.outputs.finish();
    }
}

/// Starts the `[progress]` stderr ticker: one line per interval and a final
/// line when stopped. Steps/s is the delta of the aggregate `sim.steps`
/// counter over the tick, covering every concurrent worker and lane.
fn spawn_progress(registry: MetricsRegistry, interval: Duration) -> ProgressTicker {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tbp-progress".into())
        .spawn(move || {
            let start = Instant::now();
            let tick = Duration::from_millis(20);
            let mut last_steps = 0u64;
            let mut last_at = start;
            loop {
                let deadline = Instant::now() + interval;
                let mut stopping = false;
                while Instant::now() < deadline {
                    if thread_stop.load(Ordering::Relaxed) {
                        stopping = true;
                        break;
                    }
                    std::thread::sleep(tick);
                }
                let snap = registry.snapshot(start.elapsed().as_secs_f64());
                let steps = snap.counter("sim.steps").unwrap_or(0);
                let now = Instant::now();
                let dt = now.duration_since(last_at).as_secs_f64().max(1e-9);
                let steps_per_s = steps.saturating_sub(last_steps) as f64 / dt;
                last_steps = steps;
                last_at = now;
                eprintln!(
                    "[progress] {}/{} hits={} misses={} elapsed={:.1}s steps/s={:.0}",
                    snap.counter("runner.scenarios_completed").unwrap_or(0),
                    snap.gauge("runner.scenarios_total").unwrap_or(0.0) as u64,
                    snap.counter("runner.cache_hits").unwrap_or(0),
                    snap.counter("runner.cache_misses").unwrap_or(0),
                    now.duration_since(start).as_secs_f64(),
                    steps_per_s,
                );
                if stopping {
                    return;
                }
            }
        })
        .expect("progress thread spawns");
    ProgressTicker {
        stop,
        handle: Some(handle),
    }
}

fn report_cache_stats(runner: &Runner, cli: &BatchCli) {
    if cli.cache_dir.is_some() {
        let stats = runner.stats();
        eprintln!(
            "[cache] hits={} misses={} (simulated={} analytic={})",
            stats.cache_hits,
            stats.misses(),
            stats.simulated,
            stats.analytic
        );
    }
}

/// Runs a closure, printing how long it took in wall-clock time.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    eprintln!(
        "[{label}] completed in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    result
}

/// The workspace's `scenarios/` directory (override with `TBP_SCENARIOS`).
pub fn scenarios_dir() -> std::path::PathBuf {
    match std::env::var("TBP_SCENARIOS") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
    }
}

/// Applies the `TBP_DURATION` override to a loaded scenario's measured
/// duration; analytic tables, which simulate nothing, pass unchanged.
pub fn override_duration(spec: ScenarioSpec, duration: Seconds) -> ScenarioSpec {
    if spec.analysis.is_some() {
        return spec;
    }
    let warmup = spec.schedule().warmup.as_secs();
    spec.with_schedule(warmup, duration.as_secs())
}

/// Loads scenario TOML files the way every batch binary does, applying the
/// `TBP_DURATION` override to each non-analysis spec *when the variable is
/// set* (an unset variable leaves the files' own schedules untouched).
///
/// A file that cannot be read or parsed is a runtime failure: the process
/// exits via [`fail`] with a one-line diagnostic naming the file.
pub fn load_scenarios(paths: &[PathBuf]) -> Vec<ScenarioSpec> {
    let duration = duration_override();
    paths
        .iter()
        .map(|path| {
            let spec = tbp_core::scenario::load_toml_file(path).unwrap_or_else(|e| fail(e));
            match duration {
                Some(duration) => override_duration(spec, duration),
                None => spec,
            }
        })
        .collect()
}

/// Exit code for runtime failures (missing file, failed run, unreachable
/// coordinator). See [`fail`].
pub const EXIT_FAILURE: i32 = 1;

/// Exit code for usage errors (unknown flag, missing argument, malformed
/// value). See [`fail_usage`].
pub const EXIT_USAGE: i32 = 2;

/// Prints a one-line `error:` diagnostic to stderr and exits with
/// [`EXIT_FAILURE`] — the binaries' runtime-failure path (a file that does
/// not exist, a coordinator that never answers).
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_FAILURE);
}

/// Prints a one-line `error:` diagnostic to stderr and exits with
/// [`EXIT_USAGE`] — the binaries' bad-invocation path (unknown flag, missing
/// value, malformed spec).
pub fn fail_usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_USAGE);
}

/// Converts any panic reaching the top of a binary into a one-line `error:`
/// diagnostic and a [`EXIT_USAGE`] exit.
///
/// The shared flag parsers (behind [`batch_cli`] and friends) report bad
/// invocations by panicking — convenient in tests (`#[should_panic]`), but a
/// binary must not greet a typo with a backtrace. Binaries call this first
/// thing in `main`; explicit runtime failures still use [`fail`] and keep
/// exit code [`EXIT_FAILURE`].
pub fn exit_cleanly_on_panic() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unexpected internal failure".to_string());
        eprintln!("error: {msg}");
        std::process::exit(EXIT_USAGE);
    }));
}

/// The metrics half of the batch runner's live observability, also used
/// directly by binaries (the `sweep_coord` / `sweep_worker` pair) whose
/// instrumented subject is not a [`Runner`] batch: a shared registry plus
/// the `--metrics` JSONL heartbeat emitter and the `--metrics-prom`
/// completion dump. Attaching it never changes what the binary computes.
pub struct MetricsOutputs {
    registry: MetricsRegistry,
    started: Instant,
    emitter: Option<SnapshotEmitter>,
    prom_path: Option<PathBuf>,
}

impl MetricsOutputs {
    /// Creates the registry and starts the requested background outputs:
    /// `metrics` appends a JSONL snapshot every ~500 ms, `prom` receives a
    /// one-shot Prometheus exposition in [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the JSONL file cannot be created.
    pub fn start(
        metrics: Option<&std::path::Path>,
        prom: Option<&std::path::Path>,
    ) -> std::io::Result<MetricsOutputs> {
        let registry = MetricsRegistry::new();
        let emitter = match metrics {
            Some(path) => Some(SnapshotEmitter::spawn(
                registry.clone(),
                path,
                METRICS_INTERVAL,
            )?),
            None => None,
        };
        Ok(MetricsOutputs {
            registry,
            started: Instant::now(),
            emitter,
            prom_path: prom.map(|p| p.to_path_buf()),
        })
    }

    /// The registry to hang instruments off (e.g.
    /// [`CoordMetrics::register`](tbp_sweepd::CoordMetrics::register)).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Stops the heartbeat emitter (which writes a final line) and dumps the
    /// Prometheus exposition when requested. Failures are reported to stderr
    /// but not fatal — observability never sinks a finished run.
    pub fn finish(self) {
        if let Some(emitter) = self.emitter {
            if let Err(e) = emitter.finish() {
                eprintln!("[metrics] heartbeat write failed: {e}");
            }
        }
        if let Some(path) = &self.prom_path {
            let elapsed = self.started.elapsed().as_secs_f64();
            let text = self.registry.snapshot(elapsed).to_prometheus();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("[metrics] cannot write {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BatchCli {
        parse_batch_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn durations_keep_the_one_second_floor() {
        assert_eq!(parse_duration("5").unwrap().as_secs(), 5.0);
        assert_eq!(parse_duration("0.1").unwrap().as_secs(), 1.0);
    }

    #[test]
    fn malformed_durations_are_rejected() {
        for raw in ["abc", "", "nan", "inf", "-inf", "-3", "0"] {
            let err = parse_duration(raw).expect_err(raw);
            assert!(err.starts_with("TBP_DURATION must be"), "{err}");
        }
    }

    #[test]
    fn no_batch_flags_parse_to_defaults() {
        assert_eq!(parse(&[]), BatchCli::default());
        // Unrelated flags (--json/--csv and friends) are ignored here.
        assert_eq!(parse(&["--csv", "whatever"]), BatchCli::default());
    }

    #[test]
    fn cache_dir_and_shard_take_one_value_each() {
        let cli = parse(&["--cache-dir", "cache/", "--shard", "2/4"]);
        assert_eq!(
            cli.cache_dir.as_deref(),
            Some(std::path::Path::new("cache/"))
        );
        let plan = cli.shard.expect("shard parsed");
        assert_eq!((plan.index(), plan.count()), (2, 4));
        assert!(!cli.is_merge());
        // A repeated flag follows last-wins.
        let cli = parse(&["--shard", "1/4", "--shard", "3/4"]);
        assert_eq!(cli.shard.expect("shard parsed").index(), 3);
    }

    #[test]
    fn trace_dir_takes_one_value() {
        let cli = parse(&["--trace-dir", "traces/"]);
        assert_eq!(
            cli.trace_dir.as_deref(),
            Some(std::path::Path::new("traces/"))
        );
    }

    #[test]
    #[should_panic(expected = "--trace-dir needs a directory")]
    fn trace_dir_rejects_a_missing_value() {
        parse(&["--trace-dir"]);
    }

    #[test]
    fn lanes_takes_one_numeric_value() {
        assert_eq!(parse(&["--lanes", "4"]).lanes, Some(4));
        assert_eq!(parse(&[]).lanes, None);
    }

    #[test]
    #[should_panic(expected = "--lanes value parses")]
    fn lanes_rejects_a_non_numeric_value() {
        parse(&["--lanes", "many"]);
    }

    #[test]
    fn merge_consumes_files_until_the_next_flag() {
        let cli = parse(&["--merge", "a.json", "b.json", "--csv"]);
        assert_eq!(
            cli.merge,
            vec![PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
        assert!(cli.is_merge());
    }

    #[test]
    #[should_panic(expected = "--cache-dir needs a directory")]
    fn cache_dir_rejects_a_flag_as_its_value() {
        parse(&["--cache-dir", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "--shard needs an i/k value")]
    fn shard_rejects_a_missing_value() {
        parse(&["--shard"]);
    }

    #[test]
    #[should_panic(expected = "--merge needs at least one partial-report file")]
    fn merge_rejects_an_empty_file_list() {
        parse(&["--merge", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "cannot be combined")]
    fn merge_rejects_execution_flags() {
        parse(&["--shard", "2/3", "--merge", "a.json"]);
    }

    #[test]
    fn metrics_flags_take_one_value_each() {
        let cli = parse(&["--metrics", "m.jsonl", "--metrics-prom", "m.prom"]);
        assert_eq!(
            cli.metrics.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert_eq!(
            cli.metrics_prom.as_deref(),
            Some(std::path::Path::new("m.prom"))
        );
        assert!(cli.wants_observability());
        assert!(!parse(&[]).wants_observability());
    }

    #[test]
    fn progress_is_a_bare_flag_and_off_by_default() {
        assert!(parse(&["--progress"]).progress);
        assert!(!parse(&[]).progress);
    }

    #[test]
    #[should_panic(expected = "--metrics needs a file path")]
    fn metrics_rejects_a_flag_as_its_value() {
        parse(&["--metrics", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "cannot be combined")]
    fn merge_rejects_observability_flags() {
        parse(&["--progress", "--merge", "a.json"]);
    }
}
