//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-batch|manycore-lanes|cached-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Run from the repository root. The workload is generated from `--seed`
//! and driven only through the program's public API. With `--trace 0` the
//! benchmark repeats the workload's batch for `--seconds` and reports the
//! end-to-end metrics; with `--trace 1` it runs the batch once plainly and
//! once under layer probes and reports the per-layer metrics. Either way it
//! checks the outputs and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--bless` rewrites
//! the committed reference outputs under `perfbench/reference/` from this
//! run (default seed only). See `perfbench/README.md`.

mod check;
mod instrument;
mod probe;
mod report;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tbp_core::scenario::{
    FsCache, RunCache, RunReport, Runner, RunnerMetrics, ScenarioHash, ScenarioSpec, WorkItem,
};
use tbp_core::sim::LaneBatch;
use tbp_core::BatchReport;
use tbp_obs::metrics::MetricsRegistry;
use tbp_obs::TraceReader;

use check::{Counts, DEFAULT_SEED};
use instrument::{median, quantile, CacheTimes, SinkTimes, TimedCache};
use report::{json_string, Outcome};
use workloads::{SplitMix64, Workload};

/// Set-ups per traced run; the scenario-layer set-up times are their
/// medians.
const SETUP_REPS: usize = 15;
/// Batches per untraced run, at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Batches per untraced run, at most.
const MAX_REPS: usize = 500;
/// Cache-hit latencies per run, at least (the traced run's p99 then has 30
/// samples beyond it).
const HIT_SAMPLES: usize = 3000;
/// Consecutive blocks the untraced run's hit latencies are cut into for
/// their quantiles (each block's p90 then has at least 60 beyond it).
const HIT_BLOCKS: usize = 5;
/// Probe every this many steps of a scalar simulation.
const PROBE_EVERY: u64 = 64;
/// Probe every this many steps of a lane batch.
const PROBE_EVERY_LANES: u64 = 16;
/// Cases re-run on another execution path for the cross-path check.
const CROSS_CHECKS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <paper-batch|manycore-lanes|cached-sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--bless]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// What a run works with: its arguments and the directories it uses.
struct Ctx {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// The repository root (the working directory).
    root: PathBuf,
    /// This benchmark's directory.
    bench_dir: PathBuf,
    /// Scratch space for caches and traces, removed at exit.
    work_dir: PathBuf,
    threads: usize,
}

impl Ctx {
    /// A new, empty scratch directory.
    fn fresh_dir(&self, label: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(label);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bench_dir = root.join("perfbench");
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        work_dir: bench_dir.join(".work").join(std::process::id().to_string()),
        root,
        bench_dir,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let result = if args.trace {
        traced(&ctx)
    } else {
        measure(&ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let _ = std::fs::remove_dir(ctx.bench_dir.join(".work"));
    let (outcome, run) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.bless {
        if let Err(e) = bless(&ctx, &run) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let line = match outcome.to_json() {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fingerprint {}", fingerprint(&ctx, args.trace, &run));
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The outputs of one run that the fingerprint and `--bless` need.
struct RunRecord {
    csv: String,
    counts: Counts,
    probe_overhead: Option<f64>,
}

/// One batch of the workload, as its users run it.
struct Rep {
    batch_s: f64,
    reports: Vec<RunReport>,
    csv: String,
    counts: Counts,
    /// Cache-hit `run_one` latencies (cached-sweep's warm pass), in µs.
    hits_us: Vec<f64>,
    /// Digest of every trace file the batch wrote, by file name.
    traces: BTreeMap<String, String>,
    cache_times: Option<CacheTimes>,
    /// Mean lane-chunk size the runner reported, when metrics were attached.
    occupancy: Option<f64>,
}

/// Runs the workload's batch once. A `traced` batch also wraps the cache
/// in a [`TimedCache`] and attaches runner metrics (for the lane occupancy).
fn run_rep(
    ctx: &Ctx,
    label: &str,
    specs: &[ScenarioSpec],
    work: &[WorkItem],
    traced: bool,
    out: &mut Outcome,
) -> Result<Rep, String> {
    let registry = MetricsRegistry::new();
    let mut runner = Runner::new().with_lanes(ctx.workload.lanes());
    if traced || ctx.workload == Workload::CachedSweep {
        runner = runner.with_metrics(RunnerMetrics::register(&registry));
    }
    let mut timer = None;
    let mut dir = None;
    if ctx.workload == Workload::CachedSweep {
        let rep_dir = ctx.fresh_dir(label)?;
        let (cache, rep_timer) = open_cache(&rep_dir.join("cache"), traced)?;
        timer = rep_timer;
        runner = runner
            .with_cache_arc(cache)
            .with_trace_dir(rep_dir.join("traces"));
        dir = Some(rep_dir);
    }

    let started = Instant::now();
    let batch = runner.run(specs).map_err(|e| e.to_string())?;
    let batch_s = started.elapsed().as_secs_f64();
    out.attempted += batch.reports.len() as u64;
    if batch.reports.len() != work.len() {
        out.fail(
            work.len() as u64,
            "batch report count differs from the work list",
        );
    }
    let csv = batch.to_csv();
    let mut counts = work_counts(work, &batch.reports)?;

    let mut hits_us = Vec::new();
    let mut traces = BTreeMap::new();
    if let Some(dir) = &dir {
        let stats = runner.stats();
        let sims = work.iter().filter(|w| w.case.analysis.is_none()).count() as u64;
        if stats.simulated != sims || stats.cache_hits != 0 {
            out.fail(
                sims,
                format!("cold pass: {stats:?}, expected {sims} simulated, 0 hits"),
            );
        }
        let steps = registry.snapshot(0.0).counter("sim.steps").unwrap_or(0);
        if steps != counts["sim.steps"] {
            out.fail(
                sims,
                format!(
                    "runner counted {steps} steps, expected {}",
                    counts["sim.steps"]
                ),
            );
        }
        let mut warm = Vec::with_capacity(work.len());
        for (item, cold) in work.iter().zip(&batch.reports) {
            let started = Instant::now();
            let report = runner
                .run_one(&item.group, &item.case)
                .map_err(|e| e.to_string())?;
            hits_us.push(started.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            if !same_report(&report, cold) {
                out.fail(
                    1,
                    format!("warm `{}` differs from its cold run", item.case.name),
                );
            }
            warm.push(report);
        }
        let warm_csv = BatchReport { reports: warm }.to_csv();
        let (differing, first) = check::diff_rows(&csv, &warm_csv);
        if differing > 0 {
            out.fail(
                differing,
                format!("warm CSV differs from cold: {}", first.unwrap_or_default()),
            );
        }
        let after = runner.stats();
        let hits = work.len() as u64;
        if after.cache_hits != hits || after.simulated != stats.simulated {
            out.fail(
                hits,
                format!("warm pass: {after:?}, expected {hits} hits and no simulation"),
            );
        }
        counts.insert("scenario.cache_hits", after.cache_hits);
        counts.insert("scenario.cache_misses", after.misses());
        let (bytes, digests) = read_traces(&dir.join("traces"), out)?;
        if digests.len() as u64 != sims {
            out.fail(
                sims,
                format!("{} trace files for {sims} simulated runs", digests.len()),
            );
        }
        counts.insert("obs.trace_bytes", bytes);
        traces = digests;
    }
    let occupancy = registry
        .snapshot(0.0)
        .histograms
        .iter()
        .find(|(name, _)| name == "runner.lane_occupancy")
        .filter(|(_, h)| h.count > 0)
        .map(|(_, h)| h.sum / h.count as f64);
    Ok(Rep {
        batch_s,
        reports: batch.reports,
        csv,
        counts,
        hits_us,
        traces,
        cache_times: timer.map(|t| t.times()),
        occupancy,
    })
}

/// A handle on the timings of a timed `FsCache`.
type CacheTimer = Arc<TimedCache<FsCache>>;

/// Opens an `FsCache` in `dir`, wrapped in a [`TimedCache`] (also
/// returned) when `timed`.
fn open_cache(dir: &Path, timed: bool) -> Result<(Arc<dyn RunCache>, Option<CacheTimer>), String> {
    let cache = FsCache::open(dir).map_err(|e| e.to_string())?;
    if timed {
        let wrapped = TimedCache::new(cache);
        Ok((wrapped.clone(), Some(wrapped)))
    } else {
        Ok((Arc::new(cache), None))
    }
}

/// Whether two reports are identical, field for field and bit for bit
/// (NaN included, which `PartialEq` would call unequal).
fn same_report(a: &RunReport, b: &RunReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Decodes every trace in `dir` through `TraceReader`. Returns the bytes
/// read and a digest per file; an undecodable file is a failed run.
fn read_traces(dir: &Path, out: &mut Outcome) -> Result<(u64, BTreeMap<String, String>), String> {
    let mut bytes = 0;
    let mut digests = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let data = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if let Err(e) = TraceReader::read(&data) {
            out.fail(1, format!("{} does not decode: {e}", path.display()));
        }
        bytes += data.len() as u64;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        digests.insert(name.unwrap_or_default(), check::digest(&data));
    }
    Ok((bytes, digests))
}

/// The deterministic work counts of a batch: co-simulation steps, RC
/// sub-steps and migrations. Sub-steps come from each case's freshly built
/// thermal model and the solver's sub-step plan.
fn work_counts(work: &[WorkItem], reports: &[RunReport]) -> Result<Counts, String> {
    let mut steps = 0;
    let mut substeps = 0;
    for item in work.iter().filter(|w| w.case.analysis.is_none()) {
        let spec = item.case.fold_initial_phases().map_err(|e| e.to_string())?;
        let dt = spec.schedule().time_step;
        let n = probe::step_count(spec.total_duration(), dt);
        let sim = spec.build().map_err(|e| e.to_string())?;
        steps += n;
        substeps += n * probe::substeps_per_step(sim.thermal(), dt);
    }
    let migrations = reports
        .iter()
        .filter_map(RunReport::summary)
        .map(|s| s.migration.migrations)
        .sum();
    let mut counts = Counts::new();
    counts.insert("sim.steps", steps);
    counts.insert("thermal.substeps", substeps);
    counts.insert("os.migrations", migrations);
    Ok(counts)
}

/// A warm `FsCache` holding one batch's reports, resolved case by case
/// through `Runner::run_one` — the warm re-run of a `--cache-dir` user.
struct WarmCache {
    dir: PathBuf,
    runner: Runner,
    timer: Option<CacheTimer>,
    hits_us: Vec<f64>,
}

impl WarmCache {
    /// Stores `reports` under their cases' hashes in a fresh cache, then
    /// resolves one pass; adds that pass's cache counts to `counts` unless
    /// the batch counted its own cache already.
    fn fill(
        ctx: &Ctx,
        work: &[WorkItem],
        reports: &[RunReport],
        timed: bool,
        counts: &mut Counts,
        out: &mut Outcome,
    ) -> Result<Self, String> {
        let dir = ctx.fresh_dir("hits")?;
        let (cache, timer) = open_cache(&dir, timed)?;
        for (item, report) in work.iter().zip(reports) {
            cache.store(
                &ScenarioHash::of(&item.case).map_err(|e| e.to_string())?,
                report,
            );
        }
        let mut warm = WarmCache {
            dir,
            runner: Runner::new()
                .with_lanes(ctx.workload.lanes())
                .with_cache_arc(cache),
            timer,
            hits_us: Vec::with_capacity(HIT_SAMPLES + work.len()),
        };
        warm.pass(work, reports, out)?;
        let stats = warm.runner.stats();
        counts
            .entry("scenario.cache_hits")
            .or_insert(stats.cache_hits);
        counts
            .entry("scenario.cache_misses")
            .or_insert(stats.misses());
        counts.entry("obs.trace_bytes").or_insert(0);
        Ok(warm)
    }

    /// Resolves every case once, timing each call and checking each hit
    /// returns its run's report.
    fn pass(
        &mut self,
        work: &[WorkItem],
        reports: &[RunReport],
        out: &mut Outcome,
    ) -> Result<(), String> {
        for (item, report) in work.iter().zip(reports) {
            let started = Instant::now();
            let hit = self
                .runner
                .run_one(&item.group, &item.case)
                .map_err(|e| e.to_string())?;
            self.hits_us.push(started.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            if !same_report(&hit, report) {
                out.fail(
                    1,
                    format!("cache hit for `{}` differs from its run", item.case.name),
                );
            }
        }
        Ok(())
    }

    /// Checks every call was a hit, removes the cache, and returns the
    /// latencies and (when timed) the cache's operation times.
    fn finish(self, out: &mut Outcome) -> Result<(Vec<f64>, Option<CacheTimes>), String> {
        let stats = self.runner.stats();
        if stats.misses() != 0 || stats.cache_hits != self.hits_us.len() as u64 {
            out.fail(
                stats.misses(),
                format!("warm cache: {stats:?}, expected hits only"),
            );
        }
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))?;
        Ok((self.hits_us, self.timer.map(|t| t.times())))
    }
}

/// Re-runs a seed-chosen sample of cases on another execution path — one
/// lane for `manycore-lanes`, a sequential runner for `paper-batch` — and
/// checks each reproduces its batch row. (`cached-sweep` checks its warm
/// pass against its cold pass instead.)
fn cross_path(
    ctx: &Ctx,
    work: &[WorkItem],
    reports: &[RunReport],
    out: &mut Outcome,
) -> Result<(), String> {
    let runner = match ctx.workload {
        Workload::PaperBatch => Runner::sequential(),
        Workload::ManycoreLanes => Runner::new(),
        Workload::CachedSweep => return Ok(()),
    };
    let candidates: Vec<usize> = (0..work.len())
        .filter(|&i| work[i].case.analysis.is_none())
        .collect();
    let mut rng = SplitMix64(ctx.seed ^ 0x63_726f_7373);
    for _ in 0..CROSS_CHECKS.min(candidates.len()) {
        let index = candidates[(rng.next() % candidates.len() as u64) as usize];
        let item = &work[index];
        let report = runner
            .run_one(&item.group, &item.case)
            .map_err(|e| e.to_string())?;
        out.attempted += 1;
        if !same_report(&report, &reports[index]) {
            out.fail(
                1,
                format!("`{}` differs on the other execution path", item.case.name),
            );
        }
    }
    Ok(())
}

/// Checks a batch against the committed reference: for the default seed
/// its CSV and every count; for any other seed the counts the seed cannot
/// move ([`check::SEED_FREE_COUNTS`]).
fn check_reference(ctx: &Ctx, csv: &str, counts: &Counts, out: &mut Outcome) {
    let dir = check::reference_dir(&ctx.bench_dir);
    let name = ctx.workload.name();
    if ctx.seed == DEFAULT_SEED {
        match std::fs::read_to_string(dir.join(format!("{name}.csv"))) {
            Ok(expected) => {
                let (differing, first) = check::diff_rows(&expected, csv);
                if differing > 0 {
                    out.fail(
                        differing,
                        format!("CSV differs from reference: {}", first.unwrap_or_default()),
                    );
                }
            }
            Err(e) => out.fail(1, format!("no reference CSV for {name}: {e}")),
        }
    }
    let checked: Counts = counts
        .iter()
        .filter(|(key, _)| ctx.seed == DEFAULT_SEED || check::SEED_FREE_COUNTS.contains(key))
        .map(|(key, value)| (*key, *value))
        .collect();
    match std::fs::read_to_string(dir.join(format!("{name}.counts"))) {
        Ok(expected) => {
            for problem in check::diff_counts(&expected, &checked) {
                out.fail(1, problem);
            }
        }
        Err(e) => out.fail(1, format!("no reference counts for {name}: {e}")),
    }
}

/// One full set-up, timed: spec load or generation, parse, expansion and
/// (for `cached-sweep`) opening a cache in a fresh directory.
fn timed_setup(ctx: &Ctx) -> Result<(workloads::Setup, f64), String> {
    let dir = ctx.work_dir.join("setup");
    let started = Instant::now();
    let setup = workloads::setup(ctx.workload, &ctx.root, ctx.seed)?;
    if ctx.workload == Workload::CachedSweep {
        FsCache::open(&dir).map_err(|e| e.to_string())?;
    }
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((setup, seconds))
}

/// The untraced run: end-to-end metrics. Batches repeat until `--seconds`
/// have passed; a set-up and a share of the cache-hit samples follow each
/// batch, so every metric samples the whole window.
fn measure(ctx: &Ctx) -> Result<(Outcome, RunRecord), String> {
    let mut out = Outcome::default();
    let (setup, first_setup_s) = timed_setup(ctx)?;
    let mut setup_s = vec![first_setup_s];
    let started = Instant::now();
    let mut first: Option<Rep> = None;
    let mut batch_s: Vec<f64> = Vec::new();
    let mut counts = Counts::new();
    let mut warm: Option<WarmCache> = None;
    let mut hits_us: Vec<f64> = Vec::new();
    loop {
        let label = format!("rep-{}", batch_s.len());
        settle_disk(
            ctx,
            batch_s.len().checked_sub(1).map(|n| format!("rep-{n}")),
        )?;
        let rep = run_rep(ctx, &label, &setup.specs, &setup.work, false, &mut out)?;
        batch_s.push(rep.batch_s);
        hits_us.extend(&rep.hits_us);
        match &first {
            None => {
                counts = rep.counts.clone();
                if ctx.workload != Workload::CachedSweep {
                    warm = Some(WarmCache::fill(
                        ctx,
                        &setup.work,
                        &rep.reports,
                        false,
                        &mut counts,
                        &mut out,
                    )?);
                }
                first = Some(rep);
            }
            Some(first) => {
                let (differing, row) = check::diff_rows(&first.csv, &rep.csv);
                if differing > 0 {
                    out.fail(
                        differing,
                        format!(
                            "{label} CSV differs from rep-0: {}",
                            row.unwrap_or_default()
                        ),
                    );
                }
                if rep.counts != first.counts {
                    out.fail(
                        1,
                        format!(
                            "{label} counts {:?} differ from rep-0 {:?}",
                            rep.counts, first.counts
                        ),
                    );
                }
            }
        }
        setup_s.push(timed_setup(ctx)?.1);
        let share = (started.elapsed().as_secs_f64() / ctx.seconds).min(1.0);
        if let (Some(warm), Some(first)) = (warm.as_mut(), &first) {
            while (warm.hits_us.len() as f64) < HIT_SAMPLES as f64 * share {
                warm.pass(&setup.work, &first.reports, &mut out)?;
            }
        }
        let hits = warm.as_ref().map_or(hits_us.len(), |w| w.hits_us.len());
        let done = share >= 1.0 && batch_s.len() >= MIN_REPS && hits >= HIT_SAMPLES;
        if done || batch_s.len() >= MAX_REPS {
            break;
        }
    }
    let first = first.expect("at least one batch ran");
    if let Some(warm) = warm {
        hits_us = warm.finish(&mut out)?.0;
    }
    if hits_us.len() < HIT_SAMPLES {
        out.fail(1, format!("only {} cache-hit samples", hits_us.len()));
    }
    cross_path(ctx, &setup.work, &first.reports, &mut out)?;
    check_reference(ctx, &first.csv, &counts, &mut out);

    let block_p50: Vec<f64> = hits_us
        .chunks_exact((hits_us.len() / HIT_BLOCKS).max(1))
        .map(|block| quantile(&mut block.to_vec(), 0.5))
        .collect();
    eprintln!(
        "perfbench: {} seed {}: batch seconds {batch_s:?}; hit p50 by block {block_p50:?}",
        ctx.workload.name(),
        ctx.seed,
    );
    let batch_s = median(&mut batch_s);
    out.metric("setup_s", median(&mut setup_s), "s");
    out.metric("batch_s", batch_s, "s");
    out.metric("steps_per_s", counts["sim.steps"] as f64 / batch_s, "1/s");
    out.metric("hit_us_p50", blocked_quantile(&hits_us, 0.5), "us");
    out.metric("hit_us_p90", blocked_quantile(&hits_us, 0.9), "us");
    out.metric("peak_rss_mb", instrument::peak_rss_mb()?, "MiB");
    Ok((
        out,
        RunRecord {
            csv: first.csv,
            counts,
            probe_overhead: None,
        },
    ))
}

/// The `q` quantile of latencies taken in time order: the median, over
/// [`HIT_BLOCKS`] consecutive blocks, of each block's `q` quantile. A burst
/// of interference from outside the process then moves one block's tail,
/// not the whole run's.
fn blocked_quantile(samples: &[f64], q: f64) -> f64 {
    let size = (samples.len() / HIT_BLOCKS).max(1);
    let mut per_block: Vec<f64> = samples
        .chunks_exact(size)
        .map(|block| quantile(&mut block.to_vec(), q))
        .collect();
    median(&mut per_block)
}

/// Removes the scratch directory `previous` (if any) and flushes every
/// dirty page to disk, so each batch starts from the same disk state: the
/// cold pass of `cached-sweep` writes over a thousand files, and writeback
/// or deletions left over from earlier batches would otherwise land inside
/// the next batch's timing.
fn settle_disk(ctx: &Ctx, previous: Option<String>) -> Result<(), String> {
    if let Some(previous) = previous {
        let dir = ctx.work_dir.join(previous);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync(2)` takes no arguments, has no preconditions and cannot
    // fail; it only schedules and waits for writeback.
    unsafe { sync() };
    Ok(())
}

/// The traced run: the batch once plainly, once under layer probes, then
/// the scenario-layer timings; per-layer metrics.
fn traced(ctx: &Ctx) -> Result<(Outcome, RunRecord), String> {
    let mut out = Outcome::default();
    let mut load_s = Vec::with_capacity(SETUP_REPS);
    let mut expand_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let (done, _) = timed_setup(ctx)?;
        load_s.push(done.load_s);
        expand_s.push(done.expand_s);
        setup = Some(done);
    }
    let setup = setup.expect("at least one set-up");
    let clock_ns = instrument::clock_overhead_ns();
    let lanes = ctx.workload.lanes();

    settle_disk(ctx, None)?;
    let plain = run_rep(ctx, "plain", &setup.specs, &setup.work, true, &mut out)?;
    let mut counts = plain.counts.clone();

    let sink_times = Arc::new(Mutex::new(SinkTimes::default()));
    let probe_dir = ctx.fresh_dir("probe-traces")?;
    let target = probe::SinkTarget {
        dir: &probe_dir,
        times: sink_times.clone(),
    };
    let every = if lanes > 1 {
        PROBE_EVERY_LANES
    } else {
        PROBE_EVERY
    };
    let sink = (ctx.workload == Workload::CachedSweep).then_some(&target);
    let probed = probe::run_probed(&setup.work, lanes, ctx.threads, every, sink)?;
    out.attempted += probed.reports.len() as u64;
    let (differing, first) = check::diff_rows(
        &plain.csv,
        &BatchReport {
            reports: probed.reports.clone(),
        }
        .to_csv(),
    );
    if differing > 0 {
        out.fail(
            differing,
            format!(
                "probed batch differs from plain batch: {}",
                first.unwrap_or_default()
            ),
        );
    }
    if probed.samples.mismatches > 0 {
        out.fail(
            probed.samples.mismatches,
            format!(
                "{} of {} probed thermal states differ from the real step",
                probed.samples.mismatches, probed.samples.compared
            ),
        );
    }
    for (name, got) in [
        ("sim.steps", probed.steps),
        ("thermal.substeps", probed.substeps),
    ] {
        if got != counts[name] {
            out.fail(
                1,
                format!("probed {name} {got} differs from {}", counts[name]),
            );
        }
    }
    if sink.is_some() {
        let (_, digests) = read_traces(&probe_dir, &mut out)?;
        if digests != plain.traces {
            out.fail(
                1,
                "traces written through the timed sink differ from the runner's",
            );
        }
    }

    let mut hash_us = Vec::with_capacity(setup.work.len() * 5);
    for item in &setup.work {
        for _ in 0..5 {
            let started = Instant::now();
            std::hint::black_box(ScenarioHash::of(&item.case).map_err(|e| e.to_string())?);
            hash_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }

    let mut warm = WarmCache::fill(
        ctx,
        &setup.work,
        &plain.reports,
        plain.cache_times.is_none(),
        &mut counts,
        &mut out,
    )?;
    while warm.hits_us.len() < HIT_SAMPLES {
        warm.pass(&setup.work, &plain.reports, &mut out)?;
    }
    let (mut hits_us, warm_times) = warm.finish(&mut out)?;
    let cache_times = plain.cache_times.clone().or(warm_times).unwrap_or_default();
    cross_path(ctx, &setup.work, &plain.reports, &mut out)?;
    check_reference(ctx, &plain.csv, &counts, &mut out);

    let mut s = probed.samples;
    let ns = |values: &mut Vec<f64>| (median(values) - clock_ns).max(0.0);
    let os_ns = ns(&mut s.os);
    let streaming_ns = ns(&mut s.streaming);
    let platform_ns = ns(&mut s.platform);
    let power_ns = ns(&mut s.power);
    let thermal_ns = ns(&mut s.thermal);
    let lane_advance_us = (median(&mut s.lane_advance_us) - clock_ns * 1e-3).max(0.0);
    let lane_step_us = (median(&mut s.lane_step_us) - clock_ns * 1e-3).max(0.0);
    // A lane step advances every lane once: its per-lane share is the step
    // time of the batched path, and the kernel's share replaces the scalar
    // thermal step.
    let (step_ns, thermal_share_ns) = if lanes > 1 {
        (
            lane_step_us * 1e3 / lanes as f64,
            lane_advance_us * 1e3 / lanes as f64,
        )
    } else {
        (ns(&mut s.step), thermal_ns)
    };
    let step_other_ns =
        step_ns - (os_ns + streaming_ns + platform_ns + power_ns + thermal_share_ns);
    let sink = *sink_times.lock().expect("sink timer lock poisoned");
    let sink_ns = if sink.calls > 0 {
        (sink.ns / sink.calls as f64 - clock_ns).max(0.0)
    } else {
        0.0
    };
    let mut loads = cache_times.loads_us.clone();
    let mut stores = cache_times.stores_us.clone();
    let hit_ratio = if loads.is_empty() {
        0.0
    } else {
        cache_times.hits as f64 / loads.len() as f64
    };
    let probe_overhead = probed.wall_s / plain.batch_s;

    out.metric("scenario.load_us", median(&mut load_s) * 1e6, "us");
    out.metric("scenario.expand_us", median(&mut expand_s) * 1e6, "us");
    out.metric("scenario.hash_us", median(&mut hash_us), "us");
    out.metric("scenario.cache_load_us", median(&mut loads), "us");
    out.metric("scenario.cache_store_us", median(&mut stores), "us");
    out.metric("scenario.cache_hit_ratio", hit_ratio, "ratio");
    out.metric("hit_us_p99", quantile(&mut hits_us, 0.99), "us");
    out.metric(
        "scenario.build_us",
        median(&mut probed.build_us.clone()),
        "us",
    );
    out.metric(
        "scenario.chunk_skew",
        chunk_skew(&probed.unit_s, ctx.threads),
        "ratio",
    );
    out.metric("sim.step_ns", step_ns, "ns");
    out.metric("sim.step_other_ns", step_other_ns, "ns");
    out.metric("lanes.step_us", lane_step_us, "us");
    out.metric("lanes.occupancy", plain.occupancy.unwrap_or(0.0), "lanes");
    out.metric("os.step_ns", os_ns, "ns");
    out.metric("streaming.step_ns", streaming_ns, "ns");
    out.metric("arch.platform_step_ns", platform_ns, "ns");
    out.metric("arch.power_ns", power_ns, "ns");
    out.metric("thermal.step_ns", thermal_ns, "ns");
    out.metric("thermal.lane_advance_us", lane_advance_us, "us");
    out.metric("obs.sink_ns", sink_ns, "ns");
    out.metric("obs.trace_bytes", counts["obs.trace_bytes"] as f64, "bytes");
    out.metric("sim.steps", counts["sim.steps"] as f64, "count");
    out.metric(
        "thermal.substeps",
        counts["thermal.substeps"] as f64,
        "count",
    );
    out.metric("os.migrations", counts["os.migrations"] as f64, "count");
    out.metric(
        "scenario.cache_hits",
        counts["scenario.cache_hits"] as f64,
        "count",
    );
    out.metric(
        "scenario.cache_misses",
        counts["scenario.cache_misses"] as f64,
        "count",
    );
    out.metric("probe.overhead", probe_overhead, "ratio");
    out.metric("probe.mismatches", s.mismatches as f64, "count");
    out.metric("probe.clock_ns", clock_ns, "ns");
    Ok((
        out,
        RunRecord {
            csv: plain.csv,
            counts,
            probe_overhead: Some(probe_overhead),
        },
    ))
}

/// How much longer the slowest thread runs than the mean, when `units`
/// (in execution order) are dealt out in contiguous chunks of
/// `ceil(n / threads)` as the runner's parallel map does.
fn chunk_skew(unit_s: &[f64], threads: usize) -> f64 {
    if unit_s.is_empty() {
        return 1.0;
    }
    let per_thread = unit_s.len().div_ceil(threads.max(1));
    let totals: Vec<f64> = unit_s.chunks(per_thread).map(|c| c.iter().sum()).collect();
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    let max = totals.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Writes this run's CSV and counts as the workload's reference.
fn bless(ctx: &Ctx, run: &RunRecord) -> Result<(), String> {
    if ctx.seed != DEFAULT_SEED {
        return Err(format!("--bless needs the default seed {DEFAULT_SEED}"));
    }
    let dir = check::reference_dir(&ctx.bench_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let name = ctx.workload.name();
    for (file, text) in [
        (format!("{name}.csv"), run.csv.clone()),
        (format!("{name}.counts"), check::counts_text(&run.counts)),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}

/// One JSON object naming where and on what a result was measured.
fn fingerprint(ctx: &Ctx, traced: bool, run: &RunRecord) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let simd = ["simd-a", "simd-b"]
        .map(|name| ScenarioSpec::new(name).build())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .ok()
        .and_then(|sims| LaneBatch::new(sims).ok())
        .map_or("unknown", |batch| batch.simd_label());
    let overhead = run
        .probe_overhead
        .map_or("null".to_string(), |ratio| ratio.to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"cpu\": {}, \"nproc\": {}, \
         \"simd\": {}, \"commit\": {}, \"csv_digest\": {}, \"traced_over_untraced_batch_s\": {}}}",
        json_string(ctx.workload.name()),
        ctx.seed,
        u8::from(traced),
        json_string(&cpu),
        ctx.threads,
        json_string(simd),
        json_string(&commit(&ctx.root)),
        json_string(&check::digest(run.csv.as_bytes())),
        overhead
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = args(&[
            "--workload",
            "cached-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::CachedSweep);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.bless),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper-batch", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper-batch", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "paper-batch", "--seed"]).is_err());
    }

    #[test]
    fn blocked_quantile_ignores_a_burst_in_one_block() {
        let mut samples = vec![100.0; 1000];
        samples[..100].iter_mut().for_each(|s| *s = 900.0);
        assert_eq!(blocked_quantile(&samples, 0.99), 100.0);
        assert_eq!(quantile(&mut samples.clone(), 0.99), 900.0);
        assert_eq!(blocked_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn chunk_skew_follows_contiguous_chunking() {
        assert_eq!(chunk_skew(&[1.0, 1.0, 1.0, 1.0], 2), 1.0);
        // Chunks {3, 1} and {1, 1}: slowest 4 over mean 3.
        assert!((chunk_skew(&[3.0, 1.0, 1.0, 1.0], 2) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(chunk_skew(&[], 2), 1.0);
    }
}
