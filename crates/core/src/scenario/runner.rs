//! Batch execution of scenarios.
//!
//! A [`Runner`] expands the sweep axes of a batch of [`ScenarioSpec`]s into
//! concrete runs, executes them — in parallel by default, one [`Simulation`]
//! per worker — and returns a [`BatchReport`] of structured [`RunReport`]s
//! with JSON and CSV emission. Report order follows expansion order
//! regardless of execution order, so a parallel batch is byte-identical to a
//! sequential one.
//!
//! Two orthogonal extensions make re-running sweeps cheap and batches
//! distributable:
//!
//! * **Caching** ([`Runner::with_cache`]) — before building a simulation the
//!   runner looks the run up in a [`RunCache`] under its
//!   [`ScenarioHash`]; hits are returned
//!   directly (re-labelled for the requesting spec) and misses are stored
//!   after execution. A warm re-run of a fully cached batch performs zero
//!   simulations. [`Runner::stats`] reports the hit/simulate counts.
//! * **Sharding** ([`Runner::run_shard`]) — executes one contiguous slice of
//!   the expanded batch and returns a
//!   [`PartialReport`]; merging a complete
//!   set of partials reproduces the single-process [`BatchReport`]
//!   byte-for-byte.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use tbp_arch::freq::{Frequency, OperatingPoint, Voltage};
use tbp_arch::power::{ComponentKind, CoreClass, PowerModel};
use tbp_arch::units::{Bytes, Celsius, Seconds};
use tbp_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use tbp_obs::FileSink;
use tbp_os::migration::{MigrationCostModel, MigrationStrategy};
use tbp_streaming::sdr::SdrBenchmark;
use tbp_streaming::workloads::WorkloadRegistry;
use tbp_thermal::package::PackageKind;

use crate::error::SimError;
use crate::metrics::SimulationSummary;
use crate::scenario::cache::RunCache;
use crate::scenario::hash::ScenarioHash;
use crate::scenario::registry::PolicyRegistry;
use crate::scenario::shard::{PartialReport, ShardPlan};
use crate::scenario::spec::{AnalysisKind, ScenarioSpec, TraceSpec};
use crate::sim::{step_count, LaneBatch, SimMetrics, Simulation};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Executes batches of scenarios and collects their reports.
#[derive(Clone)]
pub struct Runner {
    registry: Arc<PolicyRegistry>,
    workloads: Arc<WorkloadRegistry>,
    parallel: bool,
    cache: Option<Arc<dyn RunCache>>,
    trace_dir: Option<Arc<PathBuf>>,
    counters: Arc<RunnerCounters>,
    /// Lanes per [`LaneBatch`] when executing simulation misses batched
    /// (1 = the classic one-simulation-per-run path).
    lanes: usize,
    metrics: Option<RunnerMetrics>,
}

#[derive(Debug, Default)]
struct RunnerCounters {
    simulated: AtomicU64,
    analytic: AtomicU64,
    cache_hits: AtomicU64,
}

/// Cumulative execution counters of a [`Runner`] (shared by its clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// Simulations actually executed (cache misses of simulation runs).
    pub simulated: u64,
    /// Analytic tables actually computed (cache misses of table runs).
    pub analytic: u64,
    /// Runs answered from the cache without executing anything.
    pub cache_hits: u64,
}

impl RunnerStats {
    /// Total runs that were executed rather than answered from the cache.
    pub fn misses(&self) -> u64 {
        self.simulated + self.analytic
    }
}

/// Live-metric handles a [`Runner`] updates while executing a batch,
/// registered in a [`MetricsRegistry`] so a snapshot emitter or progress
/// reporter can observe the run from another thread. Purely additive:
/// attaching metrics changes no report, CSV byte, or cache entry.
#[derive(Clone, Debug)]
pub struct RunnerMetrics {
    /// Scenarios in the current batch (`runner.scenarios_total`), set when
    /// execution starts.
    pub scenarios_total: Gauge,
    /// Scenarios resolved so far — hits and executed runs alike
    /// (`runner.scenarios_completed`).
    pub scenarios_completed: Counter,
    /// Runs answered from the cache (`runner.cache_hits`).
    pub cache_hits: Counter,
    /// Runs executed rather than answered from the cache — simulated or
    /// analytic, mirroring [`RunnerStats::misses`] (`runner.cache_misses`).
    pub cache_misses: Counter,
    /// Simulations per [`LaneBatch`] chunk (`runner.lane_occupancy`).
    pub lane_occupancy: Histogram,
    /// Per-simulation hot-path instruments, attached to every simulation
    /// the runner builds.
    pub sim: SimMetrics,
}

impl RunnerMetrics {
    /// Registers (or re-resolves) the runner instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        RunnerMetrics {
            scenarios_total: registry.gauge("runner.scenarios_total"),
            scenarios_completed: registry.counter("runner.scenarios_completed"),
            cache_hits: registry.counter("runner.cache_hits"),
            cache_misses: registry.counter("runner.cache_misses"),
            lane_occupancy: registry
                .histogram("runner.lane_occupancy", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            sim: SimMetrics::register(registry),
        }
    }
}

impl Runner {
    /// A parallel runner using the global (built-in) policy and workload
    /// registries.
    pub fn new() -> Self {
        Runner {
            registry: PolicyRegistry::global(),
            workloads: WorkloadRegistry::global(),
            parallel: true,
            cache: None,
            trace_dir: None,
            counters: Arc::default(),
            lanes: 1,
            metrics: None,
        }
    }

    /// A sequential runner (single-threaded; useful for debugging and for
    /// verifying parallel determinism).
    pub fn sequential() -> Self {
        Runner {
            parallel: false,
            ..Runner::new()
        }
    }

    /// Resolves policies through `registry` instead of the global one.
    pub fn with_registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = Arc::new(registry);
        self
    }

    /// Resolves policies through an already-shared registry.
    pub fn with_registry_arc(mut self, registry: Arc<PolicyRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Resolves workload generator names (the `[workload] generator` field
    /// and the generated kinds) through `registry` instead of the global
    /// (built-ins only) workload registry — the hook that lets third-party
    /// workloads run from TOML scenarios.
    pub fn with_workload_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.workloads = Arc::new(registry);
        self
    }

    /// Resolves workload names through an already-shared registry.
    pub fn with_workload_registry_arc(mut self, registry: Arc<WorkloadRegistry>) -> Self {
        self.workloads = registry;
        self
    }

    /// Enables or disables parallel execution.
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Memoizes run reports in `cache`, keyed by scenario content hash.
    pub fn with_cache(self, cache: impl RunCache + 'static) -> Self {
        self.with_cache_arc(Arc::new(cache))
    }

    /// Memoizes run reports in an already-shared cache.
    pub fn with_cache_arc(mut self, cache: Arc<dyn RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Writes one binary trace per *simulated* run into `dir` (created on
    /// first use), named after the concrete scenario with a `.tbptrace`
    /// extension. The spec's `[trace]` table picks the sampling interval and
    /// track groups (all tracks every 100 ms when absent).
    ///
    /// Cache hits skip simulation entirely and therefore emit no trace:
    /// combine with a cold cache (or none) when the traces matter.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(Arc::new(dir.into()));
        self
    }

    /// Steps up to `lanes` simulation misses in lockstep through a shared
    /// [`LaneBatch`] instead of one simulation per run (values below 1 are
    /// clamped to 1, the classic path).
    ///
    /// Batching only groups runs that share a platform fingerprint
    /// (platform, package/solver, time step, step count); everything
    /// observable — reports, CSV, cache entries under the same
    /// [`ScenarioHash`] domain, `.tbptrace` files — is byte-identical to the
    /// per-scenario path, because each lane performs the exact same
    /// floating-point work (see [`LaneBatch`]). Runs whose platform cannot
    /// be batched fall back to individual stepping automatically.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Number of lanes configured via [`with_lanes`](Self::with_lanes).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Publishes live progress through `metrics` while batches execute:
    /// scenario totals/completions, cache hits/misses, lane occupancy, and
    /// the per-simulation step/migration/reconfiguration counters. Reports
    /// and cache entries stay byte-identical — the handles are written, not
    /// read.
    pub fn with_metrics(mut self, metrics: RunnerMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Cumulative execution counters: how many runs were simulated, computed
    /// analytically, or answered from the cache. Counters are shared with
    /// clones of this runner and accumulate across [`run`](Self::run) calls.
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            simulated: self.counters.simulated.load(Ordering::Relaxed),
            analytic: self.counters.analytic.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Expands every spec and executes all resulting runs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] before anything runs when a spec fails
    /// [`ScenarioSpec::validate`]. Otherwise returns the first error in
    /// expansion order; runs that already completed are discarded.
    ///
    /// # Example
    ///
    /// ```
    /// use tbp_core::scenario::{Runner, ScenarioSpec, SweepSpec};
    ///
    /// # fn main() -> Result<(), tbp_core::SimError> {
    /// let spec = ScenarioSpec::new("demo")
    ///     .with_schedule(0.2, 0.5) // short schedule to keep the doctest fast
    ///     .with_sweep(SweepSpec::default().with_thresholds([1.0, 3.0]));
    /// let batch = Runner::new().run(&[spec])?;
    /// assert_eq!(batch.len(), 2);
    /// assert_eq!(batch.reports[0].scenario, "demo[t1]");
    /// assert!(batch.reports[0].summary().is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(&self, specs: &[ScenarioSpec]) -> Result<BatchReport, SimError> {
        validate_batch(specs)?;
        let cases = expand_batch(specs);
        let reports = self.execute(cases)?;
        Ok(BatchReport { reports })
    }

    /// Runs a single spec (expanding its sweep) — convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_spec(&self, spec: &ScenarioSpec) -> Result<BatchReport, SimError> {
        self.run(std::slice::from_ref(spec))
    }

    /// Executes one shard of the expanded batch — the contiguous slice of
    /// runs `plan` assigns to this worker — and returns a [`PartialReport`]
    /// for [`PartialReport::merge`] to reassemble.
    ///
    /// Every worker must be given the same `specs` in the same order;
    /// expansion is deterministic, so the workers agree on the global run
    /// order without coordinating.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_shard(
        &self,
        specs: &[ScenarioSpec],
        plan: ShardPlan,
    ) -> Result<PartialReport, SimError> {
        validate_batch(specs)?;
        let mut cases = expand_batch(specs);
        let total = cases.len();
        let batch = ScenarioHash::of_batch(cases.iter().map(|(g, c)| (g.as_str(), c)))?;
        let range = plan.range(total);
        let slice: Vec<(String, ScenarioSpec)> = cases.drain(range.clone()).collect();
        let reports = self.execute(slice)?;
        Ok(PartialReport {
            shard_index: plan.index(),
            shard_count: plan.count(),
            start: range.start,
            total,
            batch: batch.to_hex(),
            reports,
        })
    }

    /// Expands every spec and executes the resulting runs through
    /// [`LaneBatch`]es of up to `lanes` simulations grouped by platform
    /// fingerprint — a convenience for
    /// `runner.clone().with_lanes(lanes).run(specs)`.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_batched(
        &self,
        specs: &[ScenarioSpec],
        lanes: usize,
    ) -> Result<BatchReport, SimError> {
        self.clone().with_lanes(lanes).run(specs)
    }

    /// Executes concrete cases (in parallel when enabled), preserving order.
    fn execute(&self, cases: Vec<(String, ScenarioSpec)>) -> Result<Vec<RunReport>, SimError> {
        if let Some(metrics) = &self.metrics {
            metrics.scenarios_total.set(cases.len() as f64);
        }
        if self.lanes > 1 {
            return self.execute_batched(cases);
        }
        let results: Vec<Result<RunReport, SimError>> = if self.parallel {
            cases
                .into_par_iter()
                .map(|(group, case)| self.run_case(group, &case))
                .collect()
        } else {
            cases
                .iter()
                .map(|(group, case)| self.run_case(group.clone(), case))
                .collect()
        };
        let mut reports = Vec::with_capacity(results.len());
        for result in results {
            reports.push(result?);
        }
        Ok(reports)
    }

    /// Executes one concrete (already expanded) scenario of the named group —
    /// the single-case entry point used by lease-granting distributed
    /// coordinators (see [`queue`](super::queue)), identical in every way
    /// (cache lookups, metrics, label re-stamping) to how [`run`](Self::run)
    /// executes that same case.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_one(&self, group: &str, case: &ScenarioSpec) -> Result<RunReport, SimError> {
        case.validate()?;
        self.run_case(group.to_string(), case)
    }

    /// Executes one concrete (already expanded) scenario of the named group,
    /// consulting the cache first when one is configured.
    fn run_case(&self, group: String, case: &ScenarioSpec) -> Result<RunReport, SimError> {
        let key = match &self.cache {
            Some(cache) => {
                let key = ScenarioHash::of(case)?;
                if let Some(mut report) = cache.load(&key) {
                    // The hash covers semantic content only; re-stamp the
                    // labels so a renamed scenario reuses its cached runs.
                    report.scenario = case.name.clone();
                    report.group = group;
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(metrics) = &self.metrics {
                        metrics.cache_hits.inc();
                        metrics.scenarios_completed.inc();
                    }
                    return Ok(report);
                }
                Some((cache, key))
            }
            None => None,
        };
        let report = if let Some(kind) = case.analysis {
            self.counters.analytic.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &self.metrics {
                metrics.cache_misses.inc();
                metrics.scenarios_completed.inc();
            }
            RunReport {
                scenario: case.name.clone(),
                group,
                policy: None,
                workload: None,
                package: None,
                threshold: None,
                queue_capacity: None,
                outcome: RunOutcome::Table(kind.compute()),
            }
        } else {
            // Phases firing at t = 0 fold into the static sections first
            // (applying a delta before the first step is equivalent to
            // starting with it), so a phased spec whose only delta fires at
            // t = 0 runs — and reports — exactly like its static equivalent.
            let folded = case.fold_initial_phases()?;
            let mut sim: Simulation =
                folded.build_with_registries(&self.registry, self.workloads.clone())?;
            sim.set_policy_registry(self.registry.clone());
            if let Some(metrics) = &self.metrics {
                sim.attach_metrics(metrics.sim.clone());
            }
            if let Some(dir) = &self.trace_dir {
                attach_file_sink(&mut sim, dir, &case.name, case.trace.as_ref())?;
            }
            run_phased(&mut sim, &folded)?;
            sim.detach_trace_sink()?;
            self.counters.simulated.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &self.metrics {
                metrics.cache_misses.inc();
                metrics.scenarios_completed.inc();
            }
            RunReport {
                scenario: case.name.clone(),
                group,
                policy: Some(folded.policy_spec().name),
                workload: Some(folded.workload_label()),
                package: Some(folded.package_kind()),
                threshold: Some(folded.threshold()),
                queue_capacity: folded.queue_capacity(),
                outcome: RunOutcome::Simulation(Box::new(sim.summary())),
            }
        };
        if let Some((cache, key)) = key {
            cache.store(&key, &report);
        }
        Ok(report)
    }

    /// Lane-batched form of [`execute`](Self::execute): answers cache hits
    /// and analytic tables exactly like the per-case path, groups the
    /// remaining simulation misses by platform fingerprint, and steps each
    /// group through [`LaneBatch`]es of up to `self.lanes` simulations.
    /// Reports come back in expansion order regardless of grouping.
    fn execute_batched(
        &self,
        cases: Vec<(String, ScenarioSpec)>,
    ) -> Result<Vec<RunReport>, SimError> {
        // Pass 1 — cheap outcomes (cache hits, analytic tables) inline;
        // simulation misses become pending lane work.
        let mut slots: Vec<Option<RunReport>> = Vec::with_capacity(cases.len());
        slots.resize_with(cases.len(), || None);
        let mut pending: Vec<PendingLane> = Vec::new();
        for (idx, (group, case)) in cases.into_iter().enumerate() {
            let key = match &self.cache {
                Some(cache) => {
                    let key = ScenarioHash::of(&case)?;
                    if let Some(mut report) = cache.load(&key) {
                        report.scenario = case.name.clone();
                        report.group = group;
                        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(metrics) = &self.metrics {
                            metrics.cache_hits.inc();
                            metrics.scenarios_completed.inc();
                        }
                        slots[idx] = Some(report);
                        continue;
                    }
                    Some(key)
                }
                None => None,
            };
            if let Some(kind) = case.analysis {
                self.counters.analytic.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = &self.metrics {
                    metrics.cache_misses.inc();
                    metrics.scenarios_completed.inc();
                }
                let report = RunReport {
                    scenario: case.name.clone(),
                    group,
                    policy: None,
                    workload: None,
                    package: None,
                    threshold: None,
                    queue_capacity: None,
                    outcome: RunOutcome::Table(kind.compute()),
                };
                if let (Some(cache), Some(key)) = (&self.cache, &key) {
                    cache.store(key, &report);
                }
                slots[idx] = Some(report);
                continue;
            }
            let folded = case.fold_initial_phases()?;
            pending.push(PendingLane {
                idx,
                group,
                case,
                folded,
                key,
            });
        }

        // Group misses by platform fingerprint (preserving expansion order
        // within each group — grouping must not reorder reports), then cut
        // each group into chunks of at most `self.lanes`.
        let mut groups: Vec<(String, Vec<PendingLane>)> = Vec::new();
        for p in pending {
            let print = lane_fingerprint(&p.folded);
            match groups.iter_mut().find(|(g, _)| *g == print) {
                Some((_, members)) => members.push(p),
                None => groups.push((print, vec![p])),
            }
        }
        let mut chunks: Vec<Vec<PendingLane>> = Vec::new();
        for (_, mut members) in groups {
            while !members.is_empty() {
                let rest = members.split_off(members.len().min(self.lanes));
                chunks.push(std::mem::replace(&mut members, rest));
            }
        }

        // Execute the chunks; attribute a chunk-level error to its first
        // case so the earliest error in expansion order wins, like the
        // per-case path.
        type ChunkResult = Result<Vec<(usize, RunReport)>, (usize, SimError)>;
        let to_result = |chunk: Vec<PendingLane>| -> ChunkResult {
            let first_idx = chunk[0].idx;
            self.run_lane_chunk(chunk).map_err(|e| (first_idx, e))
        };
        let results: Vec<ChunkResult> = if self.parallel {
            chunks.into_par_iter().map(to_result).collect()
        } else {
            chunks.into_iter().map(to_result).collect()
        };
        let mut first_err: Option<(usize, SimError)> = None;
        for result in results {
            match result {
                Ok(reports) => {
                    for (idx, report) in reports {
                        slots[idx] = Some(report);
                    }
                }
                Err((idx, e)) => {
                    if first_err.as_ref().is_none_or(|(i, _)| idx < *i) {
                        first_err = Some((idx, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every case produced a report"))
            .collect())
    }

    /// Builds, steps, and reports one chunk of simulation misses that share
    /// a platform fingerprint. Uses a [`LaneBatch`] when the platforms
    /// verify as identical; otherwise falls back to stepping the already
    /// built simulations individually (byte-identical either way).
    fn run_lane_chunk(&self, chunk: Vec<PendingLane>) -> Result<Vec<(usize, RunReport)>, SimError> {
        if let Some(metrics) = &self.metrics {
            metrics.lane_occupancy.observe(chunk.len() as f64);
        }
        let mut sims = Vec::with_capacity(chunk.len());
        for p in &chunk {
            let mut sim: Simulation = p
                .folded
                .build_with_registries(&self.registry, self.workloads.clone())?;
            sim.set_policy_registry(self.registry.clone());
            if let Some(metrics) = &self.metrics {
                sim.attach_metrics(metrics.sim.clone());
            }
            if let Some(dir) = &self.trace_dir {
                attach_file_sink(&mut sim, dir, &p.case.name, p.case.trace.as_ref())?;
            }
            sims.push(sim);
        }
        let sims = match LaneBatch::new(sims) {
            Ok(mut batch) => {
                run_phased_batch(&mut batch, &chunk)?;
                batch.into_lanes()
            }
            Err(build_err) => {
                let mut sims = build_err.sims;
                for (sim, p) in sims.iter_mut().zip(&chunk) {
                    run_phased(sim, &p.folded)?;
                }
                sims
            }
        };
        let mut out = Vec::with_capacity(chunk.len());
        for (mut sim, p) in sims.into_iter().zip(chunk) {
            sim.detach_trace_sink()?;
            self.counters.simulated.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &self.metrics {
                metrics.cache_misses.inc();
                metrics.scenarios_completed.inc();
            }
            let report = RunReport {
                scenario: p.case.name.clone(),
                group: p.group,
                policy: Some(p.folded.policy_spec().name),
                workload: Some(p.folded.workload_label()),
                package: Some(p.folded.package_kind()),
                threshold: Some(p.folded.threshold()),
                queue_capacity: p.folded.queue_capacity(),
                outcome: RunOutcome::Simulation(Box::new(sim.summary())),
            };
            if let (Some(cache), Some(key)) = (&self.cache, &p.key) {
                cache.store(key, &report);
            }
            out.push((p.idx, report));
        }
        Ok(out)
    }
}

/// A simulation miss awaiting lane-batched execution.
struct PendingLane {
    /// Position in the expanded batch (report order).
    idx: usize,
    group: String,
    /// The original expanded case (labels, trace table).
    case: ScenarioSpec,
    /// The case with t = 0 phases folded in — what actually builds and runs.
    folded: ScenarioSpec,
    /// Cache key computed in pass 1, stored after the simulation completes.
    key: Option<ScenarioHash>,
}

/// Coarse grouping key for lane batching: runs may share a [`LaneBatch`]
/// only when platform, package, solver, time step, and step count agree.
/// The fingerprint is an efficiency pre-filter — [`LaneBatch::new`] verifies
/// the built thermal platforms field-for-field and incompatible chunks fall
/// back to individual stepping, so a collision cannot corrupt results.
fn lane_fingerprint(folded: &ScenarioSpec) -> String {
    let schedule = folded.schedule();
    format!(
        "{:?}|{:?}|{:x}|{}",
        folded.platform,
        folded.package_kind(),
        schedule.time_step.as_secs().to_bits(),
        step_count(folded.total_duration(), schedule.time_step),
    )
}

/// Lane-batched form of [`run_phased`]: advances all lanes in lockstep,
/// pausing at every step index where any lane has a phase due and applying
/// that lane's deltas there — exactly where [`run_phased`] would apply them
/// when stepping the lane alone. Per-lane phase lists are truncated at the
/// first phase due at or past the end of the run, mirroring [`run_phased`]'s
/// early `break` (later phases never fire, even out-of-order ones).
fn run_phased_batch(batch: &mut LaneBatch, chunk: &[PendingLane]) -> Result<(), SimError> {
    let dt = batch.time_step();
    let total_steps = step_count(chunk[0].folded.total_duration(), dt);
    // The fingerprint groups by step count; re-verify rather than trust it.
    if let Some(p) = chunk
        .iter()
        .find(|p| step_count(p.folded.total_duration(), dt) != total_steps)
    {
        return Err(SimError::InvalidConfig(format!(
            "lane batch step counts diverge (case `{}`)",
            p.case.name
        )));
    }
    // Per lane: remaining (due step, delta) pairs plus a cursor.
    let mut cursors: Vec<(Vec<(u64, crate::scenario::spec::SpecDelta)>, usize)> = chunk
        .iter()
        .map(|p| {
            let mut list = Vec::new();
            if let Some(phases) = &p.folded.phases {
                for phase in phases {
                    let due = step_count(Seconds::new(phase.at), dt);
                    if due >= total_steps {
                        break;
                    }
                    list.push((due, phase.delta()));
                }
            }
            (list, 0)
        })
        .collect();
    let mut done: u64 = 0;
    loop {
        for (lane, (list, next)) in cursors.iter_mut().enumerate() {
            while *next < list.len() && list[*next].0 <= done {
                batch
                    .lane_mut(lane)
                    .expect("lane index within batch")
                    .apply_delta(&list[*next].1)?;
                *next += 1;
            }
        }
        if done >= total_steps {
            break;
        }
        let target = cursors
            .iter()
            .filter_map(|(list, next)| list.get(*next).map(|&(due, _)| due))
            .min()
            .map_or(total_steps, |due| due.min(total_steps));
        batch.run_steps(target - done)?;
        done = target;
    }
    Ok(())
}

/// File name of the binary trace of the named concrete scenario: characters
/// outside `[A-Za-z0-9._-]` (sweep expansion produces `[` and `]`) degrade
/// to `_`, extension `.tbptrace`.
fn trace_file_name(scenario: &str) -> String {
    let mut name: String = scenario
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() {
        name.push('_');
    }
    name.push_str(".tbptrace");
    name
}

/// Attaches a file-backed observability sink to `sim`, honouring the spec's
/// `[trace]` table (all tracks every 100 ms when absent).
fn attach_file_sink(
    sim: &mut Simulation,
    dir: &Path,
    scenario: &str,
    spec: Option<&TraceSpec>,
) -> Result<(), SimError> {
    let default_spec = TraceSpec::default();
    let spec = spec.unwrap_or(&default_spec);
    let interval = spec.interval()?;
    let selection = spec.selection()?;
    std::fs::create_dir_all(dir)
        .map_err(|e| SimError::Trace(format!("create trace dir {}: {e}", dir.display())))?;
    let path = dir.join(trace_file_name(scenario));
    let sink = FileSink::create(&path)
        .map_err(|e| SimError::Trace(format!("create trace file {}: {e}", path.display())))?;
    sim.attach_trace_sink(Box::new(sink), interval, selection)
}

/// Executes one (possibly phased) concrete scenario to its end, applying
/// each remaining phase's delta at its due step.
///
/// Segment boundaries are computed as *step counts* from the declared phase
/// times — not by subtracting accumulated elapsed time, whose float error
/// would make boundary placement depend on execution history — so phased
/// runs are deterministic and a run with zero phases steps exactly as
/// [`Simulation::run_for`] would. Phases at or beyond the end of the run
/// never fire.
fn run_phased(sim: &mut Simulation, case: &ScenarioSpec) -> Result<(), SimError> {
    let dt = sim.config().time_step;
    let total_steps = step_count(case.total_duration(), dt);
    let mut done: u64 = 0;
    if let Some(phases) = &case.phases {
        for phase in phases {
            let due = step_count(Seconds::new(phase.at), dt);
            if due >= total_steps {
                break;
            }
            for _ in done..due {
                sim.step()?;
            }
            done = done.max(due);
            sim.apply_delta(&phase.delta())?;
        }
    }
    for _ in done..total_steps {
        sim.step()?;
    }
    Ok(())
}

/// The digest identifying the expanded batch of a spec list — what shard
/// workers stamp into their [`PartialReport`]s. Merge hosts compare it
/// against the partials they are handed to reject mixed-up batches.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when a spec fails
/// [`ScenarioSpec::validate`] or an expanded case cannot be hashed.
pub fn batch_digest(specs: &[ScenarioSpec]) -> Result<ScenarioHash, SimError> {
    validate_batch(specs)?;
    let cases = expand_batch(specs);
    ScenarioHash::of_batch(cases.iter().map(|(group, case)| (group.as_str(), case)))
}

/// Validates every spec of a batch before it is expanded, so an invalid
/// value can reach neither a simulation nor the cache. Validating the
/// unexpanded spec covers its cases: expansion only substitutes sweep values,
/// which [`ScenarioSpec::validate`] checks too.
fn validate_batch(specs: &[ScenarioSpec]) -> Result<(), SimError> {
    specs.iter().try_for_each(ScenarioSpec::validate)
}

/// Expands a spec list into `(group, concrete case)` pairs in the global,
/// deterministic batch order shared by [`Runner::run`] and
/// [`Runner::run_shard`].
pub(crate) fn expand_batch(specs: &[ScenarioSpec]) -> Vec<(String, ScenarioSpec)> {
    specs
        .iter()
        .flat_map(|spec| {
            spec.expand()
                .into_iter()
                .map(|case| (spec.name.clone(), case))
        })
        .collect()
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("registry", &self.registry)
            .field("parallel", &self.parallel)
            .field("cached", &self.cache.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Structured result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Fully expanded scenario name (base name + swept coordinates).
    pub scenario: String,
    /// The base name of the spec this run expanded from (exactly; no name
    /// parsing is involved, so base names may contain any characters).
    pub group: String,
    /// Policy that ran (`None` for analytic tables).
    pub policy: Option<String>,
    /// Workload label the run executed (`None` for analytic tables); the
    /// custom generator name for registry-resolved third-party workloads.
    pub workload: Option<String>,
    /// Thermal package (`None` for analytic tables).
    pub package: Option<PackageKind>,
    /// Policy threshold in °C (`None` for analytic tables).
    pub threshold: Option<f64>,
    /// SDR queue capacity override, when the scenario set one.
    pub queue_capacity: Option<usize>,
    /// What the run produced.
    pub outcome: RunOutcome,
}

impl RunReport {
    /// The simulation summary, when the run was a simulation.
    pub fn summary(&self) -> Option<&SimulationSummary> {
        match &self.outcome {
            RunOutcome::Simulation(summary) => Some(summary),
            RunOutcome::Table(_) => None,
        }
    }

    /// The analytic table, when the run was one.
    pub fn table(&self) -> Option<&TableReport> {
        match &self.outcome {
            RunOutcome::Table(table) => Some(table),
            RunOutcome::Simulation(_) => None,
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// A full co-simulation summary.
    Simulation(Box<SimulationSummary>),
    /// An analytic table.
    Table(TableReport),
}

/// A printable table produced by an analytic scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableReport {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

/// The ordered reports of one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// One report per expanded run, in expansion order.
    pub reports: Vec<RunReport>,
}

impl BatchReport {
    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Reports belonging to the scenario whose base name is `group`.
    pub fn group(&self, group: &str) -> Vec<&RunReport> {
        self.reports.iter().filter(|r| r.group == group).collect()
    }

    /// Pretty-printed JSON of every report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// CSV of the simulation reports (analytic tables are skipped), one row
    /// per run with the headline metrics of the paper's evaluation.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,policy,workload,package,threshold_c,queue_capacity,sigma_spatial_c,\
             mean_spread_c,peak_c,frames_delivered,deadline_misses,miss_rate,migrations,\
             migrations_per_s,migrated_kib_per_s,halts,reconfigs,measured_s,trace_dropped\n",
        );
        for report in &self.reports {
            let Some(summary) = report.summary() else {
                continue;
            };
            let row = [
                csv_field(&report.scenario),
                csv_field(report.policy.as_deref().unwrap_or("")),
                csv_field(report.workload.as_deref().unwrap_or("")),
                csv_field(&report.package.map_or(String::new(), |p| p.to_string())),
                report.threshold.map_or(String::new(), |t| format!("{t}")),
                report
                    .queue_capacity
                    .map_or(String::new(), |q| q.to_string()),
                format!("{:.4}", summary.mean_spatial_std_dev()),
                format!("{:.4}", summary.mean_spread()),
                format!("{:.2}", summary.thermal.peak_temperature),
                summary.qos.frames_delivered.to_string(),
                summary.qos.deadline_misses.to_string(),
                format!("{:.4}", summary.qos.miss_rate()),
                summary.migration.migrations.to_string(),
                format!("{:.3}", summary.migrations_per_second()),
                format!("{:.1}", summary.migrated_kib_per_second()),
                summary.migration.halts.to_string(),
                summary.reconfigs.to_string(),
                format!("{:.2}", summary.measured_time.as_secs()),
                summary.trace_dropped.to_string(),
            ];
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

fn csv_field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

impl AnalysisKind {
    /// Computes the analytic table for this kind.
    pub fn compute(&self) -> TableReport {
        match self {
            AnalysisKind::Table1Power => table1_power(),
            AnalysisKind::Table2Mapping => table2_mapping(),
            AnalysisKind::Fig2MigrationCost => fig2_migration_cost(),
        }
    }
}

/// Table 1: component power at the reference and half operating points.
fn table1_power() -> TableReport {
    let model = PowerModel::new();
    let reference = OperatingPoint::new(Frequency::from_mhz(500.0), Voltage::new(1.2));
    let half = OperatingPoint::new(Frequency::from_mhz(266.0), Voltage::new(1.0));
    let t = Celsius::new(60.0);
    let core_row = |name: &str, class: CoreClass| {
        vec![
            name.to_string(),
            format!(
                "{}",
                model
                    .core_power(class, reference, 1.0, t)
                    .expect("full utilization is valid")
            ),
            format!(
                "{}",
                model
                    .core_power(class, half, 1.0, t)
                    .expect("full utilization is valid")
            ),
        ]
    };
    let component_row = |name: &str, kind: ComponentKind| {
        vec![
            name.to_string(),
            format!(
                "{}",
                model
                    .component_power(kind, reference, 1.0, t)
                    .expect("full utilization is valid")
            ),
            format!(
                "{}",
                model
                    .component_power(kind, half, 1.0, t)
                    .expect("full utilization is valid")
            ),
        ]
    };
    TableReport {
        title: "Table 1 — component power in 0.09 µm CMOS".to_string(),
        header: vec![
            "component".to_string(),
            "max power @500 MHz/1.2 V".to_string(),
            "power @266 MHz/1.0 V".to_string(),
        ],
        rows: vec![
            core_row("RISC32-streaming (Conf1)", CoreClass::Risc32Streaming),
            core_row("RISC32-ARM11 (Conf2)", CoreClass::Risc32Arm11),
            component_row("DCache 8kB/2way", ComponentKind::DCache),
            component_row("ICache 8kB/DM", ComponentKind::ICache),
            component_row("Memory 32kB", ComponentKind::Memory32k),
        ],
    }
}

/// Table 2: the SDR task set and its initial energy-balanced mapping.
fn table2_mapping() -> TableReport {
    let sdr = SdrBenchmark::paper_default();
    TableReport {
        title: "Table 2 — SDR application mapping".to_string(),
        header: vec![
            "core / freq.".to_string(),
            "task".to_string(),
            "load [%]".to_string(),
            "FSE load".to_string(),
        ],
        rows: sdr
            .mapping()
            .iter()
            .map(|entry| {
                vec![
                    format!(
                        "Core {} ({:.0} MHz)",
                        entry.core.index() + 1,
                        entry.core_frequency_mhz
                    ),
                    entry.name.clone(),
                    format!("{:.1}", entry.load_percent),
                    format!("{:.3}", entry.fse_load()),
                ]
            })
            .collect(),
    }
}

/// Figure 2: migration cost vs. task size for both migration back-ends.
fn fig2_migration_cost() -> TableReport {
    let model = MigrationCostModel::paper_default();
    let sizes_kib = [64u64, 96, 128, 192, 256, 384, 512, 640, 768, 896, 1024];
    TableReport {
        title: "Figure 2 — migration cost vs task size".to_string(),
        header: vec![
            "task size [KiB]".to_string(),
            "replication [kcycles]".to_string(),
            "re-creation [kcycles]".to_string(),
            "repl. slope [cyc/B]".to_string(),
            "recr. slope [cyc/B]".to_string(),
        ],
        rows: sizes_kib
            .iter()
            .map(|&kib| {
                let size = Bytes::from_kib(kib);
                let repl = model.cycles(MigrationStrategy::TaskReplication, size);
                let recr = model.cycles(MigrationStrategy::TaskRecreation, size);
                vec![
                    format!("{kib}"),
                    format!("{:.0}", repl / 1e3),
                    format!("{:.0}", recr / 1e3),
                    format!(
                        "{:.2}",
                        model.slope_at(MigrationStrategy::TaskReplication, size)
                    ),
                    format!(
                        "{:.2}",
                        model.slope_at(MigrationStrategy::TaskRecreation, size)
                    ),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::SweepSpec;

    fn quick_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name)
            .with_package(PackageKind::HighPerformance)
            .with_schedule(0.5, 1.0)
    }

    #[test]
    fn analysis_scenarios_produce_tables() {
        let batch = Runner::sequential()
            .run(&[
                ScenarioSpec::analysis("table1", AnalysisKind::Table1Power),
                ScenarioSpec::analysis("table2", AnalysisKind::Table2Mapping),
                ScenarioSpec::analysis("fig2", AnalysisKind::Fig2MigrationCost),
            ])
            .expect("analysis runs");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.reports[0].table().unwrap().rows.len(), 5);
        assert_eq!(batch.reports[1].table().unwrap().header.len(), 4);
        assert_eq!(batch.reports[2].table().unwrap().rows.len(), 11);
        assert!(batch.reports.iter().all(|r| r.summary().is_none()));
        // Tables are excluded from the CSV: only the header line remains.
        assert_eq!(batch.to_csv().lines().count(), 1);
    }

    #[test]
    fn simulation_reports_carry_the_expanded_coordinates() {
        let spec = quick_spec("mini").with_sweep(
            SweepSpec::default()
                .with_policies(["dvfs-only", "energy-balancing"])
                .with_thresholds([2.0]),
        );
        let batch = Runner::new().run_spec(&spec).expect("batch runs");
        assert_eq!(batch.len(), 2);
        let report = &batch.reports[0];
        assert_eq!(report.scenario, "mini[dvfs-only/t2]");
        assert_eq!(report.group, "mini");
        assert_eq!(report.policy.as_deref(), Some("dvfs-only"));
        assert_eq!(report.package, Some(PackageKind::HighPerformance));
        assert_eq!(report.threshold, Some(2.0));
        let summary = report.summary().expect("simulation outcome");
        assert!(summary.qos.frames_delivered > 0);
        assert_eq!(batch.group("mini").len(), 2);
        // CSV: header + one row per simulation.
        assert_eq!(batch.to_csv().lines().count(), 3);
    }

    #[test]
    fn unknown_policy_fails_the_batch() {
        let spec = quick_spec("bad").with_policy("not-a-policy", 1.0);
        let err = Runner::new().run_spec(&spec).unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { .. }));
    }

    #[test]
    fn batched_execution_is_byte_identical_to_per_case() {
        // Mixed packages force two fingerprint groups; mixed policies and
        // thresholds exercise per-lane divergence inside a group.
        let spec = quick_spec("sweep").with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_policies(["dvfs-only", "energy-balancing"])
                .with_thresholds([2.0, 3.0]),
        );
        let solo = Runner::sequential().run_spec(&spec).expect("solo runs");
        for lanes in [2, 4, 8] {
            let batched = Runner::sequential()
                .with_lanes(lanes)
                .run_spec(&spec)
                .expect("batched runs");
            assert_eq!(solo.to_csv(), batched.to_csv(), "{lanes}-lane CSV");
            assert_eq!(
                serde_json::to_string(&solo.reports).unwrap(),
                serde_json::to_string(&batched.reports).unwrap(),
                "{lanes}-lane reports"
            );
        }
    }

    #[test]
    fn run_batched_wrapper_and_lane_floor() {
        assert_eq!(Runner::new().with_lanes(0).lanes(), 1);
        assert_eq!(Runner::new().lanes(), 1);
        let spec = quick_spec("wrap").with_sweep(SweepSpec::default().with_thresholds([1.0, 2.0]));
        let solo = Runner::sequential().run_spec(&spec).expect("solo runs");
        let batched = Runner::sequential()
            .run_batched(std::slice::from_ref(&spec), 2)
            .expect("batched runs");
        assert_eq!(solo.to_csv(), batched.to_csv());
    }

    #[test]
    fn batched_execution_handles_analysis_and_simulation_mix() {
        let specs = [
            ScenarioSpec::analysis("table1", AnalysisKind::Table1Power),
            quick_spec("sim"),
        ];
        let solo = Runner::sequential().run(&specs).expect("solo runs");
        let batched = Runner::sequential()
            .with_lanes(4)
            .run(&specs)
            .expect("batched runs");
        assert_eq!(batched.reports[0].table().unwrap().rows.len(), 5);
        assert_eq!(solo.to_csv(), batched.to_csv());
    }

    #[test]
    fn csv_quotes_awkward_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
