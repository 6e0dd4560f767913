//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a plain data value (serde-serializable, so TOML and
//! JSON files round-trip) describing everything one simulation run needs:
//! platform, thermal package, workload, policy and schedule. A spec may also
//! carry a [`SweepSpec`] whose axes expand one spec into a grid of concrete
//! runs ([`ScenarioSpec::expand`]).

use serde::{Deserialize, Serialize};

use tbp_arch::platform::PlatformConfig;
use tbp_arch::units::Seconds;
use tbp_os::migration::MigrationStrategy;
use tbp_streaming::pipeline::PipelineConfig;
use tbp_streaming::sdr::SdrBenchmark;
use tbp_streaming::workload::WorkloadSpec;
use tbp_streaming::workloads::{DagKnobs, VideoKnobs, WorkloadParams, WorkloadRegistry};
use tbp_thermal::package::{Package, PackageKind};
use tbp_thermal::solver::SolverKind;

use crate::error::SimError;
use crate::scenario::registry::PolicyRegistry;
use crate::sim::builder::Workload;
use crate::sim::{step_count, Simulation, SimulationBuilder, SimulationConfig};
use crate::trace::TrackSelection;

/// Default policy threshold (°C) when a spec does not name one.
pub const DEFAULT_THRESHOLD: f64 = 3.0;

/// Default thermal solver when the platform section does not name one.
pub const DEFAULT_SOLVER: SolverKind = SolverKind::ForwardEuler;

/// Default migration back-end when the platform section does not name one
/// (task replication is the strategy the paper deploys).
pub const DEFAULT_MIGRATION: MigrationStrategy = MigrationStrategy::TaskReplication;

/// Default DVFS-governor setting when the platform section does not name one.
pub const DEFAULT_DVFS: bool = true;

/// The most co-simulation steps one run may take (warm-up plus measured
/// window over the time step): 10⁸, about 3900× the longest run
/// `perfbench` times (~25.6k steps) and 5.8 simulated days at the default
/// 5 ms step. A larger count is a unit slip (a duration in milliseconds, a
/// step in seconds), so [`ScenarioSpec::validate`] rejects it instead of
/// tying up a worker for hours.
pub const MAX_RUN_STEPS: u64 = 100_000_000;

/// A declarative description of one experiment (or, with a sweep, a grid of
/// experiments).
///
/// All sections are optional and default to the paper's headline setup: the
/// 3-core platform, mobile-embedded package, SDR workload and the thermal
/// balancing policy at ±3 °C, simulated for 8 s of warm-up + 20 s measured.
///
/// ```
/// use tbp_core::scenario::ScenarioSpec;
///
/// let spec: ScenarioSpec = toml::from_str(
///     r#"
///     name = "demo"
///
///     [policy]
///     name = "thermal-balancing"
///     threshold = 2.0
///
///     [schedule]
///     warmup = 1.0
///     duration = 2.0
///
///     [sweep]
///     thresholds = [1.0, 2.0]
///     policies = ["thermal-balancing", "stop-and-go"]
///     "#,
/// )
/// .expect("valid TOML");
/// assert_eq!(spec.expand().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Name of the scenario (used in reports; sweep expansion suffixes it).
    pub name: String,
    /// Free-form description.
    pub description: Option<String>,
    /// When set, the scenario is an analytic table (no simulation runs).
    pub analysis: Option<AnalysisKind>,
    /// Platform overrides.
    pub platform: Option<PlatformSpec>,
    /// Thermal package selection.
    pub package: Option<PackageKind>,
    /// Workload selection.
    pub workload: Option<WorkloadDecl>,
    /// Policy selection (resolved through a [`PolicyRegistry`]).
    pub policy: Option<PolicySpec>,
    /// Timing of the run.
    pub schedule: Option<ScheduleSpec>,
    /// Sweep axes expanding this spec into a grid of concrete runs.
    pub sweep: Option<SweepSpec>,
    /// Live-reconfiguration phases (`[[phases]]` in TOML): validated,
    /// time-ordered deltas the runner applies to the *running* simulation.
    pub phases: Option<Vec<PhaseSpec>>,
    /// Observability-sink settings (`[trace]` in TOML). Tracing observes a
    /// run without changing it, so this section is excluded from the
    /// scenario hash.
    pub trace: Option<TraceSpec>,
}

impl ScenarioSpec {
    /// A spec with every section defaulted (the paper's headline setup).
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: None,
            analysis: None,
            platform: None,
            package: None,
            workload: None,
            policy: None,
            schedule: None,
            sweep: None,
            phases: None,
            trace: None,
        }
    }

    /// An analytic-table scenario (no simulation).
    pub fn analysis(name: impl Into<String>, kind: AnalysisKind) -> Self {
        let mut spec = ScenarioSpec::new(name);
        spec.analysis = Some(kind);
        spec
    }

    /// Sets the description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Sets the thermal package.
    pub fn with_package(mut self, package: PackageKind) -> Self {
        self.package = Some(package);
        self
    }

    /// Sets the policy by name and threshold.
    pub fn with_policy(mut self, name: impl Into<String>, threshold: f64) -> Self {
        self.policy = Some(PolicySpec::named(name).with_threshold(threshold));
        self
    }

    /// Sets warm-up and measured duration (seconds).
    pub fn with_schedule(mut self, warmup: f64, duration: f64) -> Self {
        let mut schedule = self.schedule.unwrap_or_default();
        schedule.warmup = Some(warmup);
        schedule.duration = Some(duration);
        self.schedule = Some(schedule);
        self
    }

    /// Sets the workload declaration.
    pub fn with_workload(mut self, workload: WorkloadDecl) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the sweep axes.
    pub fn with_sweep(mut self, sweep: SweepSpec) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Sets the live-reconfiguration phases.
    pub fn with_phases(mut self, phases: impl Into<Vec<PhaseSpec>>) -> Self {
        self.phases = Some(phases.into());
        self
    }

    /// Whether the spec declares a `[[phases]]` table (even an empty one).
    /// Phased specs hash under the `v3` domain; see
    /// [`ScenarioHash`](crate::scenario::ScenarioHash).
    pub fn has_phases(&self) -> bool {
        self.phases.is_some()
    }

    /// Validates every numeric field before the spec can reach a simulation
    /// or a cache. Called by [`from_toml_str`](Self::from_toml_str),
    /// [`from_json_str`](Self::from_json_str), the runner's batch expansion
    /// and [`build`](Self::build). It rejects:
    ///
    /// * a non-finite or negative `threshold` (policy or sweep axis);
    /// * a non-finite or negative `warmup` or `duration`;
    /// * a non-finite or non-positive `time_step_ms` or `policy_period_ms`;
    /// * any `trace_interval_ms` (retired; the sink's `[trace] interval_ms`
    ///   sets the sampling period);
    /// * a run longer than [`MAX_RUN_STEPS`] steps;
    /// * an invalid `[trace]` table ([`TraceSpec::interval`],
    ///   [`TraceSpec::selection`]);
    /// * an invalid `[[phases]]` table ([`validate_phases`](Self::validate_phases)).
    ///
    /// A valid spec passes without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] naming the scenario and the field.
    pub fn validate(&self) -> Result<(), SimError> {
        let field = |field: &str, requirement: &str, value: f64| {
            SimError::Spec(format!(
                "scenario `{}`: `{field}` must be {requirement} (got {value})",
                self.name
            ))
        };
        let policy_threshold = self.policy.as_ref().and_then(|p| p.threshold);
        let sweep_thresholds = self.sweep.as_ref().and_then(|s| s.thresholds.as_deref());
        let schedule = self.schedule.clone().unwrap_or_default();
        let non_negative = [
            ("policy.threshold", policy_threshold),
            ("schedule.warmup", schedule.warmup),
            ("schedule.duration", schedule.duration),
        ]
        .into_iter()
        .chain(
            sweep_thresholds
                .unwrap_or_default()
                .iter()
                .map(|&t| ("sweep.thresholds", Some(t))),
        );
        for (name, value) in non_negative {
            if let Some(value) = value.filter(|&v| !is_non_negative(v)) {
                return Err(field(name, NON_NEGATIVE, value));
            }
        }
        for (name, value) in [
            ("schedule.time_step_ms", schedule.time_step_ms),
            ("schedule.policy_period_ms", schedule.policy_period_ms),
        ] {
            if let Some(value) = value.filter(|&v| !is_positive(v)) {
                return Err(field(name, POSITIVE, value));
            }
        }
        if let Some(ms) = schedule.trace_interval_ms {
            return Err(SimError::Spec(format!(
                "scenario `{}`: `schedule.trace_interval_ms` is retired (got {ms}); \
                 set the trace sampling period with `[trace] interval_ms`",
                self.name
            )));
        }
        let resolved = schedule.resolve();
        let steps = step_count(resolved.warmup + resolved.duration, resolved.time_step);
        if steps > MAX_RUN_STEPS {
            return Err(SimError::Spec(format!(
                "scenario `{}`: `schedule` asks for {steps} steps, more than the \
                 {MAX_RUN_STEPS} one run may take",
                self.name
            )));
        }
        if let Some(trace) = &self.trace {
            trace.interval()?;
            trace.selection()?;
        }
        self.validate_phases()
    }

    /// Validates the `[[phases]]` table:
    ///
    /// * phase times are finite, non-negative and strictly ascending;
    /// * every phase carries at least one override;
    /// * thresholds are finite and positive, periods are positive.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] naming the offending phase.
    pub fn validate_phases(&self) -> Result<(), SimError> {
        let Some(phases) = &self.phases else {
            return Ok(());
        };
        let mut prev = f64::NEG_INFINITY;
        for (i, phase) in phases.iter().enumerate() {
            let place = || format!("scenario `{}` phase #{i}", self.name);
            if !is_non_negative(phase.at) {
                return Err(SimError::Spec(format!(
                    "{}: `at` must be a finite, non-negative time (got {})",
                    place(),
                    phase.at
                )));
            }
            if phase.at <= prev {
                return Err(SimError::Spec(format!(
                    "{}: phase times must be strictly ascending ({} after {prev})",
                    place(),
                    phase.at
                )));
            }
            prev = phase.at;
            if phase.policy.is_none()
                && phase.threshold.is_none()
                && phase.policy_period_ms.is_none()
                && phase.sensor_period_ms.is_none()
            {
                return Err(SimError::Spec(format!(
                    "{}: a phase must override at least one of \
                     policy/threshold/policy_period_ms/sensor_period_ms",
                    place()
                )));
            }
            check_knobs(
                phase.threshold,
                phase.policy_period_ms,
                phase.sensor_period_ms,
            )
            .map_err(|e| SimError::Spec(format!("{}: {e}", place())))?;
        }
        Ok(())
    }

    /// Folds phases firing at `t = 0` into the spec's static sections and
    /// returns the normalized spec — the form the runner builds and reports.
    ///
    /// Applying a delta before the first simulation step is equivalent to
    /// starting with it, so a phased spec whose only delta fires at `t = 0`
    /// normalizes to the corresponding *static* spec and produces a
    /// byte-identical [`RunReport`](crate::scenario::RunReport). A `t = 0`
    /// phase that changes the sensor period is kept live (the schedule has no
    /// static sensor-period knob to fold into).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the phase table fails validation.
    pub fn fold_initial_phases(&self) -> Result<ScenarioSpec, SimError> {
        self.validate_phases()?;
        let Some(phases) = &self.phases else {
            return Ok(self.clone());
        };
        let mut folded = self.clone();
        let mut remaining = Vec::new();
        for phase in phases {
            // Strict ascent means only the first phase can sit at t = 0.
            if phase.at == 0.0 && phase.sensor_period_ms.is_none() {
                let mut policy_spec = folded.policy_spec();
                if let Some(name) = &phase.policy {
                    policy_spec.name = name.clone();
                }
                if let Some(threshold) = phase.threshold {
                    policy_spec.threshold = Some(threshold);
                }
                folded.policy = Some(policy_spec);
                if let Some(period) = phase.policy_period_ms {
                    let mut schedule = folded.schedule.take().unwrap_or_default();
                    schedule.policy_period_ms = Some(period);
                    folded.schedule = Some(schedule);
                }
            } else {
                remaining.push(phase.clone());
            }
        }
        folded.phases = if remaining.is_empty() {
            None
        } else {
            Some(remaining)
        };
        Ok(folded)
    }

    /// The effective package kind ([`PackageKind::MobileEmbedded`] default).
    pub fn package_kind(&self) -> PackageKind {
        self.package.unwrap_or(PackageKind::MobileEmbedded)
    }

    /// The package object for the effective kind (`Custom` falls back to the
    /// mobile parameterisation, matching the historical behaviour).
    pub fn package_object(&self) -> Package {
        match self.package_kind() {
            PackageKind::HighPerformance => Package::high_performance(),
            _ => Package::mobile_embedded(),
        }
    }

    /// The effective policy spec (thermal balancing at ±3 °C by default).
    pub fn policy_spec(&self) -> PolicySpec {
        self.policy
            .clone()
            .unwrap_or_else(|| PolicySpec::named("thermal-balancing"))
    }

    /// The effective policy threshold.
    pub fn threshold(&self) -> f64 {
        self.policy_spec().threshold.unwrap_or(DEFAULT_THRESHOLD)
    }

    /// The effective schedule with all defaults applied.
    pub fn schedule(&self) -> ResolvedSchedule {
        self.schedule.clone().unwrap_or_default().resolve()
    }

    /// Warm-up plus measured duration.
    pub fn total_duration(&self) -> Seconds {
        let schedule = self.schedule();
        schedule.warmup + schedule.duration
    }

    /// The queue capacity override of the workload, if any.
    pub fn queue_capacity(&self) -> Option<usize> {
        self.workload.as_ref().and_then(|w| w.queue_capacity)
    }

    /// The label of the effective workload (`"sdr"` when the section is
    /// absent) — what run reports carry in their `workload` column.
    pub fn workload_label(&self) -> String {
        self.workload
            .as_ref()
            .map(WorkloadDecl::label)
            .unwrap_or_else(|| workload_kind_label(WorkloadKind::Sdr).to_string())
    }

    /// Expands the sweep axes into concrete specs (one per grid point).
    ///
    /// Axis order (outermost to innermost): packages, workloads, policies,
    /// thresholds, queue capacities, seeds. A spec without a sweep expands
    /// to itself. Expanded specs carry no sweep and a name suffixed with the
    /// swept coordinates, e.g. `fig7[stop-and-go/t2]` or
    /// `matrix[dag/thermal-balancing]`.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let Some(sweep) = &self.sweep else {
            return vec![self.clone()];
        };
        // An explicitly empty axis behaves like an absent one (matching
        // `SweepSpec::cardinality`); expanding it to zero runs would silently
        // drop the whole scenario.
        fn axis<T: Clone>(values: &Option<Vec<T>>) -> Vec<Option<T>> {
            match values {
                Some(values) if !values.is_empty() => values.iter().cloned().map(Some).collect(),
                _ => vec![None],
            }
        }
        let packages = axis(&sweep.packages);
        let workloads = axis(&sweep.workloads);
        let policies = axis(&sweep.policies);
        let thresholds = axis(&sweep.thresholds);
        let queues = axis(&sweep.queue_capacities);
        let seeds = axis(&sweep.seeds);
        let mut cases = Vec::new();
        for package in &packages {
            for workload_kind in &workloads {
                for policy in &policies {
                    for threshold in &thresholds {
                        for queue in &queues {
                            for seed in &seeds {
                                let mut case = self.clone();
                                case.sweep = None;
                                let mut suffix: Vec<String> = Vec::new();
                                if let Some(package) = package {
                                    case.package = Some(*package);
                                    suffix.push(package_label(*package).to_string());
                                }
                                if let Some(kind) = workload_kind {
                                    let mut workload = case.workload.take().unwrap_or_default();
                                    workload.kind = Some(*kind);
                                    // A spec-level custom generator would
                                    // silently override every point of the
                                    // axis (generator takes precedence over
                                    // kind); the axis is the explicit choice
                                    // here, so it wins.
                                    workload.generator = None;
                                    case.workload = Some(workload);
                                    suffix.push(workload_kind_label(*kind).to_string());
                                }
                                let mut policy_spec = self.policy_spec();
                                if let Some(policy) = policy {
                                    policy_spec.name = policy.clone();
                                    suffix.push(policy.clone());
                                }
                                if let Some(threshold) = threshold {
                                    policy_spec.threshold = Some(*threshold);
                                    suffix.push(format!("t{threshold}"));
                                }
                                case.policy = Some(policy_spec);
                                if let Some(queue) = queue {
                                    let mut workload = case.workload.take().unwrap_or_default();
                                    workload.queue_capacity = Some(*queue);
                                    case.workload = Some(workload);
                                    suffix.push(format!("q{queue}"));
                                }
                                if let Some(seed) = seed {
                                    let mut workload = case.workload.take().unwrap_or_default();
                                    workload.seed = Some(*seed);
                                    case.workload = Some(workload);
                                    suffix.push(format!("s{seed}"));
                                }
                                if !suffix.is_empty() {
                                    case.name = format!("{}[{}]", self.name, suffix.join("/"));
                                }
                                cases.push(case);
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    /// Builds the simulation for a concrete spec using the global (built-in)
    /// policy registry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for sweep-carrying or analysis specs, unknown
    /// policies, or invalid configurations.
    pub fn build(&self) -> Result<Simulation, SimError> {
        self.build_with(&PolicyRegistry::global())
    }

    /// Builds the simulation for a concrete spec resolving the policy through
    /// `registry` (workload names resolve through the global workload
    /// registry; see
    /// [`build_with_registries`](Self::build_with_registries) to supply a
    /// custom one).
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    pub fn build_with(&self, registry: &PolicyRegistry) -> Result<Simulation, SimError> {
        self.build_with_registries(registry, WorkloadRegistry::global())
    }

    /// Builds the simulation for a concrete spec, resolving the policy
    /// through `policies` and [`Workload::Generated`] names (the
    /// `generator` field, `VideoAnalytics`, `Dag`) through `workloads` —
    /// the hook that makes third-party workloads selectable from TOML.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build).
    pub fn build_with_registries(
        &self,
        policies: &PolicyRegistry,
        workloads: std::sync::Arc<WorkloadRegistry>,
    ) -> Result<Simulation, SimError> {
        if self.sweep.is_some() {
            return Err(SimError::Spec(format!(
                "scenario `{}` still carries a sweep; call expand() first",
                self.name
            )));
        }
        if self.analysis.is_some() {
            return Err(SimError::Spec(format!(
                "scenario `{}` is an analytic table and has no simulation",
                self.name
            )));
        }
        // Phases are validated here but *executed* by the Runner (which folds
        // `t = 0` phases into the static sections first): building a phased
        // spec yields its initial configuration.
        self.validate()?;
        let threshold = self.threshold();
        let schedule = self.schedule();
        let platform = self.platform.clone().unwrap_or_default();
        let policy = policies.instantiate(&self.policy_spec())?;
        SimulationBuilder::new()
            .with_platform(platform.to_config())
            .with_package(self.package_object())
            .with_solver(platform.solver.unwrap_or(DEFAULT_SOLVER))
            .with_migration_strategy(platform.migration.unwrap_or(DEFAULT_MIGRATION))
            .with_dvfs(platform.dvfs.unwrap_or(DEFAULT_DVFS))
            .with_workload(self.workload.clone().unwrap_or_default().to_workload()?)
            .with_workload_registry(workloads)
            .with_policy_box(policy)
            .with_threshold(threshold)
            .with_config(SimulationConfig {
                time_step: schedule.time_step,
                policy_period: schedule.policy_period,
                warmup: schedule.warmup,
                metrics_threshold: threshold,
            })
            .build()
    }

    /// The stable content hash of this concrete spec — the key run caches
    /// memoize reports under. See
    /// [`ScenarioHash`](crate::scenario::ScenarioHash) for what is (and is
    /// not) hashed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] for sweep-carrying specs; call
    /// [`expand`](Self::expand) first and hash the concrete runs.
    pub fn content_hash(&self) -> Result<crate::scenario::ScenarioHash, SimError> {
        crate::scenario::ScenarioHash::of(self)
    }

    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on malformed TOML or a spec that fails
    /// [`validate`](Self::validate).
    pub fn from_toml_str(text: &str) -> Result<Self, SimError> {
        let spec: ScenarioSpec = toml::from_str(text).map_err(|e| SimError::Spec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as a TOML document.
    pub fn to_toml_string(&self) -> String {
        toml::to_string(self).expect("scenario specs always serialize to a table")
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on malformed JSON or a spec that fails
    /// [`validate`](Self::validate).
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| SimError::Spec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario specs always serialize")
    }
}

/// Requirement text of [`is_non_negative`] in validation errors.
const NON_NEGATIVE: &str = "finite and non-negative";

/// Requirement text of [`is_positive`] in validation errors.
const POSITIVE: &str = "finite and positive";

fn is_non_negative(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

fn is_positive(value: f64) -> bool {
    value.is_finite() && value > 0.0
}

/// Checks the knobs a phase or a live delta may override: a finite,
/// positive threshold and finite, positive periods (milliseconds). The error
/// names the field; callers prefix where it came from.
fn check_knobs(
    threshold: Option<f64>,
    policy_period_ms: Option<f64>,
    sensor_period_ms: Option<f64>,
) -> Result<(), String> {
    for (name, value) in [
        ("threshold", threshold),
        ("policy_period_ms", policy_period_ms),
        ("sensor_period_ms", sensor_period_ms),
    ] {
        if let Some(value) = value.filter(|&v| !is_positive(v)) {
            return Err(format!("`{name}` must be {POSITIVE} (got {value})"));
        }
    }
    Ok(())
}

/// Short human label for a package kind (used in expanded scenario names).
pub fn package_label(kind: PackageKind) -> &'static str {
    match kind {
        PackageKind::MobileEmbedded => "mobile",
        PackageKind::HighPerformance => "hiperf",
        PackageKind::Custom => "custom",
    }
}

/// Platform overrides of a scenario.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of cores (default 3, the paper's platform).
    pub cores: Option<usize>,
    /// Use the lower-power ARM11-class core configuration (Conf2 of
    /// Table 1) instead of the streaming configuration.
    pub arm11: Option<bool>,
    /// Enable the DVFS governor (default true).
    pub dvfs: Option<bool>,
    /// Migration back-end strategy (default task replication).
    pub migration: Option<MigrationStrategy>,
    /// Thermal solver (default forward Euler).
    pub solver: Option<SolverKind>,
}

impl PlatformSpec {
    /// The platform configuration this spec describes.
    pub fn to_config(&self) -> PlatformConfig {
        let base = if self.arm11.unwrap_or(false) {
            PlatformConfig::paper_arm11()
        } else {
            PlatformConfig::paper_default()
        };
        match self.cores {
            Some(cores) => base.with_cores(cores),
            None => base,
        }
    }
}

/// Which application the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The paper's Software Defined Radio benchmark.
    Sdr,
    /// A synthetic task set without a pipeline.
    Synthetic,
    /// Video analytics: decode → detect → track → sink chains, one per
    /// camera stream (knobs in the `[workload.video]` table).
    VideoAnalytics,
    /// A parameterised fork-join pipeline with depth/width/skew knobs and
    /// configurable arrivals (knobs in the `[workload.dag]` table).
    Dag,
    /// No tasks at all.
    Idle,
}

/// Short human label for a workload kind (used in expanded scenario names
/// and run reports).
pub fn workload_kind_label(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Sdr => "sdr",
        WorkloadKind::Synthetic => "synthetic",
        WorkloadKind::VideoAnalytics => "video-analytics",
        WorkloadKind::Dag => "dag",
        WorkloadKind::Idle => "idle",
    }
}

/// Workload selection and its knobs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadDecl {
    /// Workload family (default [`WorkloadKind::Sdr`]).
    pub kind: Option<WorkloadKind>,
    /// Third-party generator name resolved through the workload registry;
    /// takes precedence over `kind` when set.
    pub generator: Option<String>,
    /// Inter-stage queue capacity in frames (pipeline workloads).
    pub queue_capacity: Option<usize>,
    /// Frames buffered before playback starts (pipeline workloads; defaults
    /// to half the queue capacity when a capacity is given).
    pub prefill: Option<usize>,
    /// Number of tasks (synthetic only).
    pub num_tasks: Option<usize>,
    /// Number of cores the synthetic placement targets (synthetic only).
    pub num_cores: Option<usize>,
    /// Total full-speed-equivalent load (synthetic only).
    pub total_fse_load: Option<f64>,
    /// PRNG seed (all seeded workloads).
    pub seed: Option<u64>,
    /// Knobs of the video-analytics workload (`[workload.video]`).
    pub video: Option<VideoKnobs>,
    /// Knobs of the fork-join DAG workload (`[workload.dag]`).
    pub dag: Option<DagKnobs>,
}

impl WorkloadDecl {
    /// An SDR workload with a specific queue capacity.
    pub fn sdr_with_queue(queue_capacity: usize) -> Self {
        WorkloadDecl {
            queue_capacity: Some(queue_capacity),
            ..WorkloadDecl::default()
        }
    }

    /// A declaration of the given kind with default knobs.
    pub fn of_kind(kind: WorkloadKind) -> Self {
        WorkloadDecl {
            kind: Some(kind),
            ..WorkloadDecl::default()
        }
    }

    /// The label naming the effective workload: the custom generator name
    /// when one is set, the kind's label otherwise.
    pub fn label(&self) -> String {
        match &self.generator {
            Some(name) => name.clone(),
            None => workload_kind_label(self.kind.unwrap_or(WorkloadKind::Sdr)).to_string(),
        }
    }

    /// The generator parameters this declaration describes: the shared
    /// seed/queue knobs plus the per-kind knob tables.
    pub fn to_params(&self) -> WorkloadParams {
        let mut params = WorkloadParams::default();
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
        if let Some(num_cores) = self.num_cores {
            params.num_cores = num_cores;
        }
        params.queue_capacity = self.queue_capacity;
        params.prefill = self.prefill;
        if let Some(num_tasks) = self.num_tasks {
            params.synthetic.num_tasks = num_tasks;
        }
        if let Some(total) = self.total_fse_load {
            params.synthetic.total_fse_load = total;
        }
        if let Some(video) = &self.video {
            params.video = video.clone();
        }
        if let Some(dag) = &self.dag {
            params.dag = dag.clone();
        }
        params
    }

    /// Converts the declaration into the builder's workload value.
    ///
    /// `video-analytics`, `dag` and custom `generator` workloads resolve
    /// by name through the [`WorkloadRegistry`]
    /// at build time; the SDR and synthetic kinds keep their direct
    /// constructions (their knobs predate the registry).
    ///
    /// [`WorkloadRegistry`]: tbp_streaming::workloads::WorkloadRegistry
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] for inconsistent knobs (e.g. synthetic
    /// parameters on an SDR workload are ignored, but a prefill larger than
    /// the queue capacity is rejected by the pipeline at build time).
    pub fn to_workload(&self) -> Result<Workload, SimError> {
        if let Some(generator) = &self.generator {
            return Ok(Workload::Generated {
                generator: generator.clone(),
                params: Box::new(self.to_params()),
            });
        }
        match self.kind.unwrap_or(WorkloadKind::Sdr) {
            WorkloadKind::Sdr => {
                let mut sdr = SdrBenchmark::paper_default();
                if let Some(capacity) = self.queue_capacity {
                    let config = PipelineConfig {
                        queue_capacity: capacity,
                        prefill: self.prefill.unwrap_or(capacity / 2),
                        ..*sdr.pipeline_config()
                    };
                    sdr = sdr.with_pipeline_config(config);
                } else if let Some(prefill) = self.prefill {
                    let config = PipelineConfig {
                        prefill,
                        ..*sdr.pipeline_config()
                    };
                    sdr = sdr.with_pipeline_config(config);
                }
                Ok(Workload::Sdr(sdr))
            }
            WorkloadKind::Synthetic => {
                let mut spec = WorkloadSpec::default_mixed();
                if let Some(num_tasks) = self.num_tasks {
                    spec.num_tasks = num_tasks;
                }
                if let Some(num_cores) = self.num_cores {
                    spec.num_cores = num_cores;
                }
                if let Some(total) = self.total_fse_load {
                    spec.total_fse_load = total;
                }
                if let Some(seed) = self.seed {
                    spec.seed = seed;
                }
                Ok(Workload::Synthetic(spec))
            }
            WorkloadKind::VideoAnalytics => Ok(Workload::Generated {
                generator: "video-analytics".to_string(),
                params: Box::new(self.to_params()),
            }),
            WorkloadKind::Dag => Ok(Workload::Generated {
                generator: "dag".to_string(),
                params: Box::new(self.to_params()),
            }),
            WorkloadKind::Idle => Ok(Workload::Idle),
        }
    }
}

/// Policy selection: a registry name plus its threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Registry name of the policy (e.g. `"thermal-balancing"`).
    pub name: String,
    /// Balancing threshold in °C (policies that take one; default ±3 °C).
    pub threshold: Option<f64>,
}

impl PolicySpec {
    /// A policy spec with the default threshold.
    pub fn named(name: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            threshold: None,
        }
    }

    /// Sets the threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// The threshold, defaulted to ±3 °C.
    pub fn threshold_or_default(&self) -> f64 {
        self.threshold.unwrap_or(DEFAULT_THRESHOLD)
    }
}

/// One live-reconfiguration phase of a scenario (`[[phases]]` in TOML): a
/// time plus the overrides applied to the *running* simulation at that time.
///
/// ```
/// use tbp_core::scenario::ScenarioSpec;
///
/// let spec: ScenarioSpec = toml::from_str(
///     r#"
///     name = "phased"
///
///     [[phases]]
///     at = 10.0
///     threshold = 2.0
///
///     [[phases]]
///     at = 14.0
///     policy = "stop-and-go"
///     policy_period_ms = 20.0
///     "#,
/// )
/// .expect("valid TOML");
/// assert!(spec.validate_phases().is_ok());
/// assert_eq!(spec.phases.as_ref().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Simulated time (seconds from simulation start, warm-up included) the
    /// delta applies at. Phase times must be strictly ascending; a phase at
    /// `0.0` is folded into the static spec sections
    /// ([`ScenarioSpec::fold_initial_phases`]).
    pub at: f64,
    /// Swap the active policy to this registry name.
    pub policy: Option<String>,
    /// Retune the balancing threshold (°C); also moves the metric band.
    pub threshold: Option<f64>,
    /// Change the policy invocation period (milliseconds).
    pub policy_period_ms: Option<f64>,
    /// Change the thermal-sensor sampling period (milliseconds).
    pub sensor_period_ms: Option<f64>,
}

impl PhaseSpec {
    /// A phase at `at` seconds with no overrides yet (add some before
    /// validating — an empty phase is rejected).
    pub fn at(at: f64) -> Self {
        PhaseSpec {
            at,
            policy: None,
            threshold: None,
            policy_period_ms: None,
            sensor_period_ms: None,
        }
    }

    /// Sets the policy swap.
    pub fn with_policy(mut self, name: impl Into<String>) -> Self {
        self.policy = Some(name.into());
        self
    }

    /// Sets the threshold retune.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the policy-period change (milliseconds).
    pub fn with_policy_period_ms(mut self, ms: f64) -> Self {
        self.policy_period_ms = Some(ms);
        self
    }

    /// Sets the sensor-period change (milliseconds).
    pub fn with_sensor_period_ms(mut self, ms: f64) -> Self {
        self.sensor_period_ms = Some(ms);
        self
    }

    /// The runtime delta this phase applies.
    pub fn delta(&self) -> SpecDelta {
        SpecDelta {
            policy: self.policy.clone(),
            threshold: self.threshold,
            policy_period: self.policy_period_ms.map(Seconds::from_millis),
            sensor_period: self.sensor_period_ms.map(Seconds::from_millis),
        }
    }
}

/// A reconfiguration delta applied to a *running* simulation
/// (`Simulation::apply_delta`): the dynamic subset of a [`ScenarioSpec`] —
/// policy, threshold and the two periods — without disturbing thermal or OS
/// state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecDelta {
    /// Swap the active policy to this registry name (resolved through the
    /// simulation's [`PolicyRegistry`]).
    /// The new instance starts with fresh internal state.
    pub policy: Option<String>,
    /// Retune the balancing threshold (°C). Applied in place (keeping policy
    /// state) when the active policy supports it, and always moved into the
    /// metric band.
    pub threshold: Option<f64>,
    /// New policy invocation period.
    pub policy_period: Option<Seconds>,
    /// New thermal-sensor sampling period.
    pub sensor_period: Option<Seconds>,
}

impl SpecDelta {
    /// A delta with no overrides (applying it is an error).
    pub fn new() -> Self {
        SpecDelta::default()
    }

    /// Sets the policy swap.
    pub fn with_policy(mut self, name: impl Into<String>) -> Self {
        self.policy = Some(name.into());
        self
    }

    /// Sets the threshold retune.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the policy-period change.
    pub fn with_policy_period(mut self, period: Seconds) -> Self {
        self.policy_period = Some(period);
        self
    }

    /// Sets the sensor-period change.
    pub fn with_sensor_period(mut self, period: Seconds) -> Self {
        self.sensor_period = Some(period);
        self
    }

    /// Checks the overrides: a finite, positive threshold and finite,
    /// positive periods. [`Simulation::apply_delta`] calls this before
    /// touching any state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] naming the field.
    pub fn validate(&self) -> Result<(), SimError> {
        check_knobs(
            self.threshold,
            self.policy_period.map(Seconds::as_millis),
            self.sensor_period.map(Seconds::as_millis),
        )
        .map_err(|e| SimError::Spec(format!("reconfiguration delta: {e}")))
    }

    /// Whether the delta carries no override at all.
    pub fn is_empty(&self) -> bool {
        self.policy.is_none()
            && self.threshold.is_none()
            && self.policy_period.is_none()
            && self.sensor_period.is_none()
    }

    /// Deterministic human-readable rendering (recorded as the trace's
    /// reconfiguration-event description).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(policy) = &self.policy {
            parts.push(format!("policy={policy}"));
        }
        if let Some(threshold) = self.threshold {
            parts.push(format!("threshold={threshold}"));
        }
        if let Some(period) = self.policy_period {
            parts.push(format!("policy_period_ms={}", period.as_millis()));
        }
        if let Some(period) = self.sensor_period {
            parts.push(format!("sensor_period_ms={}", period.as_millis()));
        }
        parts.join(" ")
    }
}

/// Timing of a scenario, in seconds (milliseconds where noted).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScheduleSpec {
    /// Warm-up (policy disabled, unmeasured). Default 8 s.
    pub warmup: Option<f64>,
    /// Measured duration after warm-up. Default 20 s.
    pub duration: Option<f64>,
    /// Co-simulation step in milliseconds. Default 5 ms.
    pub time_step_ms: Option<f64>,
    /// Policy invocation period in milliseconds. Default 10 ms.
    pub policy_period_ms: Option<f64>,
    /// Retired: [`ScenarioSpec::validate`] rejects any value. The trace
    /// sink's sampling period is `[trace] interval_ms` ([`TraceSpec`]).
    pub trace_interval_ms: Option<f64>,
}

impl ScheduleSpec {
    /// Applies defaults, producing concrete timing values.
    pub fn resolve(&self) -> ResolvedSchedule {
        ResolvedSchedule {
            warmup: Seconds::new(self.warmup.unwrap_or(8.0)),
            duration: Seconds::new(self.duration.unwrap_or(20.0)),
            time_step: Seconds::from_millis(self.time_step_ms.unwrap_or(5.0)),
            policy_period: Seconds::from_millis(self.policy_period_ms.unwrap_or(10.0)),
        }
    }
}

/// A [`ScheduleSpec`] with all defaults applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedSchedule {
    /// Warm-up time.
    pub warmup: Seconds,
    /// Measured duration.
    pub duration: Seconds,
    /// Co-simulation step.
    pub time_step: Seconds,
    /// Policy period.
    pub policy_period: Seconds,
}

/// Observability-sink settings (`[trace]` in TOML): the sampling interval
/// and track groups of the binary trace a run emits when the runner is given
/// a trace directory.
///
/// Tracing observes a run without changing its dynamics, so this table is a
/// non-semantic field of the spec: adding or editing it never changes the
/// scenario hash (cache keys and cached results stay valid).
///
/// ```
/// use tbp_core::scenario::ScenarioSpec;
///
/// let spec: ScenarioSpec = toml::from_str(
///     r#"
///     name = "traced"
///
///     [trace]
///     interval_ms = 50.0
///     tracks = ["temperatures", "migrations", "reconfigs"]
///     "#,
/// )
/// .expect("valid TOML");
/// let trace = spec.trace.as_ref().unwrap();
/// assert!(trace.selection().unwrap().temperatures);
/// assert!(!trace.selection().unwrap().frequencies);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Sink sampling interval in milliseconds (default 100 ms).
    pub interval_ms: Option<f64>,
    /// Track groups to record; absent means all. Known names:
    /// `temperatures`, `frequencies`, `migrations`, `deadline_misses`,
    /// `queue_depths`, `reconfigs`.
    pub tracks: Option<Vec<String>>,
}

impl TraceSpec {
    /// The sink sampling interval, defaulted to 100 ms.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] for a non-finite or non-positive interval.
    pub fn interval(&self) -> Result<Seconds, SimError> {
        let ms = self.interval_ms.unwrap_or(100.0);
        if !ms.is_finite() || ms <= 0.0 {
            return Err(SimError::Spec(format!(
                "[trace] interval_ms must be finite and positive (got {ms})"
            )));
        }
        Ok(Seconds::from_millis(ms))
    }

    /// The track selection this spec names (all groups when `tracks` is
    /// absent).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] for an unknown track-group name.
    pub fn selection(&self) -> Result<TrackSelection, SimError> {
        let Some(tracks) = &self.tracks else {
            return Ok(TrackSelection::all());
        };
        let mut selection = TrackSelection::none();
        for name in tracks {
            match name.as_str() {
                "temperatures" => selection.temperatures = true,
                "frequencies" => selection.frequencies = true,
                "migrations" => selection.migrations = true,
                "deadline_misses" => selection.deadline_misses = true,
                "queue_depths" => selection.queue_depths = true,
                "reconfigs" => selection.reconfigs = true,
                other => {
                    return Err(SimError::Spec(format!(
                        "[trace] unknown track group `{other}` (known: temperatures, \
                         frequencies, migrations, deadline_misses, queue_depths, reconfigs)"
                    )))
                }
            }
        }
        Ok(selection)
    }
}

/// Sweep axes: the cartesian product of all present axes expands a spec into
/// a grid of concrete runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Thermal packages to sweep.
    pub packages: Option<Vec<PackageKind>>,
    /// Workload kinds to sweep (cross-workload comparisons; per-kind knobs
    /// come from the spec's `[workload]` section).
    pub workloads: Option<Vec<WorkloadKind>>,
    /// Policy registry names to sweep.
    pub policies: Option<Vec<String>>,
    /// Policy thresholds (°C) to sweep.
    pub thresholds: Option<Vec<f64>>,
    /// Inter-stage queue capacities to sweep (pipeline workloads).
    pub queue_capacities: Option<Vec<usize>>,
    /// Workload PRNG seeds to sweep (statistical replication of seeded
    /// workloads).
    pub seeds: Option<Vec<u64>>,
}

impl SweepSpec {
    /// Number of grid points the sweep expands to.
    pub fn cardinality(&self) -> usize {
        let len = |n: Option<usize>| n.filter(|&n| n > 0).unwrap_or(1);
        len(self.packages.as_ref().map(Vec::len))
            * len(self.workloads.as_ref().map(Vec::len))
            * len(self.policies.as_ref().map(Vec::len))
            * len(self.thresholds.as_ref().map(Vec::len))
            * len(self.queue_capacities.as_ref().map(Vec::len))
            * len(self.seeds.as_ref().map(Vec::len))
    }

    /// Sets the threshold axis.
    pub fn with_thresholds(mut self, thresholds: impl Into<Vec<f64>>) -> Self {
        self.thresholds = Some(thresholds.into());
        self
    }

    /// Sets the policy axis.
    pub fn with_policies<I, S>(mut self, policies: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.policies = Some(policies.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the package axis.
    pub fn with_packages(mut self, packages: impl Into<Vec<PackageKind>>) -> Self {
        self.packages = Some(packages.into());
        self
    }

    /// Sets the queue-capacity axis.
    pub fn with_queue_capacities(mut self, capacities: impl Into<Vec<usize>>) -> Self {
        self.queue_capacities = Some(capacities.into());
        self
    }

    /// Sets the workload-kind axis.
    pub fn with_workloads(mut self, workloads: impl Into<Vec<WorkloadKind>>) -> Self {
        self.workloads = Some(workloads.into());
        self
    }

    /// Sets the workload-seed axis.
    pub fn with_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = Some(seeds.into());
        self
    }
}

/// Analytic tables of the paper that need no simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisKind {
    /// Table 1: component power at the reference operating points.
    Table1Power,
    /// Table 2: the SDR task set and its initial mapping.
    Table2Mapping,
    /// Figure 2: migration cost vs. task size for both back-ends.
    Fig2MigrationCost,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let spec = ScenarioSpec::new("default");
        assert_eq!(spec.package_kind(), PackageKind::MobileEmbedded);
        assert_eq!(spec.policy_spec().name, "thermal-balancing");
        assert_eq!(spec.threshold(), DEFAULT_THRESHOLD);
        let schedule = spec.schedule();
        assert_eq!(schedule.warmup, Seconds::new(8.0));
        assert_eq!(schedule.duration, Seconds::new(20.0));
        assert_eq!(schedule.time_step, Seconds::from_millis(5.0));
        assert_eq!(spec.total_duration(), Seconds::new(28.0));
    }

    #[test]
    fn sweep_expansion_covers_the_grid_in_order() {
        let spec = ScenarioSpec::new("grid").with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 2.0, 3.0]),
        );
        let cases = spec.expand();
        assert_eq!(cases.len(), 12);
        assert_eq!(spec.sweep.as_ref().unwrap().cardinality(), 12);
        // Outermost axis first: the first half is all mobile.
        assert!(cases[..6]
            .iter()
            .all(|c| c.package_kind() == PackageKind::MobileEmbedded));
        // Policies before thresholds.
        assert_eq!(cases[0].policy_spec().name, "thermal-balancing");
        assert_eq!(cases[3].policy_spec().name, "stop-and-go");
        assert_eq!(cases[0].threshold(), 1.0);
        assert_eq!(cases[1].threshold(), 2.0);
        // Expanded specs are concrete and uniquely named.
        let mut names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert!(cases.iter().all(|c| c.sweep.is_none()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert_eq!(cases[0].name, "grid[mobile/thermal-balancing/t1]");
    }

    #[test]
    fn empty_sweep_axes_behave_like_absent_ones() {
        let spec = ScenarioSpec::new("empty-axis").with_sweep(
            SweepSpec::default()
                .with_thresholds(Vec::new())
                .with_policies(["thermal-balancing", "stop-and-go"]),
        );
        // The empty thresholds axis must not wipe out the grid, and the two
        // cardinality APIs must agree.
        assert_eq!(spec.expand().len(), 2);
        assert_eq!(spec.sweep.as_ref().unwrap().cardinality(), 2);
        let all_empty = ScenarioSpec::new("all-empty")
            .with_sweep(SweepSpec::default().with_queue_capacities(Vec::new()));
        assert_eq!(all_empty.expand().len(), 1);
        assert_eq!(all_empty.sweep.as_ref().unwrap().cardinality(), 1);
    }

    #[test]
    fn specs_without_sweep_expand_to_themselves() {
        let spec = ScenarioSpec::new("solo").with_policy("stop-and-go", 2.0);
        let cases = spec.expand();
        assert_eq!(cases, vec![spec]);
    }

    #[test]
    fn sweep_carrying_specs_do_not_build() {
        let spec =
            ScenarioSpec::new("x").with_sweep(SweepSpec::default().with_thresholds([1.0, 2.0]));
        assert!(matches!(spec.build(), Err(SimError::Spec(_))));
        let table = ScenarioSpec::analysis("t", AnalysisKind::Table1Power);
        assert!(matches!(table.build(), Err(SimError::Spec(_))));
    }

    #[test]
    fn concrete_specs_build_simulations() {
        let spec = ScenarioSpec::new("buildable")
            .with_package(PackageKind::HighPerformance)
            .with_policy("dvfs-only", 2.0)
            .with_workload(WorkloadDecl::sdr_with_queue(11))
            .with_schedule(0.5, 1.0);
        let sim = spec.build().expect("spec builds");
        assert_eq!(sim.platform().num_cores(), 3);
        assert_eq!(sim.policy_name(), "dvfs-only");
        assert_eq!(sim.config().metrics_threshold, 2.0);
    }

    #[test]
    fn short_spec_runs_end_to_end() {
        // A deliberately short run to keep unit-test time low; the full-length
        // sweeps run in the integration tests and benches.
        let spec = ScenarioSpec::new("short")
            .with_package(PackageKind::HighPerformance)
            .with_policy("thermal-balancing", 2.0)
            .with_schedule(2.0, 4.0);
        let mut sim = spec.build().unwrap();
        sim.run_for(spec.total_duration()).unwrap();
        let summary = sim.summary();
        assert_eq!(summary.policy, "thermal-balancing");
        assert!(summary.total_time.as_secs() > 5.99);
        assert!(summary.measured_time.as_secs() > 3.0);
        assert!(summary.qos.frames_delivered > 0);
    }

    #[test]
    fn workload_decl_variants() {
        let sdr = WorkloadDecl::default().to_workload().unwrap();
        assert!(matches!(sdr, Workload::Sdr(_)));
        let synthetic = WorkloadDecl {
            kind: Some(WorkloadKind::Synthetic),
            num_tasks: Some(5),
            num_cores: Some(2),
            ..WorkloadDecl::default()
        }
        .to_workload()
        .unwrap();
        match synthetic {
            Workload::Synthetic(spec) => {
                assert_eq!(spec.num_tasks, 5);
                assert_eq!(spec.num_cores, 2);
            }
            other => panic!("expected synthetic, got {other:?}"),
        }
        assert!(matches!(
            WorkloadDecl {
                kind: Some(WorkloadKind::Idle),
                ..WorkloadDecl::default()
            }
            .to_workload()
            .unwrap(),
            Workload::Idle
        ));
    }

    #[test]
    fn generated_workload_kinds_resolve_by_registry_name() {
        let video = WorkloadDecl::of_kind(WorkloadKind::VideoAnalytics)
            .to_workload()
            .unwrap();
        match video {
            Workload::Generated { generator, .. } => assert_eq!(generator, "video-analytics"),
            other => panic!("expected generated workload, got {other:?}"),
        }
        let mut decl = WorkloadDecl::of_kind(WorkloadKind::Dag);
        decl.seed = Some(7);
        decl.queue_capacity = Some(6);
        match decl.to_workload().unwrap() {
            Workload::Generated { generator, params } => {
                assert_eq!(generator, "dag");
                assert_eq!(params.seed, 7);
                assert_eq!(params.queue_capacity, Some(6));
            }
            other => panic!("expected generated workload, got {other:?}"),
        }
        // A custom generator name takes precedence over the kind.
        let custom = WorkloadDecl {
            kind: Some(WorkloadKind::Sdr),
            generator: Some("my-workload".into()),
            ..WorkloadDecl::default()
        };
        assert_eq!(custom.label(), "my-workload");
        match custom.to_workload().unwrap() {
            Workload::Generated { generator, .. } => assert_eq!(generator, "my-workload"),
            other => panic!("expected generated workload, got {other:?}"),
        }
        assert_eq!(WorkloadDecl::default().label(), "sdr");
        assert_eq!(
            WorkloadDecl::of_kind(WorkloadKind::VideoAnalytics).label(),
            "video-analytics"
        );
        assert_eq!(ScenarioSpec::new("x").workload_label(), "sdr");
    }

    #[test]
    fn video_and_dag_scenarios_build_from_toml_only() {
        let spec: ScenarioSpec = toml::from_str(
            r#"
            name = "video"

            [workload]
            kind = "VideoAnalytics"
            seed = 99

            [workload.video]
            streams = 2
            detect_load = 0.4

            [schedule]
            warmup = 0.2
            duration = 0.5
            "#,
        )
        .expect("valid TOML");
        let decl = spec.workload.as_ref().unwrap();
        assert_eq!(decl.video.as_ref().unwrap().streams, Some(2));
        let sim = spec.build().expect("video scenario builds");
        assert!(sim.pipeline().is_some());
        assert_eq!(sim.os().tasks().len(), 9);

        let spec: ScenarioSpec = toml::from_str(
            r#"
            name = "dag"

            [workload]
            kind = "Dag"

            [workload.dag]
            depth = 2
            width = 2
            arrivals = "Bursty"
            burst = 3

            [schedule]
            warmup = 0.2
            duration = 0.5
            "#,
        )
        .expect("valid TOML");
        let sim = spec.build().expect("dag scenario builds");
        assert_eq!(sim.os().tasks().len(), 6);
        // The spec round-trips through TOML with its knob tables intact.
        let text = spec.to_toml_string();
        let reparsed = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn workload_and_seed_axes_expand_the_grid() {
        let spec = ScenarioSpec::new("matrix").with_sweep(
            SweepSpec::default()
                .with_workloads([WorkloadKind::Sdr, WorkloadKind::Dag])
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_seeds([1, 2, 3]),
        );
        let cases = spec.expand();
        assert_eq!(cases.len(), 12);
        assert_eq!(spec.sweep.as_ref().unwrap().cardinality(), 12);
        // Workloads are an outer axis relative to policies and seeds.
        assert_eq!(cases[0].name, "matrix[sdr/thermal-balancing/s1]");
        assert!(cases[..6].iter().all(|c| c.workload_label() == "sdr"));
        assert!(cases[6..].iter().all(|c| c.workload_label() == "dag"));
        // Seeds land in the workload declaration.
        assert_eq!(cases[1].workload.as_ref().unwrap().seed, Some(2));
        // All names are unique and concrete.
        let mut names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert!(cases.iter().all(|c| c.sweep.is_none()));
    }
}
