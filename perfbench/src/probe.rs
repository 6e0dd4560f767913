//! Layer probes driven from outside the program.
//!
//! The traced run steps every simulation itself, in the same order and with
//! the same phase schedule as `Runner`. Every `every`-th step it clones the
//! layer state (`Mpos`, `MpsocPlatform`, `PipelineRuntime`, `ThermalModel`),
//! times the public calls of `Simulation::step`'s phases on the clones, then
//! runs the real step and checks that the probed thermal state equals the
//! real one bit for bit. On lane batches it also builds a
//! `ThermalLaneKernel` from the lanes' cloned models, times `advance`, and
//! checks every lane of it the same way. Half-way between probes it times
//! one undisturbed real step.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tbp_arch::platform::PowerSnapshot;
use tbp_arch::units::{Celsius, Seconds, Watts};
use tbp_core::scenario::{
    PolicyRegistry, RunOutcome, RunReport, ScenarioSpec, SpecDelta, TraceSpec, WorkItem,
};
use tbp_core::sim::LaneBatch;
use tbp_core::Simulation;
use tbp_obs::FileSink;
use tbp_os::mpos::MposStepReport;
use tbp_thermal::lanes::ThermalLaneKernel;
use tbp_thermal::solver::Solver;
use tbp_thermal::ThermalModel;

use crate::instrument::{SinkTimes, TimedSink};

/// Raw probe samples: phase times in nanoseconds, lane times in
/// microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `Mpos::step_into`.
    pub os: Vec<f64>,
    /// `PipelineRuntime::step` (runs without a pipeline add none).
    pub streaming: Vec<f64>,
    /// `MpsocPlatform::step`.
    pub platform: Vec<f64>,
    /// `block_temperatures_into` + `power_snapshot_into`.
    pub power: Vec<f64>,
    /// `ThermalModel::step`.
    pub thermal: Vec<f64>,
    /// One undisturbed real `Simulation::step`.
    pub step: Vec<f64>,
    /// `ThermalLaneKernel::advance` over a whole batch, in µs.
    pub lane_advance_us: Vec<f64>,
    /// One undisturbed real `LaneBatch::step`, in µs.
    pub lane_step_us: Vec<f64>,
    /// Probed states that differed from the real step's.
    pub mismatches: u64,
    /// Thermal states compared.
    pub compared: u64,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.os.extend(other.os);
        self.streaming.extend(other.streaming);
        self.platform.extend(other.platform);
        self.power.extend(other.power);
        self.thermal.extend(other.thermal);
        self.step.extend(other.step);
        self.lane_advance_us.extend(other.lane_advance_us);
        self.lane_step_us.extend(other.lane_step_us);
        self.mismatches += other.mismatches;
        self.compared += other.compared;
    }
}

/// What a probed batch produced.
pub struct ProbedBatch {
    /// One report per work item, in work order.
    pub reports: Vec<RunReport>,
    /// Host seconds of each scheduling unit (a case, or a lane chunk) with
    /// the probes' own time taken out, in execution order.
    pub unit_s: Vec<f64>,
    /// Host microseconds of each `ScenarioSpec::build`.
    pub build_us: Vec<f64>,
    /// Co-simulation steps executed (a lane step counts once per lane).
    pub steps: u64,
    /// RC integration sub-steps those steps planned.
    pub substeps: u64,
    /// Wall seconds of the whole batch.
    pub wall_s: f64,
    /// The probe samples of every thread.
    pub samples: Samples,
}

/// Where a probed batch writes traces, if anywhere.
pub struct SinkTarget<'a> {
    /// Directory of the `.tbptrace` files.
    pub dir: &'a Path,
    /// Record-call totals of every sink.
    pub times: Arc<Mutex<SinkTimes>>,
}

/// The program's step-count rule (`tbp_core::sim`): a whole number of steps
/// covering `duration`, robust to quotients a few ULPs above an integer.
pub fn step_count(duration: Seconds, time_step: Seconds) -> u64 {
    let ratio = duration.as_secs() / time_step.as_secs();
    if !ratio.is_finite() || ratio <= 0.0 {
        return 0;
    }
    (ratio - 1e-9 * ratio.max(1.0)).ceil() as u64
}

/// The `.tbptrace` file name `Runner::with_trace_dir` gives a scenario.
pub fn trace_file_name(scenario: &str) -> String {
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

/// Runs `work` like a `Runner` with `lanes` lanes on `threads` threads
/// (contiguous chunks, like the runner's parallel map), probing every
/// `every`-th step.
///
/// # Errors
///
/// Any build, step or trace error, and a lane chunk that cannot form a
/// `LaneBatch`.
pub fn run_probed(
    work: &[WorkItem],
    lanes: usize,
    threads: usize,
    every: u64,
    sink: Option<&SinkTarget<'_>>,
) -> Result<ProbedBatch, String> {
    let units: Vec<&[WorkItem]> = work.chunks(lanes.max(1)).collect();
    if lanes > 1 && work.iter().any(|item| item.case.analysis.is_some()) {
        return Err("lane-batched probing expects simulation cases only".into());
    }
    let per_thread = units.len().div_ceil(threads.max(1)).max(1);
    let started = Instant::now();
    let outputs: Vec<Result<ThreadOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = units
            .chunks(per_thread)
            .map(|mine| {
                scope.spawn(move || {
                    let mut prober = Prober::new(every);
                    let mut out = ThreadOut::default();
                    for unit in mine {
                        prober.run_unit(unit, sink, &mut out)?;
                    }
                    out.samples = std::mem::take(&mut prober.samples);
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut batch = ProbedBatch {
        reports: Vec::with_capacity(work.len()),
        unit_s: Vec::with_capacity(units.len()),
        build_us: Vec::new(),
        steps: 0,
        substeps: 0,
        wall_s,
        samples: Samples::default(),
    };
    for out in outputs {
        let out = out?;
        batch.reports.extend(out.reports);
        batch.unit_s.extend(out.unit_s);
        batch.build_us.extend(out.build_us);
        batch.steps += out.steps;
        batch.substeps += out.substeps;
        batch.samples.absorb(out.samples);
    }
    Ok(batch)
}

#[derive(Default)]
struct ThreadOut {
    reports: Vec<RunReport>,
    unit_s: Vec<f64>,
    build_us: Vec<f64>,
    steps: u64,
    substeps: u64,
    samples: Samples,
}

/// One thread's probe state and reusable buffers.
struct Prober {
    every: u64,
    samples: Samples,
    /// Nanoseconds spent inside probes since the unit started.
    probe_ns: f64,
    report: MposStepReport,
    temps: Vec<Celsius>,
    power: PowerSnapshot,
}

impl Prober {
    fn new(every: u64) -> Self {
        Prober {
            every: every.max(2),
            samples: Samples::default(),
            probe_ns: 0.0,
            report: MposStepReport::default(),
            temps: Vec::new(),
            power: PowerSnapshot::default(),
        }
    }

    fn run_unit(
        &mut self,
        unit: &[WorkItem],
        sink: Option<&SinkTarget<'_>>,
        out: &mut ThreadOut,
    ) -> Result<(), String> {
        let started = Instant::now();
        self.probe_ns = 0.0;
        let mut sims = Vec::with_capacity(unit.len());
        let mut folded = Vec::with_capacity(unit.len());
        for item in unit {
            if let Some(kind) = item.case.analysis {
                out.reports.push(RunReport {
                    scenario: item.case.name.clone(),
                    group: item.group.clone(),
                    policy: None,
                    workload: None,
                    package: None,
                    threshold: None,
                    queue_capacity: None,
                    outcome: RunOutcome::Table(kind.compute()),
                });
                continue;
            }
            let spec = item.case.fold_initial_phases().map_err(|e| e.to_string())?;
            let built = Instant::now();
            let mut sim = spec.build().map_err(|e| e.to_string())?;
            out.build_us.push(built.elapsed().as_secs_f64() * 1e6);
            sim.set_policy_registry(PolicyRegistry::global());
            if let Some(target) = sink {
                attach_timed_sink(&mut sim, target, &item.case)?;
            }
            sims.push(sim);
            folded.push(spec);
        }
        let sims = match sims.len() {
            0 => sims,
            1 if unit.len() == 1 => {
                let mut sim = sims.pop().expect("one simulation");
                let (steps, substeps) = self.run_scalar(&mut sim, &folded[0])?;
                out.steps += steps;
                out.substeps += substeps;
                vec![sim]
            }
            _ => {
                let (lanes, steps, substeps) = self.run_lanes(sims, &folded)?;
                out.steps += steps;
                out.substeps += substeps;
                lanes
            }
        };
        for ((mut sim, spec), item) in sims
            .into_iter()
            .zip(&folded)
            .zip(unit.iter().filter(|item| item.case.analysis.is_none()))
        {
            sim.detach_trace_sink().map_err(|e| e.to_string())?;
            out.reports.push(RunReport {
                scenario: item.case.name.clone(),
                group: item.group.clone(),
                policy: Some(spec.policy_spec().name),
                workload: Some(spec.workload_label()),
                package: Some(spec.package_kind()),
                threshold: Some(spec.threshold()),
                queue_capacity: spec.queue_capacity(),
                outcome: RunOutcome::Simulation(Box::new(sim.summary())),
            });
        }
        out.unit_s
            .push((started.elapsed().as_secs_f64() - self.probe_ns * 1e-9).max(0.0));
        Ok(())
    }

    /// Steps one simulation to its end, applying its phases where `Runner`
    /// applies them. Returns the steps and RC sub-steps executed.
    fn run_scalar(
        &mut self,
        sim: &mut Simulation,
        spec: &ScenarioSpec,
    ) -> Result<(u64, u64), String> {
        let dt = sim.config().time_step;
        let total = step_count(spec.total_duration(), dt);
        let deltas = due_deltas(spec, dt, total);
        let mut next = 0;
        let half = self.every / 2;
        for i in 0..total {
            while next < deltas.len() && deltas[next].0 <= i {
                sim.apply_delta(&deltas[next].1)
                    .map_err(|e| e.to_string())?;
                next += 1;
            }
            let phase = i % self.every;
            if phase == 0 {
                let probe_started = Instant::now();
                let mut model = self.pre_thermal(sim, dt)?;
                self.thermal_step(&mut model, dt)?;
                sim.step().map_err(|e| e.to_string())?;
                self.samples.compared += 1;
                self.samples.mismatches += u64::from(!same_state(&model, sim.thermal()));
                self.probe_ns += probe_started.elapsed().as_nanos() as f64;
            } else if phase == half {
                let started = Instant::now();
                sim.step().map_err(|e| e.to_string())?;
                self.samples.step.push(started.elapsed().as_nanos() as f64);
            } else {
                sim.step().map_err(|e| e.to_string())?;
            }
        }
        Ok((total, total * substeps_per_step(sim.thermal(), dt)))
    }

    /// Steps one lane chunk through a `LaneBatch` to its end. Returns the
    /// lanes and the steps and RC sub-steps executed (per lane, summed).
    fn run_lanes(
        &mut self,
        sims: Vec<Simulation>,
        specs: &[ScenarioSpec],
    ) -> Result<(Vec<Simulation>, u64, u64), String> {
        if specs.iter().any(|s| s.phases.is_some()) {
            return Err("lane-batched probing does not apply phases".into());
        }
        let mut batch = LaneBatch::new(sims).map_err(|e| e.to_string())?;
        let dt = batch.time_step();
        let total = step_count(specs[0].total_duration(), dt);
        if specs
            .iter()
            .any(|s| step_count(s.total_duration(), dt) != total)
        {
            return Err("lane chunk step counts differ".into());
        }
        let half = self.every / 2;
        let lanes = batch.num_lanes();
        for i in 0..total {
            let phase = i % self.every;
            if phase == 0 {
                let probe_started = Instant::now();
                let mut before = Vec::with_capacity(lanes);
                let mut after = Vec::with_capacity(lanes);
                let mut powers: Vec<Vec<Watts>> = Vec::with_capacity(lanes);
                for lane in 0..lanes {
                    let sim = batch.lane(lane).expect("lane in range");
                    let model = self.pre_thermal(sim, dt)?;
                    let mut stepped = model.clone();
                    self.thermal_step(&mut stepped, dt)?;
                    powers.push(self.power.per_block().to_vec());
                    before.push(model);
                    after.push(stepped);
                }
                let models: Vec<&ThermalModel> = before.iter().collect();
                let mut kernel =
                    ThermalLaneKernel::from_models(&models).map_err(|e| e.to_string())?;
                for (lane, power) in powers.iter().enumerate() {
                    kernel
                        .set_block_powers(lane, power)
                        .map_err(|e| e.to_string())?;
                }
                let started = Instant::now();
                kernel.advance(dt).map_err(|e| e.to_string())?;
                self.samples
                    .lane_advance_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                batch.step().map_err(|e| e.to_string())?;
                for (lane, stepped) in after.iter().enumerate() {
                    let real = batch.lane(lane).expect("lane in range").thermal();
                    self.samples.compared += 2;
                    self.samples.mismatches += u64::from(!same_state(stepped, real));
                    self.samples.mismatches += u64::from(!same_lane(&kernel, lane, real));
                }
                self.probe_ns += probe_started.elapsed().as_nanos() as f64;
            } else if phase == half {
                let started = Instant::now();
                batch.step().map_err(|e| e.to_string())?;
                self.samples
                    .lane_step_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
            } else {
                batch.step().map_err(|e| e.to_string())?;
            }
        }
        let sims = batch.into_lanes();
        let substeps: u64 = sims
            .iter()
            .map(|sim| total * substeps_per_step(sim.thermal(), dt))
            .sum();
        Ok((sims, total * lanes as u64, substeps))
    }

    /// Clones `sim`'s layers and times phases 1–4 of its step on the clones
    /// (OS, streaming, platform, power), leaving the power vector in
    /// `self.power`. Returns the cloned, not yet stepped, thermal model.
    fn pre_thermal(&mut self, sim: &Simulation, dt: Seconds) -> Result<ThermalModel, String> {
        let mut os = sim.os().clone();
        let mut platform = sim.platform().clone();
        let mut pipeline = sim.pipeline().cloned();
        let thermal = sim.thermal().clone();

        let started = Instant::now();
        os.step_into(&mut platform, dt, &mut self.report)
            .map_err(|e| e.to_string())?;
        self.samples.os.push(started.elapsed().as_nanos() as f64);

        if let Some(pipeline) = pipeline.as_mut() {
            let started = Instant::now();
            pipeline.step(dt, &self.report.executed_cycles);
            self.samples
                .streaming
                .push(started.elapsed().as_nanos() as f64);
        }

        let started = Instant::now();
        std::hint::black_box(platform.step(dt));
        self.samples
            .platform
            .push(started.elapsed().as_nanos() as f64);

        let started = Instant::now();
        thermal.block_temperatures_into(&mut self.temps);
        platform.power_snapshot_into(&self.temps, &mut self.power);
        self.samples.power.push(started.elapsed().as_nanos() as f64);
        std::hint::black_box(&pipeline);
        Ok(thermal)
    }

    /// Times phase 5, `ThermalModel::step`, on `model` with `self.power`.
    fn thermal_step(&mut self, model: &mut ThermalModel, dt: Seconds) -> Result<(), String> {
        let started = Instant::now();
        model
            .step(self.power.per_block(), dt)
            .map_err(|e| e.to_string())?;
        self.samples
            .thermal
            .push(started.elapsed().as_nanos() as f64);
        Ok(())
    }
}

/// The phase deltas of `spec` that fire before the run ends, with the step
/// index each fires at (the rule `Runner` applies).
fn due_deltas(spec: &ScenarioSpec, dt: Seconds, total: u64) -> Vec<(u64, SpecDelta)> {
    let mut deltas = Vec::new();
    for phase in spec.phases.iter().flatten() {
        let due = step_count(Seconds::new(phase.at), dt);
        if due >= total {
            break;
        }
        deltas.push((due, phase.delta()));
    }
    deltas
}

/// RC sub-steps one co-simulation step of `model` plans.
pub fn substeps_per_step(model: &ThermalModel, dt: Seconds) -> u64 {
    let (substeps, _) = Solver::new(model.solver_kind())
        .substep_plan(dt.as_secs(), model.network().max_stable_step());
    substeps as u64
}

/// Whether two thermal models hold the same elapsed time and node
/// temperatures, bit for bit.
pub fn same_state(a: &ThermalModel, b: &ThermalModel) -> bool {
    a.elapsed().as_secs().to_bits() == b.elapsed().as_secs().to_bits()
        && bits(&a.network().temperatures()) == bits(&b.network().temperatures())
}

/// Whether `lane` of `kernel` holds `model`'s node temperatures bit for bit.
pub fn same_lane(kernel: &ThermalLaneKernel, lane: usize, model: &ThermalModel) -> bool {
    let temps = model.network().temperatures();
    temps.len() == kernel.num_nodes()
        && temps.iter().enumerate().all(|(node, t)| {
            kernel.lane_temperature(lane, node).map(f64::to_bits) == Some(t.as_celsius().to_bits())
        })
}

fn bits(temps: &[Celsius]) -> Vec<u64> {
    temps.iter().map(|t| t.as_celsius().to_bits()).collect()
}

/// Attaches a timed file sink to `sim` exactly as `Runner::with_trace_dir`
/// would attach its file sink.
fn attach_timed_sink(
    sim: &mut Simulation,
    target: &SinkTarget<'_>,
    case: &ScenarioSpec,
) -> Result<(), String> {
    let default_spec = TraceSpec::default();
    let spec = case.trace.as_ref().unwrap_or(&default_spec);
    let interval = spec.interval().map_err(|e| e.to_string())?;
    let selection = spec.selection().map_err(|e| e.to_string())?;
    let path = target.dir.join(trace_file_name(&case.name));
    let file = FileSink::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    sim.attach_trace_sink(
        Box::new(TimedSink::new(file, target.times.clone())),
        interval,
        selection,
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbp_core::scenario::{expand_work, PlatformSpec, ScheduleSpec, SweepSpec};
    use tbp_core::Runner;

    fn tiny(cores: usize, steps_ms: f64, solver: tbp_thermal::solver::SolverKind) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("tiny").with_sweep(
            SweepSpec::default()
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 3.0]),
        );
        spec.platform = Some(PlatformSpec {
            cores: Some(cores),
            solver: Some(solver),
            ..PlatformSpec::default()
        });
        spec.schedule = Some(ScheduleSpec {
            warmup: Some(0.2),
            duration: Some(0.4),
            time_step_ms: Some(steps_ms),
            policy_period_ms: Some(steps_ms * 2.0),
            ..ScheduleSpec::default()
        });
        spec
    }

    #[test]
    fn scalar_probes_match_the_real_step_and_change_no_report() {
        let specs = [tiny(3, 5.0, tbp_thermal::solver::SolverKind::ForwardEuler)];
        let work = expand_work(&specs);
        let probed = run_probed(&work, 1, 2, 4, None).expect("probed run");
        assert_eq!(probed.samples.mismatches, 0);
        assert!(probed.samples.compared > 0);
        assert!(!probed.samples.os.is_empty() && !probed.samples.step.is_empty());
        let plain = Runner::new().run(&specs).expect("plain run");
        assert_eq!(probed.reports, plain.reports);
        assert_eq!(probed.steps, 4 * 120);
    }

    #[test]
    fn lane_probes_match_every_lane() {
        let specs = [tiny(4, 20.0, tbp_thermal::solver::SolverKind::RungeKutta4)];
        let work = expand_work(&specs);
        let probed = run_probed(&work, 4, 1, 4, None).expect("probed run");
        assert_eq!(probed.samples.mismatches, 0);
        assert!(!probed.samples.lane_advance_us.is_empty());
        let plain = Runner::new().with_lanes(4).run(&specs).expect("plain run");
        assert_eq!(probed.reports, plain.reports);
    }

    #[test]
    fn a_perturbed_state_is_a_mismatch() {
        let sim = ScenarioSpec::new("t").build().expect("build");
        let mut other = sim.thermal().clone();
        assert!(same_state(&other, sim.thermal()));
        other.set_uniform_temperature(Celsius::new(50.0));
        assert!(!same_state(&other, sim.thermal()));
    }
}
