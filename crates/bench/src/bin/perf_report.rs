//! Measures hot-loop throughput and writes the machine-readable perf
//! trajectory file `BENCH_PR4.json`.
//!
//! The headline benchmark is the steady-state [`Simulation::step`] rate of
//! the paper's default setup (mobile package, forward Euler, SDR pipeline)
//! after the 8 s warm-up — exactly the loop every sweep point spends almost
//! all of its time in. Three secondary cases (high-performance package, RK4
//! solver, DAG workload) and the end-to-end wall time of the scenario batch
//! complete the picture.
//!
//! The committed `BENCH_PR4.json` records both the **pre-PR baseline**
//! (measured on the same machine at the merge base, hard-coded below) and
//! the **current** numbers, so the speedup is self-describing. Absolute
//! numbers are machine-dependent; CI only asserts the file parses and
//! `steps_per_sec > 0`, while the ≥3× acceptance ratio is checked on the
//! machine that committed the file.
//!
//! Since PR 7 the binary additionally measures **lane scaling** — the
//! aggregate throughput of [`LaneBatch::step`] at 1, 2, 4 and 8 lanes — and
//! writes it to `BENCH_PR7.json`. Only the thermal phase vectorises across
//! lanes (the power model's per-task `exp2` calls are not bit-identically
//! vectorisable), so the scaling headroom per config is its thermal fraction;
//! the coarse-step configs, whose larger time step buys proportionally more
//! solver sub-steps per `step`, are where the batched engine shines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tbp-bench --bin perf_report \
//!     [-- --quick] [--out FILE] [--lanes-out FILE]
//! ```
//!
//! `--quick` shortens every measurement (CI smoke); `--out` overrides the
//! hot-loop output path (default `BENCH_PR4.json`), `--lanes-out` the
//! lane-scaling output path (default `BENCH_PR7.json`).

use std::time::Instant;

use serde::Serialize;
use tbp_arch::platform::PlatformConfig;
use tbp_arch::units::Seconds;
use tbp_core::scenario::Runner;
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{LaneBatch, Simulation, SimulationBuilder, SimulationConfig};
use tbp_thermal::package::Package;
use tbp_thermal::solver::SolverKind;

/// Baseline measured at the pre-PR4 merge base (commit 8405dd0, "Workload
/// subsystem"), same machine, same `--quick`-less settings: the steady-state
/// step rate of the mobile/euler/sdr hot loop before the compiled thermal
/// kernel and the reusable step workspaces landed. Best of repeated runs
/// (the generous end of the observed 542k–626k steps/s range, so the
/// recorded speedup is a lower bound).
const BASELINE_COMMIT: &str = "8405dd0 (pre-PR4 main)";
/// Pre-PR4 steps/second of the headline `mobile_euler_sdr` case.
const BASELINE_STEPS_PER_SEC: f64 = 626_408.0;
/// Pre-PR4 nanoseconds per step of the headline case.
const BASELINE_NS_PER_STEP: f64 = 1_596.4;

/// One measured benchmark case.
#[derive(Debug, Serialize)]
struct CaseReport {
    /// Case name (`package_solver_workload`).
    name: String,
    /// Steady-state `Simulation::step` calls per second.
    steps_per_sec: f64,
    /// Mean nanoseconds per step.
    ns_per_step: f64,
    /// Number of timed steps.
    steps: u64,
}

/// The whole perf trajectory entry this binary writes.
#[derive(Debug, Serialize)]
struct PerfReport {
    pr: u32,
    benchmark: String,
    baseline: Baseline,
    current: Current,
    /// `current.steps_per_sec / baseline.steps_per_sec` of the headline case.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    commit: String,
    steps_per_sec: f64,
    ns_per_step: f64,
}

#[derive(Debug, Serialize)]
struct Current {
    /// Headline case (mobile package, forward Euler, SDR pipeline).
    steps_per_sec: f64,
    ns_per_step: f64,
    /// All measured cases, including the headline.
    cases: Vec<CaseReport>,
    /// Wall-clock seconds of the shipped scenario batch (`reproduce_all`
    /// equivalent, 2 s measured window, cold cache).
    reproduce_all_wall_s: f64,
    /// Whether `--quick` shortened the measurements.
    quick: bool,
}

/// One lane count's worth of lane-scaling measurement.
#[derive(Debug, Serialize)]
struct LanePoint {
    /// Lanes stepped in lockstep.
    lanes: usize,
    /// Aggregate simulation steps per second across all lanes.
    agg_steps_per_sec: f64,
    /// Mean nanoseconds per per-lane step (batch time / (steps × lanes)).
    ns_per_lane_step: f64,
}

/// Lane scaling of one configuration.
#[derive(Debug, Serialize)]
struct LaneCaseReport {
    /// Config name (`package_solver_workload[_platform][_step]`).
    name: String,
    /// Cores of the simulated platform (3 is the paper's).
    cores: usize,
    /// Co-simulation time step in milliseconds.
    time_step_ms: f64,
    /// Plain `Simulation::step` throughput (no batch wrapper) — the honest
    /// un-batched reference point. A 1-lane batch delegates to exactly this
    /// path, so `points[0]` and this should agree up to measurement noise.
    solo_steps_per_sec: f64,
    /// Batched throughput at 1, 2, 4 and 8 lanes.
    points: Vec<LanePoint>,
    /// Aggregate 8-lane throughput over the measured 1-lane batch — the
    /// acceptance metric ("8 lanes vs 1 lane").
    speedup_8x: f64,
    /// Aggregate 8-lane throughput over the solo baseline.
    speedup_8x_vs_solo: f64,
}

/// The lane-scaling trajectory entry written to `BENCH_PR7.json`.
#[derive(Debug, Serialize)]
struct LaneScalingReport {
    pr: u32,
    benchmark: String,
    /// SIMD path the kernel dispatched to on this machine.
    simd: String,
    /// Name of the config whose `speedup_8x` is the acceptance headline.
    headline: String,
    /// That config's aggregate 8-lane speedup over its solo baseline.
    headline_speedup_8x: f64,
    /// Per-config scaling curves.
    cases: Vec<LaneCaseReport>,
    /// Whether `--quick` shortened the measurements.
    quick: bool,
}

fn build_sim(package: Package, solver: SolverKind, workload: Workload) -> Simulation {
    SimulationBuilder::new()
        .with_platform(PlatformConfig::paper_default())
        .with_package(package)
        .with_solver(solver)
        .with_workload(workload)
        // The measured loop is the steady-state step: the paper's 8 s
        // warm-up is run before the clock starts.
        .with_config(SimulationConfig::paper_default())
        .build()
        .expect("perf_report simulation builds")
}

/// Warm the simulation past its warm-up phase, then time `steps` steps per
/// trial and keep the fastest trial — the least-interference estimate on
/// shared/virtualised machines, where scheduler steal inflates wall time by
/// double-digit percent between runs.
fn measure_case(name: &str, mut sim: Simulation, steps: u64, trials: u32) -> CaseReport {
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..steps {
            sim.step().expect("steady-state step");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    CaseReport {
        name: name.to_string(),
        steps_per_sec: steps as f64 / best,
        ns_per_step: best * 1e9 / steps as f64,
        steps,
    }
}

/// Wall time of the shipped scenario batch (2 s measured window, no cache).
fn measure_reproduce_all() -> f64 {
    let specs: Vec<_> = tbp_core::scenario::shipped()
        .into_iter()
        .map(|spec| tbp_bench::override_duration(spec, Seconds::new(2.0)))
        .collect();
    let runner = Runner::new();
    let start = Instant::now();
    runner.run(&specs).expect("scenario batch runs");
    start.elapsed().as_secs_f64()
}

/// Builds one lane of a lane-scaling config. The policy period is stretched
/// to the time step when the step is coarser than the requested period
/// (the config would otherwise fail validation); everything else matches the
/// hot-loop cases.
fn build_lane_sim(
    package: Package,
    solver: SolverKind,
    step_ms: f64,
    cores: usize,
    policy_ms: f64,
) -> Simulation {
    SimulationBuilder::new()
        .with_platform(PlatformConfig::paper_default().with_cores(cores))
        .with_package(package)
        .with_solver(solver)
        .with_workload(Workload::sdr())
        .with_config(SimulationConfig {
            time_step: Seconds::from_millis(step_ms),
            policy_period: Seconds::from_millis(policy_ms.max(step_ms).max(10.0)),
            ..SimulationConfig::paper_default()
        })
        .build()
        .expect("lane-scaling simulation builds")
}

/// Steady-state plain `Simulation::step` throughput — the solo baseline.
fn measure_solo_rate(build: &dyn Fn() -> Simulation, steps: u64, trials: u32) -> f64 {
    let mut sim = build();
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..steps {
            sim.step().expect("steady-state step");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    steps as f64 / best
}

/// Steady-state `LaneBatch::step` throughput at one lane count.
fn measure_lane_point(
    build: &dyn Fn() -> Simulation,
    lanes: usize,
    steps: u64,
    trials: u32,
) -> LanePoint {
    let sims: Vec<Simulation> = (0..lanes).map(|_| build()).collect();
    let mut batch = LaneBatch::new(sims).expect("lane batch forms");
    let warm_steps = (9.0 / batch.time_step().as_secs()).ceil() as u64;
    batch.run_steps(warm_steps).expect("warm-up runs");
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        batch.run_steps(steps).expect("steady-state batch steps");
        best = best.min(start.elapsed().as_secs_f64());
    }
    LanePoint {
        lanes,
        agg_steps_per_sec: (lanes as u64 * steps) as f64 / best,
        ns_per_lane_step: best * 1e9 / (lanes as u64 * steps) as f64,
    }
}

/// Measures one config's full scaling curve (solo baseline + 1/2/4/8 lanes).
#[allow(clippy::too_many_arguments)]
fn measure_lane_case(
    name: &str,
    package: Package,
    solver: SolverKind,
    step_ms: f64,
    cores: usize,
    policy_ms: f64,
    steps: u64,
    trials: u32,
) -> LaneCaseReport {
    let build = move || build_lane_sim(package.clone(), solver, step_ms, cores, policy_ms);
    let solo = measure_solo_rate(&build, steps, trials);
    let points: Vec<LanePoint> = [1, 2, 4, 8]
        .into_iter()
        .map(|lanes| measure_lane_point(&build, lanes, steps, trials))
        .collect();
    let agg_1 = points.first().expect("1-lane point").agg_steps_per_sec;
    let agg_8 = points.last().expect("8-lane point").agg_steps_per_sec;
    let case = LaneCaseReport {
        name: name.to_string(),
        cores,
        time_step_ms: step_ms,
        solo_steps_per_sec: solo,
        speedup_8x: agg_8 / agg_1,
        speedup_8x_vs_solo: agg_8 / solo,
        points,
    };
    eprint!(
        "perf_report: {:<22} solo {:>9.0} steps/s |",
        case.name, case.solo_steps_per_sec
    );
    for p in &case.points {
        eprint!(" {}L {:>9.0}", p.lanes, p.agg_steps_per_sec);
    }
    eprintln!(
        " | 8-lane speedup {:.2}x (vs solo {:.2}x)",
        case.speedup_8x, case.speedup_8x_vs_solo
    );
    case
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR4.json".to_string());
    let lanes_out_path = args
        .iter()
        .position(|a| a == "--lanes-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR7.json".to_string());

    let steps: u64 = if quick { 20_000 } else { 100_000 };
    let trials: u32 = if quick { 2 } else { 8 };

    let headline = measure_case(
        "mobile_euler_sdr",
        build_sim(
            Package::mobile_embedded(),
            SolverKind::ForwardEuler,
            Workload::sdr(),
        ),
        steps,
        trials,
    );
    eprintln!(
        "perf_report: {} {:.0} steps/s ({:.0} ns/step)",
        headline.name, headline.steps_per_sec, headline.ns_per_step
    );
    let secondary = [
        (
            "hiperf_euler_sdr",
            Package::high_performance(),
            SolverKind::ForwardEuler,
            Workload::sdr(),
        ),
        (
            "mobile_rk4_sdr",
            Package::mobile_embedded(),
            SolverKind::RungeKutta4,
            Workload::sdr(),
        ),
        (
            "mobile_euler_dag",
            Package::mobile_embedded(),
            SolverKind::ForwardEuler,
            Workload::generated("dag"),
        ),
    ];
    let mut cases = vec![CaseReport {
        name: headline.name.clone(),
        steps_per_sec: headline.steps_per_sec,
        ns_per_step: headline.ns_per_step,
        steps: headline.steps,
    }];
    for (name, package, solver, workload) in secondary {
        let case = measure_case(
            name,
            build_sim(package, solver, workload),
            steps / 2,
            trials,
        );
        eprintln!(
            "perf_report: {} {:.0} steps/s ({:.0} ns/step)",
            case.name, case.steps_per_sec, case.ns_per_step
        );
        cases.push(case);
    }

    let reproduce_all_wall_s = measure_reproduce_all();
    eprintln!("perf_report: scenario batch (2 s window) took {reproduce_all_wall_s:.2} s");

    let report = PerfReport {
        pr: 4,
        benchmark: "hot_loop/mobile_euler_sdr steady-state Simulation::step".to_string(),
        baseline: Baseline {
            commit: BASELINE_COMMIT.to_string(),
            steps_per_sec: BASELINE_STEPS_PER_SEC,
            ns_per_step: BASELINE_NS_PER_STEP,
        },
        speedup: headline.steps_per_sec / BASELINE_STEPS_PER_SEC,
        current: Current {
            steps_per_sec: headline.steps_per_sec,
            ns_per_step: headline.ns_per_step,
            cases,
            reproduce_all_wall_s,
            quick,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("perf report written");
    eprintln!(
        "perf_report: wrote {out_path} (speedup {:.2}x over {BASELINE_COMMIT})",
        report.speedup
    );

    // Lane scaling (PR 7). The coarse-step and large-platform rows spend most
    // of each step in the solver sub-steps, which is the only phase that
    // vectorises across lanes — they are where batching pays. The headline is
    // the 32-core RK4 50 ms row: a thermal-dominated config (sub-step count
    // scales with the step, node count with the floorplan) where the lane
    // kernel's SIMD gather shows through the per-lane bookkeeping.
    let lane_steps = if quick { 2_000 } else { 20_000 };
    let lane_trials = if quick { 2 } else { 5 };
    let simd = LaneBatch::new(vec![build_lane_sim(
        Package::mobile_embedded(),
        SolverKind::ForwardEuler,
        5.0,
        3,
        10.0,
    )])
    .expect("probe batch forms")
    .simd_label()
    .to_string();
    eprintln!("perf_report: lane scaling (SIMD path: {simd})");
    let lane_configs: [(&str, Package, SolverKind, f64, usize, f64, u64); 8] = [
        (
            "mobile_euler_sdr",
            Package::mobile_embedded(),
            SolverKind::ForwardEuler,
            5.0,
            3,
            10.0,
            lane_steps,
        ),
        (
            "hiperf_euler_sdr",
            Package::high_performance(),
            SolverKind::ForwardEuler,
            5.0,
            3,
            10.0,
            lane_steps,
        ),
        (
            "mobile_rk4_sdr",
            Package::mobile_embedded(),
            SolverKind::RungeKutta4,
            5.0,
            3,
            10.0,
            lane_steps,
        ),
        (
            "hiperf_rk4_sdr",
            Package::high_performance(),
            SolverKind::RungeKutta4,
            5.0,
            3,
            10.0,
            lane_steps,
        ),
        (
            "hiperf_euler_sdr_20ms",
            Package::high_performance(),
            SolverKind::ForwardEuler,
            20.0,
            3,
            20.0,
            lane_steps / 4,
        ),
        (
            "hiperf_rk4_sdr_20ms",
            Package::high_performance(),
            SolverKind::RungeKutta4,
            20.0,
            3,
            20.0,
            lane_steps / 4,
        ),
        (
            "hiperf_rk4_sdr_16c_20ms",
            Package::high_performance(),
            SolverKind::RungeKutta4,
            20.0,
            16,
            100.0,
            lane_steps / 4,
        ),
        (
            "hiperf_rk4_sdr_32c_50ms",
            Package::high_performance(),
            SolverKind::RungeKutta4,
            50.0,
            32,
            100.0,
            lane_steps / 8,
        ),
    ];
    let lane_cases: Vec<LaneCaseReport> = lane_configs
        .into_iter()
        .map(
            |(name, package, solver, step_ms, cores, policy_ms, steps)| {
                measure_lane_case(
                    name,
                    package,
                    solver,
                    step_ms,
                    cores,
                    policy_ms,
                    steps,
                    lane_trials,
                )
            },
        )
        .collect();
    let headline_name = "hiperf_rk4_sdr_32c_50ms";
    let headline_speedup = lane_cases
        .iter()
        .find(|c| c.name == headline_name)
        .expect("headline lane config measured")
        .speedup_8x;
    let lane_report = LaneScalingReport {
        pr: 7,
        benchmark: "lane_scaling aggregate LaneBatch::step throughput at 1/2/4/8 lanes vs the 1-lane batch and solo Simulation::step"
            .to_string(),
        simd,
        headline: headline_name.to_string(),
        headline_speedup_8x: headline_speedup,
        cases: lane_cases,
        quick,
    };
    let json = serde_json::to_string_pretty(&lane_report).expect("lane report serializes");
    std::fs::write(&lanes_out_path, json + "\n").expect("lane report written");
    eprintln!(
        "perf_report: wrote {lanes_out_path} (headline {headline_name} \
         8-lane speedup {headline_speedup:.2}x)"
    );
}
