//! Hot-loop microbenchmarks: steady-state `Simulation::step` throughput for
//! platform × solver × workload combinations, plus layer-level benches
//! (RC-network kernel, power snapshot, OS step, pipeline step) that show
//! where a step's nanoseconds go.
//!
//! Run with `cargo bench -p tbp-bench --bench hot_loop`. The numbers feed
//! the committed `BENCH_PR4.json` trajectory via the `perf_report` binary;
//! see `docs/PERFORMANCE.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tbp_arch::core::CoreId;
use tbp_arch::platform::{MpsocPlatform, PlatformConfig, PowerSnapshot};
use tbp_arch::units::{Celsius, Seconds};
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{Simulation, SimulationBuilder, SimulationConfig};
use tbp_os::mpos::{Mpos, MposStepReport};
use tbp_os::task::TaskDescriptor;
use tbp_thermal::package::Package;
use tbp_thermal::rc::RcNetwork;
use tbp_thermal::solver::{Solver, SolverKind, SolverWorkspace};
use tbp_thermal::ThermalModel;

/// Steps per bench iteration: large enough that the loop dominates the
/// closure-call overhead of the harness.
const STEPS_PER_ITER: u64 = 10_000;

fn build_sim(package: Package, solver: SolverKind, workload: Workload) -> Simulation {
    let mut sim = SimulationBuilder::new()
        .with_package(package)
        .with_solver(solver)
        .with_workload(workload)
        .with_config(SimulationConfig::paper_default())
        .build()
        .expect("bench simulation builds");
    // Run past the warm-up so the measured loop includes policy invocations.
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    sim
}

fn bench_simulation_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    let cases: Vec<(&str, Package, SolverKind, Workload)> = vec![
        (
            "mobile_euler_sdr",
            Package::mobile_embedded(),
            SolverKind::ForwardEuler,
            Workload::sdr(),
        ),
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
            "hiperf_rk4_sdr",
            Package::high_performance(),
            SolverKind::RungeKutta4,
            Workload::sdr(),
        ),
        (
            "mobile_euler_dag",
            Package::mobile_embedded(),
            SolverKind::ForwardEuler,
            Workload::generated("dag"),
        ),
        (
            "hiperf_euler_dag",
            Package::high_performance(),
            SolverKind::ForwardEuler,
            Workload::generated("dag"),
        ),
    ];
    for (name, package, solver, workload) in cases {
        let mut sim = build_sim(package, solver, workload);
        group.bench_function(format!("{name}_x{STEPS_PER_ITER}"), |b| {
            b.iter(|| {
                for _ in 0..STEPS_PER_ITER {
                    sim.step().expect("steady-state step");
                }
                sim.elapsed().as_secs()
            })
        });
    }
    group.finish();
}

/// The paper-floorplan thermal model network, heated like the SDR run.
fn paper_network() -> RcNetwork {
    let floorplan = tbp_arch::floorplan::Floorplan::paper_3core();
    let model = ThermalModel::new(&floorplan, Package::mobile_embedded()).expect("model builds");
    model.network().clone()
}

fn bench_rc_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("rc_network");
    let iters = 10_000u64;

    let mut net = paper_network();
    net.ensure_compiled();
    let temps: Vec<f64> = (0..net.len()).map(|i| 45.0 + i as f64).collect();
    let mut out = Vec::new();
    group.bench_function(format!("derivative_into_compiled_x{iters}"), |b| {
        b.iter(|| {
            for _ in 0..iters {
                net.derivative_into(black_box(&temps), &mut out);
            }
            out[0]
        })
    });
    group.bench_function(format!("derivative_alloc_x{iters}"), |b| {
        b.iter(|| {
            let mut last = 0.0;
            for _ in 0..iters {
                last = net.derivative(black_box(&temps))[0];
            }
            last
        })
    });

    let solver = Solver::new(SolverKind::ForwardEuler);
    let mut ws = SolverWorkspace::new();
    group.bench_function(format!("advance_with_euler_5ms_x{iters}"), |b| {
        b.iter(|| {
            for _ in 0..iters {
                solver
                    .advance_with(&mut net, Seconds::from_millis(5.0), &mut ws)
                    .expect("advance");
            }
            net.temperature(0).as_celsius()
        })
    });
    let rk4 = Solver::new(SolverKind::RungeKutta4);
    group.bench_function(format!("advance_with_rk4_5ms_x{iters}"), |b| {
        b.iter(|| {
            for _ in 0..iters {
                rk4.advance_with(&mut net, Seconds::from_millis(5.0), &mut ws)
                    .expect("advance");
            }
            net.temperature(0).as_celsius()
        })
    });
    group.finish();
}

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers");
    let iters = 10_000u64;

    // Power snapshot fill.
    let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).expect("platform");
    for id in platform.core_ids() {
        platform
            .core_mut(id)
            .expect("core")
            .set_utilization(0.5)
            .expect("utilization");
    }
    let temps = vec![Celsius::new(55.0); platform.floorplan().len()];
    let mut snap = PowerSnapshot::empty();
    group.bench_function(format!("power_snapshot_into_x{iters}"), |b| {
        b.iter(|| {
            for _ in 0..iters {
                platform.power_snapshot_into(black_box(&temps), &mut snap);
            }
            snap.total()
        })
    });

    // OS step with the SDR-like task population.
    let mut os = Mpos::new(3, tbp_arch::freq::DvfsScale::paper_default());
    for (name, load, core) in [
        ("bpf1", 0.367, 0usize),
        ("demod", 0.283, 0),
        ("bpf2", 0.304, 1),
    ] {
        os.spawn(
            TaskDescriptor::new(name, load, tbp_arch::units::Bytes::from_kib(64)),
            CoreId(core),
        )
        .expect("spawn");
    }
    let mut report = MposStepReport::default();
    group.bench_function(format!("mpos_step_into_x{iters}"), |b| {
        b.iter(|| {
            for _ in 0..iters {
                os.step_into(&mut platform, Seconds::from_millis(5.0), &mut report)
                    .expect("os step");
            }
            report.core_loads.len()
        })
    });
    group.finish();
}

fn bench_trace_encode(c: &mut Criterion) {
    use tbp_obs::{TraceWriter, TrackDef, TrackKind};

    let mut group = c.benchmark_group("trace_encode");
    let iters = 10_000u64;
    // One sampling tick of an N-core platform: N temperature + N frequency
    // counters plus the two cumulative counters, written into an in-memory
    // writer (the same encode path a file-backed sink drives per tick).
    for cores in [4usize, 16, 64] {
        let mut defs = Vec::new();
        for i in 0..cores {
            defs.push(TrackDef::counter(
                TrackKind::CoreTemperature,
                i as u32,
                0.01,
                format!("core{i}.temp_c"),
            ));
        }
        for i in 0..cores {
            defs.push(TrackDef::counter(
                TrackKind::CoreFrequency,
                i as u32,
                0.01,
                format!("core{i}.freq_mhz"),
            ));
        }
        defs.push(TrackDef::counter(
            TrackKind::Migrations,
            0,
            0.01,
            "migrations",
        ));
        defs.push(TrackDef::counter(
            TrackKind::DeadlineMisses,
            0,
            0.01,
            "deadline_misses",
        ));
        let mut writer = TraceWriter::new(std::io::sink(), &defs).expect("writer builds");
        let freq_base = cores as u16;
        let mig = 2 * cores as u16;
        group.bench_function(format!("tick_{cores}cores_x{iters}"), |b| {
            b.iter(|| {
                for tick in 0..iters {
                    let t = tick as f64 * 0.01;
                    for i in 0..cores as u16 {
                        writer.counter(i, t, black_box(45.0 + f64::from(i)));
                        writer.counter(freq_base + i, t, black_box(400.0));
                    }
                    writer.counter(mig, t, 3.0);
                    writer.counter(mig + 1, t, 0.0);
                }
                writer.records()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation_step,
    bench_rc_network,
    bench_layers,
    bench_trace_encode
);
criterion_main!(benches);
