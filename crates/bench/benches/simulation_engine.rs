//! Criterion benchmarks of the full co-simulation loop.
//!
//! Measures how much wall-clock time one second of simulated SDR execution
//! costs for each policy, and how the engine scales with the core count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tbp_arch::platform::PlatformConfig;
use tbp_arch::units::Seconds;
use tbp_core::scenario::{PolicyRegistry, PolicySpec};
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{SimulationBuilder, SimulationConfig};
use tbp_streaming::workload::WorkloadSpec;
use tbp_thermal::package::Package;

fn bench_one_simulated_second(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_one_second_sdr");
    group.sample_size(10);
    let registry = PolicyRegistry::global();
    for policy in ["thermal-balancing", "stop-and-go", "energy-balancing"] {
        let spec = PolicySpec::named(policy).with_threshold(2.0);
        group.bench_function(policy, |b| {
            b.iter(|| {
                let mut sim = SimulationBuilder::new()
                    .with_package(Package::high_performance())
                    .with_workload(Workload::sdr())
                    .with_policy_box(registry.instantiate(&spec).expect("built-in policy"))
                    .with_config(SimulationConfig {
                        warmup: Seconds::new(0.2),
                        ..SimulationConfig::paper_default()
                    })
                    .build()
                    .expect("simulation builds");
                sim.run_for(Seconds::new(1.0)).expect("simulation runs");
                black_box(sim.summary())
            });
        });
    }
    group.finish();
}

fn bench_core_count_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_one_second_synthetic");
    group.sample_size(10);
    for cores in [2usize, 4, 8] {
        group.bench_function(format!("{cores}_cores"), |b| {
            b.iter(|| {
                let spec = WorkloadSpec {
                    num_tasks: cores * 3,
                    num_cores: cores,
                    total_fse_load: 0.5 * cores as f64,
                    ..WorkloadSpec::default_mixed()
                };
                let mut sim = SimulationBuilder::new()
                    .with_platform(PlatformConfig::paper_default().with_cores(cores))
                    .with_package(Package::high_performance())
                    .with_workload(Workload::Synthetic(spec))
                    .with_config(SimulationConfig {
                        warmup: Seconds::new(0.2),
                        ..SimulationConfig::paper_default()
                    })
                    .build()
                    .expect("simulation builds");
                sim.run_for(Seconds::new(1.0)).expect("simulation runs");
                black_box(sim.summary())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_one_simulated_second,
    bench_core_count_scaling
);
criterion_main!(benches);
