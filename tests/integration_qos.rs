//! Quality-of-service behaviour: queue sizing, the effect of halting cores,
//! and the pipeline's ability to ride out migration freezes (narrative N3 of
//! DESIGN.md).

use proptest::prelude::*;

use tbp_arch::units::Seconds;
use tbp_core::scenario::ScenarioSpec;
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{SimulationBuilder, SimulationConfig};
use tbp_streaming::pipeline::PipelineConfig;
use tbp_streaming::sdr::SdrBenchmark;
use tbp_thermal::package::{Package, PackageKind};

/// Runs the SDR benchmark for the spec's warm-up plus measured window.
fn run_spec(spec: &ScenarioSpec) -> tbp_core::SimulationSummary {
    let mut sim = spec.build().unwrap();
    sim.run_for(spec.total_duration()).unwrap();
    sim.summary()
}

fn run_with_queue(queue_capacity: usize, threshold: f64) -> tbp_core::SimulationSummary {
    let sdr = SdrBenchmark::paper_default().with_pipeline_config(PipelineConfig {
        queue_capacity,
        prefill: (queue_capacity / 2).max(1).min(queue_capacity),
        ..PipelineConfig::paper_default()
    });
    let mut sim = SimulationBuilder::new()
        .with_package(Package::high_performance())
        .with_workload(Workload::Sdr(sdr))
        .with_threshold(threshold)
        .with_config(SimulationConfig {
            warmup: Seconds::new(3.0),
            metrics_threshold: threshold,
            ..SimulationConfig::paper_default()
        })
        .build()
        .unwrap();
    sim.run_for(Seconds::new(15.0)).unwrap();
    sim.summary()
}

/// The paper: a queue size can always be found that sustains thermal
/// balancing without QoS impact (11 frames in their setup). Deep queues must
/// absorb the most aggressive balancing configuration, and shrinking the
/// queues can only make things worse.
#[test]
fn deeper_queues_absorb_migration_freezes() {
    let tiny = run_with_queue(1, 1.0);
    let paper = run_with_queue(11, 1.0);
    assert!(
        paper.migration.migrations > 0,
        "the tight threshold must migrate"
    );
    assert_eq!(
        paper.qos.deadline_misses, 0,
        "11-frame queues must sustain balancing without misses"
    );
    assert!(
        tiny.qos.deadline_misses >= paper.qos.deadline_misses,
        "shrinking the queues cannot improve QoS"
    );
}

/// Without any thermal policy the provisioned pipeline never misses a
/// deadline: misses in the other experiments are attributable to the policy
/// under test, not to the workload itself.
#[test]
fn baseline_pipeline_is_feasible() {
    let summary = run_spec(
        &ScenarioSpec::new("experiment")
            .with_package(PackageKind::MobileEmbedded)
            .with_policy("dvfs-only", 3.0)
            .with_schedule(2.0, 15.0),
    );
    assert_eq!(summary.qos.deadline_misses, 0);
    // Roughly one frame per 25 ms over the whole run.
    let expected = (summary.total_time.as_secs() / 0.025) as u64;
    assert!(summary.qos.frames_delivered > expected * 8 / 10);
    assert!(summary.qos.frames_delivered <= expected + 2);
}

/// Halting cores (Stop&Go) starves the stages mapped to them: the miss count
/// grows with how long cores stay halted, and the miss rate is bounded by 1.
#[test]
fn halting_cores_causes_proportional_misses() {
    let summary = run_spec(
        &ScenarioSpec::new("experiment")
            .with_package(PackageKind::HighPerformance)
            .with_policy("stop-and-go", 2.0)
            .with_schedule(3.0, 12.0),
    );
    assert!(summary.migration.halts > 0);
    assert!(summary.qos.deadline_misses > 0);
    let rate = summary.qos.miss_rate();
    assert!((0.0..=1.0).contains(&rate));
    // Misses cannot exceed the number of deadlines that elapsed.
    let deadlines = summary.qos.frames_delivered + summary.qos.deadline_misses;
    assert!(deadlines as f64 <= summary.total_time.as_secs() / 0.025 + 2.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for any queue capacity and balancing threshold, the QoS
    /// accounting is internally consistent — delivered + missed never exceeds
    /// the number of deadlines that elapsed, and the minimum queue level never
    /// exceeds the capacity.
    #[test]
    fn qos_accounting_is_consistent(queue in 1usize..16, threshold in 1.0f64..4.0) {
        let summary = run_with_queue(queue, threshold);
        let deadlines = summary.qos.frames_delivered + summary.qos.deadline_misses;
        let elapsed_deadlines = (summary.total_time.as_secs() / 0.025).ceil() as u64 + 2;
        prop_assert!(deadlines <= elapsed_deadlines);
        prop_assert!(summary.qos.min_queue_level <= queue);
        prop_assert!(summary.qos.miss_rate() >= 0.0 && summary.qos.miss_rate() <= 1.0);
    }
}
