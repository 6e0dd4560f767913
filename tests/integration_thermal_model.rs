//! Thermal-model behaviour through the full co-simulation: package time
//! constants, solver agreement, leakage feedback and floorplan effects.

use proptest::prelude::*;

use tbp_arch::floorplan::Floorplan;
use tbp_arch::units::{Seconds, Watts};
use tbp_core::scenario::ScenarioSpec;
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{SimulationBuilder, SimulationConfig};
use tbp_thermal::package::{Package, PackageKind};
use tbp_thermal::solver::SolverKind;
use tbp_thermal::ThermalModel;

fn warmup_sim(package: PackageKind) -> tbp_core::Simulation {
    ScenarioSpec::new("experiment")
        .with_package(package)
        .with_policy("dvfs-only", 3.0)
        .with_schedule(0.0, 2.0)
        .build()
        .unwrap()
}

/// Section 5: the high-performance package's temperature variations are six
/// times faster. After the same two seconds of the same workload, the fast
/// package must have risen much closer to its steady state.
#[test]
fn high_performance_package_heats_up_much_faster() {
    let mut mobile = warmup_sim(PackageKind::MobileEmbedded);
    let mut hiperf = warmup_sim(PackageKind::HighPerformance);
    mobile.run_for(Seconds::new(2.0)).unwrap();
    hiperf.run_for(Seconds::new(2.0)).unwrap();
    let rise_mobile = mobile.core_temperatures()[0].as_celsius() - 45.0;
    let rise_hiperf = hiperf.core_temperatures()[0].as_celsius() - 45.0;
    assert!(
        rise_hiperf > 1.4 * rise_mobile,
        "high-performance rise {rise_hiperf:.1} should far exceed mobile rise {rise_mobile:.1}"
    );
}

/// Both packages share their resistances, so a long run converges to similar
/// temperatures; only the speed differs.
#[test]
fn packages_share_the_same_steady_state() {
    let mut mobile = warmup_sim(PackageKind::MobileEmbedded);
    let mut hiperf = warmup_sim(PackageKind::HighPerformance);
    mobile.run_for(Seconds::new(40.0)).unwrap();
    hiperf.run_for(Seconds::new(40.0)).unwrap();
    for (a, b) in mobile
        .core_temperatures()
        .iter()
        .zip(hiperf.core_temperatures())
    {
        assert!(
            (a.as_celsius() - b.as_celsius()).abs() < 2.0,
            "steady states should agree: {a} vs {b}"
        );
    }
}

/// The Euler and RK4 integrators must agree on the co-simulation's outcome.
#[test]
fn solver_choice_does_not_change_the_physics() {
    let build = |solver| {
        SimulationBuilder::new()
            .with_package(Package::high_performance())
            .with_workload(Workload::sdr())
            .with_solver(solver)
            .with_config(SimulationConfig {
                warmup: Seconds::new(1.0),
                ..SimulationConfig::paper_default()
            })
            .build()
            .unwrap()
    };
    let mut euler = build(SolverKind::ForwardEuler);
    let mut rk4 = build(SolverKind::RungeKutta4);
    euler.run_for(Seconds::new(5.0)).unwrap();
    rk4.run_for(Seconds::new(5.0)).unwrap();
    for (a, b) in euler
        .core_temperatures()
        .iter()
        .zip(rk4.core_temperatures())
    {
        assert!(
            (a.as_celsius() - b.as_celsius()).abs() < 0.5,
            "solvers disagree: {a} vs {b}"
        );
    }
}

/// Block temperatures always stay at or above ambient and below a sane
/// ceiling for the powers the platform can produce.
#[test]
fn temperatures_stay_physical_during_long_runs() {
    let mut sim = warmup_sim(PackageKind::HighPerformance);
    for _ in 0..10 {
        sim.run_for(Seconds::new(2.0)).unwrap();
        for t in sim.core_temperatures() {
            assert!(t.as_celsius() >= 44.9, "below ambient: {t}");
            assert!(t.as_celsius() <= 150.0, "runaway temperature: {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any (bounded) power distribution over the paper's
    /// floorplan, the steady state is hotter where more power is injected,
    /// every block is above ambient, and doubling all powers scales the
    /// temperature rises linearly (the RC network is linear).
    #[test]
    fn steady_state_is_monotone_and_linear(
        powers in proptest::collection::vec(0.0f64..0.6, 14)
    ) {
        let floorplan = Floorplan::paper_3core();
        let model = ThermalModel::new(&floorplan, Package::mobile_embedded()).unwrap();
        let power: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let doubled: Vec<Watts> = powers.iter().map(|&p| Watts::new(2.0 * p)).collect();
        let base = model.steady_state(&power).unwrap();
        let twice = model.steady_state(&doubled).unwrap();
        let ambient = model.package().ambient.as_celsius();
        for (t1, t2) in base.iter().zip(&twice) {
            prop_assert!(t1.as_celsius() >= ambient - 1e-6);
            let rise1 = t1.as_celsius() - ambient;
            let rise2 = t2.as_celsius() - ambient;
            prop_assert!((rise2 - 2.0 * rise1).abs() < 0.05 + 0.01 * rise1.abs());
        }
        // The hottest block is one that receives non-trivial power, unless
        // everything is idle.
        let max_power = powers.iter().cloned().fold(0.0, f64::max);
        if max_power > 0.05 {
            let hottest = base
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.as_celsius().partial_cmp(&b.1.as_celsius()).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            prop_assert!(powers[hottest] > 0.0);
        }
    }
}
