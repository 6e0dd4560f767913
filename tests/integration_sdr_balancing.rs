//! End-to-end reproduction of the paper's headline narrative: the SDR
//! benchmark warms up into an unbalanced thermal state under DVFS alone, and
//! the migration-based policy balances it quickly at bounded cost.

use tbp_arch::units::{Celsius, Seconds};
use tbp_core::scenario::ScenarioSpec;
use tbp_core::Simulation;
use tbp_thermal::package::PackageKind;

/// The SDR benchmark on the mobile package under `policy`, built but not run.
fn mobile_sim(policy: &str, threshold: f64, warmup: f64, duration: f64) -> Simulation {
    ScenarioSpec::new("experiment")
        .with_package(PackageKind::MobileEmbedded)
        .with_policy(policy, threshold)
        .with_schedule(warmup, duration)
        .build()
        .unwrap()
}

fn spread(temps: &[Celsius]) -> f64 {
    temps
        .iter()
        .map(|c| c.as_celsius())
        .fold(f64::MIN, f64::max)
        - temps
            .iter()
            .map(|c| c.as_celsius())
            .fold(f64::MAX, f64::min)
}

/// The paper: after 12.5 s of DVFS-only execution the temperatures are stable
/// but unbalanced, with roughly 10 °C between the hottest and coolest core,
/// and the two 266 MHz cores differ because of their floorplan position.
#[test]
fn warmup_produces_unbalanced_stable_gradient() {
    let mut sim = mobile_sim("dvfs-only", 3.0, 0.0, 12.5);
    sim.run_for(Seconds::new(10.0)).unwrap();
    let at_10s = sim.core_temperatures();
    sim.run_for(Seconds::new(2.5)).unwrap();
    let at_12s = sim.core_temperatures();

    // Core 1 (the 533 MHz core of Table 2) is the hottest, core 3 the coolest.
    assert!(at_12s[0].as_celsius() > at_12s[1].as_celsius());
    assert!(at_12s[1].as_celsius() > at_12s[2].as_celsius());
    // The gradient is in the ballpark the paper reports (~10 °C).
    let gradient = spread(&at_12s);
    assert!(
        (6.0..14.0).contains(&gradient),
        "expected a gradient of roughly 10 °C, got {gradient:.1}"
    );
    // Cores 2 and 3 run at the same frequency but differ thermally because of
    // their position on the floorplan.
    assert!((at_12s[1].as_celsius() - at_12s[2].as_celsius()).abs() > 0.5);
    // The temperatatures are close to stable by 12.5 s (the paper's warm-up).
    for (a, b) in at_10s.iter().zip(&at_12s) {
        assert!((b.as_celsius() - a.as_celsius()).abs() < 2.5);
    }
    // Nothing else happened: no migrations, no misses.
    let summary = sim.summary();
    assert_eq!(summary.migration.migrations, 0);
    assert_eq!(summary.qos.deadline_misses, 0);
}

/// The paper: once the policy is enabled with a ±3 °C band, the temperatures
/// balance within about a second and the hot core exceeds the upper threshold
/// only briefly, at the cost of a handful of 64 kB migrations.
#[test]
fn enabling_the_policy_balances_within_seconds() {
    let mut sim = mobile_sim("thermal-balancing", 3.0, 12.5, 10.0);
    sim.run_for(Seconds::new(12.5)).unwrap();
    let before = spread(&sim.core_temperatures());
    assert!(
        before > 6.0,
        "warm-up should leave a gradient, got {before:.1}"
    );

    // Advance in 100 ms slices and find when the spread first falls inside
    // the band (2 * threshold).
    let mut balanced_after = None;
    for i in 0..100 {
        sim.run_for(Seconds::from_millis(100.0)).unwrap();
        if spread(&sim.core_temperatures()) <= 6.0 {
            balanced_after = Some((i + 1) as f64 * 0.1);
            break;
        }
    }
    let balanced_after = balanced_after.expect("the policy must balance the chip");
    assert!(
        balanced_after <= 3.0,
        "balancing took {balanced_after:.1} s; the paper reports about a second"
    );

    // Let the run finish and check the cost stayed bounded.
    sim.run_for(Seconds::new(10.0 - balanced_after)).unwrap();
    let summary = sim.summary();
    assert!(summary.migration.migrations >= 1);
    assert!(
        summary.migration.migrations <= 60,
        "migration count should stay bounded, got {}",
        summary.migration.migrations
    );
    // Every migration moves at least the 64 kB minimum allocation.
    assert!(summary.migration.bytes.as_kib() >= 64.0 * summary.migration.migrations as f64);
    // QoS is preserved: the paper sees misses only at the smallest threshold.
    assert_eq!(summary.qos.deadline_misses, 0);
    // The balanced state has a much smaller deviation than the static one.
    assert!(summary.mean_spatial_std_dev() < 2.5);
}

/// The balanced steady state keeps every core close to the mean: the policy's
/// whole point is bounding |T_i - T_mean| by the threshold (small excursions
/// above are tolerated while a migration is in flight).
#[test]
fn balanced_state_keeps_cores_near_the_mean() {
    let mut sim = mobile_sim("thermal-balancing", 2.0, 10.0, 15.0);
    sim.run_for(Seconds::new(25.0)).unwrap();
    let temps = sim.core_temperatures();
    let mean = temps.iter().map(|c| c.as_celsius()).sum::<f64>() / temps.len() as f64;
    for t in &temps {
        assert!(
            (t.as_celsius() - mean).abs() < 5.0,
            "core at {t} strays too far from the mean {mean:.1}"
        );
    }
    let summary = sim.summary();
    // The measured band-violation time is a small fraction of the run.
    assert!(
        summary.thermal.time_above_upper_threshold.as_secs()
            < 0.4 * summary.measured_time.as_secs()
    );
}
