//! Metrics collected by the co-simulation.
//!
//! The paper evaluates three groups of metrics (Section 5):
//!
//! 1. spatial and temporal variance of the processor temperatures;
//! 2. average quantity of migrated data and number of migrated tasks;
//! 3. QoS degradation as the percentage of missed frames.
//!
//! [`MetricsCollector`] accumulates all three while the simulation runs and
//! produces a [`SimulationSummary`] at the end.

use serde::{Deserialize, Serialize};
use std::fmt;

use tbp_arch::units::{Bytes, Celsius, Seconds};

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// `Default` must be the *empty* accumulator, i.e. exactly what
/// [`RunningStats::new`] builds. A derived `Default` would zero-initialise
/// `min`/`max`, so any `Default`-constructed accumulator (e.g. inside
/// `ThermalMetrics::default()`) would clamp every later minimum at `0.0`.
impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

/// Empty accumulators carry `min = +inf` / `max = -inf`, which JSON cannot
/// represent: serializing them through a [`FsCache`] entry would either
/// corrupt the file or come back as `null`. The manual impls omit the two
/// fields *while the accumulator is empty* and restore the infinities on
/// deserialization, so empty stats round-trip losslessly through strict
/// JSON. Once a sample has been pushed, min/max are serialized verbatim —
/// even a pathological infinite sample round-trips rather than being
/// silently replaced by the empty-state sentinels.
///
/// [`FsCache`]: crate::scenario::FsCache
impl Serialize for RunningStats {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("count".to_string(), self.count.to_value()),
            ("mean".to_string(), self.mean.to_value()),
            ("m2".to_string(), self.m2.to_value()),
        ];
        if self.count > 0 {
            entries.push(("min".to_string(), self.min.to_value()));
            entries.push(("max".to_string(), self.max.to_value()));
        }
        serde::Value::Map(entries)
    }
}

impl Deserialize for RunningStats {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = match value {
            serde::Value::Map(entries) => entries.as_slice(),
            other => {
                return Err(serde::Error::custom(format!(
                    "RunningStats: expected map, found {}",
                    other.kind()
                )))
            }
        };
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let float = |key: &str| -> Result<Option<f64>, serde::Error> {
            field(key).map(f64::from_value).transpose()
        };
        let count = match field("count") {
            Some(v) => u64::from_value(v)?,
            None => return Err(serde::Error::custom("RunningStats: missing field `count`")),
        };
        Ok(RunningStats {
            count,
            mean: float("mean")?.unwrap_or(0.0),
            m2: float("m2")?.unwrap_or(0.0),
            min: float("min")?.unwrap_or(f64::INFINITY),
            max: float("max")?.unwrap_or(f64::NEG_INFINITY),
        })
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Aggregated thermal metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThermalMetrics {
    /// Statistics of the *spatial* standard deviation across cores (one
    /// sample per sensor refresh).
    pub spatial_std_dev: RunningStats,
    /// Statistics of the spatial spread (hottest minus coolest core).
    pub spread: RunningStats,
    /// Per-core temperature statistics over time (temporal variance).
    pub per_core: Vec<RunningStats>,
    /// Highest temperature ever observed on any core.
    pub peak_temperature: f64,
    /// Time any core spent above `mean + threshold` (the paper reports the
    /// hottest core staying above the upper threshold for under 400 ms while
    /// balancing).
    pub time_above_upper_threshold: Seconds,
    /// Time any core spent below `mean − threshold`.
    pub time_below_lower_threshold: Seconds,
}

/// Aggregated migration metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationMetrics {
    /// Completed migrations.
    pub migrations: u64,
    /// Bytes transferred through the shared memory for migrations.
    pub bytes: Bytes,
    /// Total time tasks spent frozen by migrations.
    pub frozen_time: Seconds,
    /// Core halts issued (Stop&Go).
    pub halts: u64,
    /// Core resumes issued (Stop&Go).
    pub resumes: u64,
}

/// Aggregated QoS metrics (copied from the pipeline runtime at the end of a
/// run).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QosMetrics {
    /// Frames delivered on time.
    pub frames_delivered: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Minimum queue level observed across all queues.
    pub min_queue_level: usize,
    /// Time-averaged queue level across all queues (the paper observes this
    /// does not change because of migration).
    pub mean_queue_level: f64,
}

impl QosMetrics {
    /// Fraction of deadlines missed.
    pub fn miss_rate(&self) -> f64 {
        let total = self.frames_delivered + self.deadline_misses;
        if total == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / total as f64
        }
    }
}

/// Collector fed by the simulation loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsCollector {
    threshold: f64,
    warmup: Seconds,
    thermal: ThermalMetrics,
    migration: MigrationMetrics,
    qos: QosMetrics,
    measured_time: Seconds,
    reconfigs: u64,
}

impl MetricsCollector {
    /// Creates a collector for `num_cores` cores.
    ///
    /// `threshold` is the policy threshold used for the above/below-band
    /// timers; `warmup` is the initial period excluded from the statistics
    /// (the paper lets the system stabilise for 12.5 s before enabling and
    /// measuring the policy).
    pub fn new(num_cores: usize, threshold: f64, warmup: Seconds) -> Self {
        MetricsCollector {
            threshold,
            warmup,
            thermal: ThermalMetrics {
                per_core: vec![RunningStats::new(); num_cores],
                ..ThermalMetrics::default()
            },
            migration: MigrationMetrics::default(),
            qos: QosMetrics::default(),
            measured_time: Seconds::ZERO,
            reconfigs: 0,
        }
    }

    /// The warm-up period excluded from measurements.
    pub fn warmup(&self) -> Seconds {
        self.warmup
    }

    /// Retunes the threshold used for the above/below-band timers — called
    /// when a live reconfiguration changes the policy threshold mid-run.
    /// Already-accumulated band times are kept; only future samples use the
    /// new band.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Records one applied live reconfiguration (a [`SpecDelta`] going
    /// through `Simulation::apply_delta`).
    ///
    /// [`SpecDelta`]: crate::scenario::SpecDelta
    pub fn record_reconfig(&mut self) {
        self.reconfigs += 1;
    }

    /// Records a sensor sample of the core temperatures taken at `time`,
    /// covering `dt` of simulated time.
    pub fn record_temperatures(&mut self, time: Seconds, dt: Seconds, temps: &[Celsius]) {
        // Peak / sum / max / min are independent accumulators: one fused pass
        // updates each in the same element order as separate passes would, so
        // the results are bit-identical while the (hot-path) sample touches
        // the temperatures twice instead of six times.
        let mut sum = 0.0;
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        for t in temps {
            let t = t.as_celsius();
            self.thermal.peak_temperature = self.thermal.peak_temperature.max(t);
            sum += t;
            max = f64::max(max, t);
            min = f64::min(min, t);
        }
        if time.as_secs() < self.warmup.as_secs() || temps.is_empty() {
            return;
        }
        self.measured_time += dt;
        let n = temps.len() as f64;
        let mean = sum / n;
        let mut variance_sum = 0.0;
        for (stats, t) in self.thermal.per_core.iter_mut().zip(temps) {
            let t = t.as_celsius();
            variance_sum += (t - mean).powi(2);
            stats.push(t);
        }
        self.thermal.spatial_std_dev.push((variance_sum / n).sqrt());
        self.thermal.spread.push(max - min);
        if max > mean + self.threshold {
            self.thermal.time_above_upper_threshold += dt;
        }
        if min < mean - self.threshold {
            self.thermal.time_below_lower_threshold += dt;
        }
    }

    /// Records completed migrations.
    pub fn record_migrations(&mut self, count: u64, bytes: Bytes, frozen: Seconds) {
        self.migration.migrations += count;
        self.migration.bytes = self.migration.bytes.saturating_add(bytes);
        self.migration.frozen_time += frozen;
    }

    /// Records a core halt (Stop&Go).
    pub fn record_halt(&mut self) {
        self.migration.halts += 1;
    }

    /// Records a core resume (Stop&Go).
    pub fn record_resume(&mut self) {
        self.migration.resumes += 1;
    }

    /// Overwrites the QoS metrics (taken from the pipeline at the end of the
    /// run).
    pub fn set_qos(&mut self, qos: QosMetrics) {
        self.qos = qos;
    }

    /// Produces the final summary for a run lasting `total_time` under the
    /// named policy.
    pub fn summary(&self, policy: &str, total_time: Seconds) -> SimulationSummary {
        SimulationSummary {
            policy: policy.to_string(),
            total_time,
            measured_time: self.measured_time,
            thermal: self.thermal.clone(),
            migration: self.migration,
            qos: self.qos,
            reconfigs: self.reconfigs,
            trace_dropped: 0,
        }
    }
}

/// Summary of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimulationSummary {
    /// Name of the policy that ran.
    pub policy: String,
    /// Total simulated time.
    pub total_time: Seconds,
    /// Simulated time covered by the measurements (after warm-up).
    pub measured_time: Seconds,
    /// Thermal metrics.
    pub thermal: ThermalMetrics,
    /// Migration metrics.
    pub migration: MigrationMetrics,
    /// QoS metrics.
    pub qos: QosMetrics,
    /// Live reconfigurations applied during the run (0 for static scenarios).
    pub reconfigs: u64,
    /// Always 0: the trace sink never drops samples. Kept because the CSV
    /// header (`trace_dropped` column) and stored reports carry it.
    pub trace_dropped: u64,
}

/// Manual impl so run reports cached *before* live reconfiguration landed —
/// which lack the `reconfigs` field — still deserialize (as 0, which is what
/// those runs applied) instead of silently missing the cache and
/// re-simulating. A derived impl would reject the missing required field.
impl Deserialize for SimulationSummary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn required<T: Deserialize>(value: &serde::Value, key: &str) -> Result<T, serde::Error> {
            match value.get(key) {
                Some(v) => T::from_value(v)
                    .map_err(|e| serde::Error::custom(format!("SimulationSummary.{key}: {e}"))),
                None => Err(serde::Error::custom(format!(
                    "SimulationSummary: missing field `{key}`"
                ))),
            }
        }
        if !matches!(value, serde::Value::Map(_)) {
            return Err(serde::Error::custom(format!(
                "SimulationSummary: expected map, found {}",
                value.kind()
            )));
        }
        Ok(SimulationSummary {
            policy: required(value, "policy")?,
            total_time: required(value, "total_time")?,
            measured_time: required(value, "measured_time")?,
            thermal: required(value, "thermal")?,
            migration: required(value, "migration")?,
            qos: required(value, "qos")?,
            reconfigs: match value.get("reconfigs") {
                Some(v) => u64::from_value(v).map_err(|e| {
                    serde::Error::custom(format!("SimulationSummary.reconfigs: {e}"))
                })?,
                None => 0,
            },
            // Absent in reports cached before decimation accounting existed.
            trace_dropped: match value.get("trace_dropped") {
                Some(v) => u64::from_value(v).map_err(|e| {
                    serde::Error::custom(format!("SimulationSummary.trace_dropped: {e}"))
                })?,
                None => 0,
            },
        })
    }
}

impl SimulationSummary {
    /// Time-averaged spatial standard deviation of the core temperatures —
    /// the Y axis of Figures 7 and 9.
    pub fn mean_spatial_std_dev(&self) -> f64 {
        self.thermal.spatial_std_dev.mean()
    }

    /// Mean spatial spread (hottest minus coolest core).
    pub fn mean_spread(&self) -> f64 {
        self.thermal.spread.mean()
    }

    /// Mean temporal standard deviation of the individual cores.
    pub fn mean_temporal_std_dev(&self) -> f64 {
        if self.thermal.per_core.is_empty() {
            return 0.0;
        }
        self.thermal
            .per_core
            .iter()
            .map(|s| s.std_dev())
            .sum::<f64>()
            / self.thermal.per_core.len() as f64
    }

    /// Migrations per second of measured time — the Y axis of Figure 11.
    pub fn migrations_per_second(&self) -> f64 {
        if self.measured_time.is_zero() {
            0.0
        } else {
            self.migration.migrations as f64 / self.measured_time.as_secs()
        }
    }

    /// Migrated kilobytes per second of measured time.
    pub fn migrated_kib_per_second(&self) -> f64 {
        if self.measured_time.is_zero() {
            0.0
        } else {
            self.migration.bytes.as_kib() / self.measured_time.as_secs()
        }
    }
}

impl fmt::Display for SimulationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy: {}", self.policy)?;
        writeln!(
            f,
            "  simulated {:.1} s (measured {:.1} s)",
            self.total_time.as_secs(),
            self.measured_time.as_secs()
        )?;
        writeln!(
            f,
            "  temperature: σ_spatial = {:.3} °C, spread = {:.2} °C, peak = {:.1} °C",
            self.mean_spatial_std_dev(),
            self.mean_spread(),
            self.thermal.peak_temperature
        )?;
        writeln!(
            f,
            "  migrations: {} ({:.2}/s, {:.0} KiB total), halts: {}",
            self.migration.migrations,
            self.migrations_per_second(),
            self.migration.bytes.as_kib(),
            self.migration.halts
        )?;
        write!(
            f,
            "  QoS: {} frames delivered, {} deadline misses ({:.2} % miss rate)",
            self.qos.frames_delivered,
            self.qos.deadline_misses,
            self.qos.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(RunningStats::default().count(), 0);
    }

    #[test]
    fn default_running_stats_behave_like_new() {
        // Regression: the derived `Default` used to zero-initialise `min` and
        // `max`, so a `Default`-constructed accumulator reported `min == 0.0`
        // after pushing only larger samples.
        let mut s = RunningStats::default();
        s.push(5.0);
        s.push(7.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 7.0);
        let mut from_thermal = ThermalMetrics::default();
        from_thermal.spatial_std_dev.push(3.5);
        assert_eq!(from_thermal.spatial_std_dev.min(), 3.5);
        // And a negative-only stream must not report max == 0.0 either.
        let mut neg = RunningStats::default();
        neg.push(-2.0);
        assert_eq!(neg.max(), -2.0);
        assert_eq!(neg.min(), -2.0);
    }

    #[test]
    fn empty_stats_round_trip_through_strict_json() {
        use serde::{Deserialize, Serialize};
        // Empty accumulators hold ±inf internally; the serialized form must
        // not contain non-finite tokens (JSON cannot represent them) and the
        // round trip must restore the infinities exactly.
        let empty = RunningStats::new();
        let json = serde_json::to_string(&empty).expect("serializes");
        assert!(!json.contains("inf") && !json.contains("Inf"), "{json}");
        let back = RunningStats::from_value(&empty.to_value()).expect("round-trips");
        assert_eq!(back, empty);
        let mut reparsed: RunningStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(reparsed, empty);
        // The restored accumulator keeps accumulating correctly.
        reparsed.push(4.0);
        assert_eq!(reparsed.min(), 4.0);
        assert_eq!(reparsed.max(), 4.0);
        // Non-empty stats keep their min/max through the round trip.
        let mut full = RunningStats::new();
        full.push(1.5);
        full.push(-0.5);
        let json = serde_json::to_string(&full).expect("serializes");
        let back: RunningStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, full);
        // A whole summary holding empty stats survives the FsCache path too.
        let summary =
            MetricsCollector::new(2, 3.0, Seconds::new(100.0)).summary("idle", Seconds::new(1.0));
        let json = serde_json::to_string_pretty(&summary).expect("serializes");
        let back: SimulationSummary = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, summary);
        // A pathological infinite *sample* (count > 0) is serialized
        // verbatim, not silently replaced by the empty-state sentinels.
        // (An infinite sample poisons Welford's mean/m2 to NaN, so the
        // fields are compared individually, NaN-aware.)
        let mut diverged = RunningStats::new();
        diverged.push(f64::NEG_INFINITY);
        diverged.push(1.0);
        let back = RunningStats::from_value(&diverged.to_value()).expect("round-trips");
        assert_eq!(back.count(), diverged.count());
        assert_eq!(back.min(), f64::NEG_INFINITY);
        assert_eq!(back.max(), 1.0);
        assert_eq!(back.mean().is_nan(), diverged.mean().is_nan());
    }

    #[test]
    fn summaries_cached_before_reconfiguration_still_deserialize() {
        use serde::{Deserialize, Serialize};
        // Reports cached before the `reconfigs` field existed must load as
        // reconfigs = 0 — not silently miss the cache (the v2 hash domain
        // was deliberately kept for static specs so those entries stay
        // valid).
        let summary = MetricsCollector::new(2, 3.0, Seconds::ZERO).summary("x", Seconds::new(1.0));
        let mut value = summary.to_value();
        if let serde::Value::Map(entries) = &mut value {
            entries.retain(|(key, _)| key != "reconfigs");
        }
        let back = SimulationSummary::from_value(&value).expect("legacy summary parses");
        assert_eq!(back, summary);
        assert_eq!(back.reconfigs, 0);
        // Present fields still deserialize, and a malformed one still errors.
        let mut collector = MetricsCollector::new(2, 3.0, Seconds::ZERO);
        collector.record_reconfig();
        let summary = collector.summary("x", Seconds::new(1.0));
        let back = SimulationSummary::from_value(&summary.to_value()).expect("parses");
        assert_eq!(back.reconfigs, 1);
        assert!(SimulationSummary::from_value(&serde::Value::Int(3)).is_err());
        let mut missing_policy = summary.to_value();
        if let serde::Value::Map(entries) = &mut missing_policy {
            entries.retain(|(key, _)| key != "policy");
        }
        assert!(SimulationSummary::from_value(&missing_policy).is_err());
    }

    #[test]
    fn collector_ignores_warmup_and_tracks_band_violations() {
        let mut c = MetricsCollector::new(3, 3.0, Seconds::new(1.0));
        assert_eq!(c.warmup(), Seconds::new(1.0));
        let dt = Seconds::from_millis(10.0);
        // During warm-up only the peak is tracked.
        c.record_temperatures(
            Seconds::new(0.5),
            dt,
            &[Celsius::new(80.0), Celsius::new(50.0), Celsius::new(50.0)],
        );
        let warm = c.summary("x", Seconds::new(0.5));
        assert_eq!(warm.thermal.spatial_std_dev.count(), 0);
        assert_eq!(warm.thermal.peak_temperature, 80.0);
        // After warm-up samples count; 70/60/50 has a spread of 20 and the
        // hot core sits above mean+3.
        c.record_temperatures(
            Seconds::new(2.0),
            dt,
            &[Celsius::new(70.0), Celsius::new(60.0), Celsius::new(50.0)],
        );
        let s = c.summary("x", Seconds::new(2.0));
        assert_eq!(s.thermal.spatial_std_dev.count(), 1);
        assert!((s.mean_spread() - 20.0).abs() < 1e-9);
        assert!(s.thermal.time_above_upper_threshold.as_millis() > 9.0);
        assert!(s.thermal.time_below_lower_threshold.as_millis() > 9.0);
        assert!((s.mean_spatial_std_dev() - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        // Empty sample vectors are ignored.
        c.record_temperatures(Seconds::new(3.0), dt, &[]);
    }

    #[test]
    fn migration_and_qos_accounting() {
        let mut c = MetricsCollector::new(3, 3.0, Seconds::ZERO);
        c.record_migrations(2, Bytes::from_kib(128), Seconds::from_millis(3.0));
        c.record_migrations(1, Bytes::from_kib(64), Seconds::from_millis(1.0));
        c.record_halt();
        c.record_halt();
        c.record_resume();
        c.record_reconfig();
        c.record_reconfig();
        c.set_qos(QosMetrics {
            frames_delivered: 380,
            deadline_misses: 20,
            min_queue_level: 2,
            mean_queue_level: 4.5,
        });
        // Simulate 10 s of measured time through temperature samples.
        for i in 0..1000 {
            c.record_temperatures(
                Seconds::new(i as f64 * 0.01),
                Seconds::from_millis(10.0),
                &[Celsius::new(60.0), Celsius::new(61.0), Celsius::new(62.0)],
            );
        }
        let s = c.summary("test-policy", Seconds::new(10.0));
        assert_eq!(s.policy, "test-policy");
        assert_eq!(s.migration.migrations, 3);
        assert_eq!(s.migration.bytes, Bytes::from_kib(192));
        assert_eq!(s.migration.halts, 2);
        assert_eq!(s.migration.resumes, 1);
        assert_eq!(s.reconfigs, 2);
        assert!((s.migrations_per_second() - 0.3).abs() < 0.01);
        assert!((s.migrated_kib_per_second() - 19.2).abs() < 0.5);
        assert_eq!(s.qos.deadline_misses, 20);
        assert!((s.qos.miss_rate() - 0.05).abs() < 1e-9);
        assert!(s.mean_temporal_std_dev() >= 0.0);
        let text = s.to_string();
        assert!(text.contains("test-policy"));
        assert!(text.contains("deadline misses"));
    }

    #[test]
    fn zero_measured_time_rates_are_zero() {
        let c = MetricsCollector::new(2, 3.0, Seconds::new(100.0));
        let s = c.summary("idle", Seconds::new(1.0));
        assert_eq!(s.migrations_per_second(), 0.0);
        assert_eq!(s.migrated_kib_per_second(), 0.0);
        assert_eq!(s.mean_temporal_std_dev(), 0.0);
        assert_eq!(QosMetrics::default().miss_rate(), 0.0);
    }
}
