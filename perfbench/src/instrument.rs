//! Timing wrappers the traced run puts around the program's public layer
//! interfaces, plus the statistics the benchmark reports.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tbp_core::scenario::{RunCache, RunReport, ScenarioHash};
use tbp_obs::{TraceError, TraceSink, TrackDef};

/// Median cost of an empty timed region (two clock reads), in nanoseconds.
/// Subtracted from every probe so the phases are not charged for the clock.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` (sorted in place), interpolating linearly
/// between order statistics; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Operation times of a [`TimedCache`], in microseconds.
#[derive(Debug, Default, Clone)]
pub struct CacheTimes {
    /// Every `load`, hit or miss.
    pub loads_us: Vec<f64>,
    /// Loads that returned a report.
    pub hits: u64,
    /// Every `store`.
    pub stores_us: Vec<f64>,
}

/// A [`RunCache`] that times each call into the cache it wraps.
pub struct TimedCache<C> {
    inner: C,
    times: Mutex<CacheTimes>,
}

impl<C: RunCache> TimedCache<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Arc<Self> {
        Arc::new(TimedCache {
            inner,
            times: Mutex::new(CacheTimes::default()),
        })
    }

    /// The times recorded so far.
    pub fn times(&self) -> CacheTimes {
        self.times
            .lock()
            .expect("cache timer lock poisoned")
            .clone()
    }
}

impl<C: RunCache> RunCache for TimedCache<C> {
    fn load(&self, key: &ScenarioHash) -> Option<RunReport> {
        let started = Instant::now();
        let report = self.inner.load(key);
        let us = started.elapsed().as_secs_f64() * 1e6;
        let mut times = self.times.lock().expect("cache timer lock poisoned");
        times.loads_us.push(us);
        times.hits += u64::from(report.is_some());
        report
    }

    fn store(&self, key: &ScenarioHash, report: &RunReport) {
        let started = Instant::now();
        self.inner.store(key, report);
        let us = started.elapsed().as_secs_f64() * 1e6;
        let mut times = self.times.lock().expect("cache timer lock poisoned");
        times.stores_us.push(us);
    }
}

/// Calls and time a [`TimedSink`] recorded.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkTimes {
    /// Record calls (`counter` and `event`).
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: f64,
}

/// A [`TraceSink`] that times each record call into the sink it wraps.
pub struct TimedSink<S> {
    inner: S,
    local: SinkTimes,
    total: Arc<Mutex<SinkTimes>>,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`; the times are added to `total` when the sink finishes.
    pub fn new(inner: S, total: Arc<Mutex<SinkTimes>>) -> Self {
        TimedSink {
            inner,
            local: SinkTimes::default(),
            total,
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn begin(&mut self, tracks: &[TrackDef]) {
        self.inner.begin(tracks);
    }

    fn counter(&mut self, track: u16, time_s: f64, value: f64) {
        let started = Instant::now();
        self.inner.counter(track, time_s, value);
        self.local.ns += started.elapsed().as_nanos() as f64;
        self.local.calls += 1;
    }

    fn event(&mut self, track: u16, time_s: f64, label: &str) {
        let started = Instant::now();
        self.inner.event(track, time_s, label);
        self.local.ns += started.elapsed().as_nanos() as f64;
        self.local.calls += 1;
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let mut total = self.total.lock().expect("sink timer lock poisoned");
        total.calls += self.local.calls;
        total.ns += self.local.ns;
        self.local = SinkTimes::default();
        drop(total);
        self.inner.finish()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn clock_overhead_is_small_and_positive() {
        let ns = clock_overhead_ns();
        assert!((0.0..10_000.0).contains(&ns), "{ns}");
    }
}
