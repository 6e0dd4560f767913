//! Live run metrics: a lightweight registry of counters, gauges and
//! histograms, periodic JSONL snapshots, and a Prometheus-style text
//! exposition.
//!
//! The registry mirrors the crate's std-only discipline and the simulator's
//! hot-loop contract: **registration allocates, updates never do**. Every
//! instrument is a cheaply clonable handle over shared atomics, so the
//! simulation step loop, the batch runner's worker threads and a background
//! snapshot emitter can all touch the same instrument without locks on the
//! update path. Snapshots are taken under the registry's registration lock
//! but read the atomics with relaxed ordering — heartbeats are monitoring
//! data, not a synchronization point, and individual values may be a step
//! apart.
//!
//! Snapshot lines are hand-rolled JSON (this crate deliberately has no
//! dependencies, serde included); [`MetricsSnapshot::parse`] reads back
//! exactly what [`MetricsSnapshot::to_jsonl`] writes, with `u64` counter
//! values preserved bit-exactly rather than routed through `f64`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A monotonically increasing `u64` instrument. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter starting at zero (registry-less use in
    /// tests; production code obtains counters from a [`MetricsRegistry`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one. Never allocates.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Never allocates.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` instrument. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a detached gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value. Never allocates.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite, strictly increasing upper bounds; observations land in the
    /// first bucket whose bound is `>=` the value.
    bounds: Vec<f64>,
    /// One count per bound plus a final overflow bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram. Bucket layout is frozen at registration;
/// [`observe`](Self::observe) touches only atomics.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Creates a detached histogram. Non-finite bounds are dropped and the
    /// rest sorted and deduplicated, so any slice yields a valid layout.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare"));
        bounds.dedup();
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds,
                counts,
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation. Never allocates.
    pub fn observe(&self, value: f64) {
        let core = &*self.core;
        let mut bucket = core.bounds.len();
        for (i, bound) in core.bounds.iter().enumerate() {
            if value <= *bound {
                bucket = i;
                break;
            }
        }
        core.counts[bucket].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            counts: core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
            count: core.count.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// A named collection of instruments. Cloning shares the registry;
/// registration (`counter`/`gauge`/`histogram`) takes a lock and may
/// allocate, updates through the returned handles never do.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    /// Instruments are snapshotted in registration order.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let counter = Counter::new();
        inner.counters.push((name.to_string(), counter.clone()));
        counter
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let gauge = Gauge::new();
        inner.gauges.push((name.to_string(), gauge.clone()));
        gauge
    }

    /// Returns the histogram named `name`, registering it with `bounds` on
    /// first use (later calls reuse the existing layout and ignore
    /// `bounds`).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let histogram = Histogram::new(bounds);
        inner.histograms.push((name.to_string(), histogram.clone()));
        histogram
    }

    /// Captures every instrument's current value, stamped with `elapsed_s`
    /// seconds since whatever epoch the caller is tracking.
    pub fn snapshot(&self, elapsed_s: f64) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry lock");
        MetricsSnapshot {
            elapsed_s,
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (finite, strictly increasing).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one entry per bound plus the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative count at or below each bound, ending with the total —
    /// the Prometheus `_bucket` series. Monotonically non-decreasing by
    /// construction.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }
}

/// Point-in-time copy of every instrument in a [`MetricsRegistry`],
/// serializable as one JSON line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Seconds since the emitter (or caller) started.
    pub elapsed_s: f64,
    /// `(name, value)` pairs in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs in registration order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` pairs in registration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Serializes the snapshot as one JSON object (no trailing newline):
    ///
    /// ```json
    /// {"elapsed_s":1.5,"counters":{"sim.steps":4000},"gauges":{},"histograms":{}}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"elapsed_s\":");
        json_f64(&mut out, self.elapsed_s);
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            out.push(':');
            json_f64(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_f64(&mut out, *b);
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("],\"sum\":");
            json_f64(&mut out, h.sum);
            let _ = write!(out, ",\"count\":{}}}", h.count);
        }
        out.push_str("}}");
        out
    }

    /// Parses one line previously produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// The parser accepts exactly that shape (keys in emission order);
    /// `u64` values round-trip bit-exactly and non-finite floats survive
    /// via the `"inf"`/`"-inf"`/`"nan"` string encodings.
    ///
    /// # Errors
    ///
    /// A static description of the first structural mismatch.
    pub fn parse(line: &str) -> Result<Self, &'static str> {
        let mut p = Parser {
            bytes: line.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        p.key("elapsed_s")?;
        let elapsed_s = p.f64()?;
        p.expect(b',')?;
        p.key("counters")?;
        let mut counters = Vec::new();
        p.object(|p, name| {
            counters.push((name, p.u64()?));
            Ok(())
        })?;
        p.expect(b',')?;
        p.key("gauges")?;
        let mut gauges = Vec::new();
        p.object(|p, name| {
            gauges.push((name, p.f64()?));
            Ok(())
        })?;
        p.expect(b',')?;
        p.key("histograms")?;
        let mut histograms = Vec::new();
        p.object(|p, name| {
            p.expect(b'{')?;
            p.key("bounds")?;
            let mut bounds = Vec::new();
            p.array(|p| {
                bounds.push(p.f64()?);
                Ok(())
            })?;
            p.expect(b',')?;
            p.key("counts")?;
            let mut counts = Vec::new();
            p.array(|p| {
                counts.push(p.u64()?);
                Ok(())
            })?;
            p.expect(b',')?;
            p.key("sum")?;
            let sum = p.f64()?;
            p.expect(b',')?;
            p.key("count")?;
            let count = p.u64()?;
            p.expect(b'}')?;
            histograms.push((
                name,
                HistogramSnapshot {
                    bounds,
                    counts,
                    sum,
                    count,
                },
            ));
            Ok(())
        })?;
        p.expect(b'}')?;
        if p.pos != p.bytes.len() {
            return Err("trailing bytes after the snapshot object");
        }
        Ok(MetricsSnapshot {
            elapsed_s,
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `tbp_`-prefixed sanitized names, `# TYPE` comments, cumulative
    /// `_bucket{le="…"}` series plus `_sum`/`_count` for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        for (name, value) in &self.counters {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let cumulative = h.cumulative();
            for (bound, cum) in h.bounds.iter().zip(&cumulative) {
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
            }
            let total = cumulative.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// `tbp_` prefix plus the metric name with every character outside
/// `[a-zA-Z0-9_:]` replaced by `_` (so `runner.cache_hits` becomes
/// `tbp_runner_cache_hits`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(4 + name.len());
    out.push_str("tbp_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Floats print via Rust's shortest round-trip `Display`; the non-finite
/// values JSON cannot express become the strings `"inf"`/`"-inf"`/`"nan"`.
fn json_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let _ = write!(out, "{v}");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn expect(&mut self, b: u8) -> Result<(), &'static str> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err("unexpected byte in metrics snapshot line")
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// `"name":` — a quoted key followed by a colon.
    fn key(&mut self, name: &str) -> Result<(), &'static str> {
        if self.string()? != name {
            return Err("unexpected key in metrics snapshot line");
        }
        self.expect(b':')
    }

    fn string(&mut self) -> Result<String, &'static str> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next `"` or `\` in one piece:
            // neither byte occurs inside a multi-byte UTF-8 sequence, so the
            // run ends on a character boundary and each byte is read once.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8 in string")?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.bytes.get(self.pos).copied().ok_or("bad escape")? {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let (ch, len) = unicode_escape(&self.bytes[self.pos + 1..])?;
                    out.push(ch);
                    self.pos += len;
                }
                _ => return Err("unsupported escape"),
            }
            self.pos += 1;
        }
    }

    /// The byte span of the next number token.
    fn number_token(&mut self) -> Result<&'a str, &'static str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err("expected a number");
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "expected a number")
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        self.number_token()?
            .parse::<u64>()
            .map_err(|_| "expected an unsigned integer")
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        if self.peek() == Some(b'"') {
            return match self.string()?.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err("unknown string-encoded float"),
            };
        }
        self.number_token()?
            .parse::<f64>()
            .map_err(|_| "expected a float")
    }

    /// `{"k":<value>,...}` — calls `each(self, key)` positioned at each
    /// value; `each` must consume it.
    fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, String) -> Result<(), &'static str>,
    ) -> Result<(), &'static str> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            each(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err("expected , or } in object"),
            }
        }
    }

    /// `[<value>,...]` — calls `each(self)` positioned at each value.
    fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), &'static str>,
    ) -> Result<(), &'static str> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            each(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err("expected , or ] in array"),
            }
        }
    }
}

/// Decodes the hex digits after a `\u`, returning the character and the
/// number of bytes consumed. A high surrogate combines with the `\uXXXX` low
/// surrogate that must follow it; a lone or reversed surrogate is an error.
fn unicode_escape(bytes: &[u8]) -> Result<(char, usize), &'static str> {
    const UNPAIRED: &str = "unpaired surrogate in unicode escape";
    let first = hex4(bytes)?;
    if !(0xD800..0xDC00).contains(&first) {
        // A scalar value, or a lone low surrogate (which `from_u32` rejects).
        return char::from_u32(first.into()).map(|c| (c, 4)).ok_or(UNPAIRED);
    }
    if bytes.get(4..6) != Some(b"\\u") {
        return Err(UNPAIRED);
    }
    match char::decode_utf16([first, hex4(&bytes[6..])?]).next() {
        Some(Ok(c)) => Ok((c, 10)),
        _ => Err(UNPAIRED),
    }
}

/// The UTF-16 code unit spelled by the first four bytes (hex digits).
fn hex4(bytes: &[u8]) -> Result<u16, &'static str> {
    let digits = bytes.get(..4).ok_or("bad unicode escape")?;
    digits.iter().try_fold(0u16, |unit, &b| {
        let digit = char::from(b).to_digit(16).ok_or("bad unicode escape")?;
        Ok(unit << 4 | digit as u16)
    })
}

/// Background thread that appends one [`MetricsSnapshot`] JSONL line to a
/// file every `interval`, plus a final line when finished — so even runs
/// shorter than one interval leave a complete heartbeat behind.
#[derive(Debug)]
pub struct SnapshotEmitter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl SnapshotEmitter {
    /// Creates (truncates) `path` and starts the emitter thread.
    ///
    /// # Errors
    ///
    /// The file-creation error, surfaced eagerly; write errors on the
    /// emitter thread are returned by [`finish`](Self::finish).
    pub fn spawn(
        registry: MetricsRegistry,
        path: impl AsRef<Path>,
        interval: Duration,
    ) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tbp-metrics".into())
            .spawn(move || -> std::io::Result<()> {
                let mut out = std::io::BufWriter::new(file);
                let start = Instant::now();
                let tick = Duration::from_millis(20).min(interval.max(Duration::from_millis(1)));
                loop {
                    let deadline = Instant::now() + interval;
                    // Sleep in short ticks so finish() returns promptly.
                    while Instant::now() < deadline {
                        if thread_stop.load(Ordering::Relaxed) {
                            let snap = registry.snapshot(start.elapsed().as_secs_f64());
                            writeln!(out, "{}", snap.to_jsonl())?;
                            return out.flush();
                        }
                        std::thread::sleep(tick);
                    }
                    let snap = registry.snapshot(start.elapsed().as_secs_f64());
                    writeln!(out, "{}", snap.to_jsonl())?;
                    out.flush()?;
                }
            })?;
        Ok(SnapshotEmitter {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the emitter, writes the final snapshot line and waits for the
    /// thread.
    ///
    /// # Errors
    ///
    /// The first write/flush error the emitter thread hit.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(handle) => handle.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for SnapshotEmitter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("sim.steps");
        let b = registry.counter("sim.steps");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = registry.gauge("runner.scenarios_total");
        registry.gauge("runner.scenarios_total").set(7.5);
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn histogram_buckets_by_upper_bound_with_overflow() {
        let h = Histogram::new(&[1.0, 4.0, 8.0]);
        for v in [0.5, 1.0, 3.0, 8.0, 100.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, [2, 1, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 112.5).abs() < 1e-9);
        assert_eq!(snap.cumulative(), [2, 3, 4, 5]);
    }

    #[test]
    fn histogram_bounds_are_sanitized() {
        let h = Histogram::new(&[8.0, 1.0, f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(h.snapshot().bounds, [1.0, 8.0]);
    }

    #[test]
    fn snapshot_jsonl_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("runner.cache_hits").add(41);
        registry.gauge("runner.scenarios_total").set(12.0);
        let h = registry.histogram("runner.lane_occupancy", &[1.0, 2.0, 4.0]);
        h.observe(1.0);
        h.observe(4.0);
        let snap = registry.snapshot(2.25);
        let line = snap.to_jsonl();
        assert_eq!(MetricsSnapshot::parse(&line).unwrap(), snap);
        assert_eq!(snap.counter("runner.cache_hits"), Some(41));
        assert_eq!(snap.gauge("runner.scenarios_total"), Some(12.0));
    }

    #[test]
    fn non_finite_floats_survive_the_round_trip() {
        let snap = MetricsSnapshot {
            elapsed_s: 1.0,
            counters: vec![],
            gauges: vec![("a".into(), f64::INFINITY), ("b".into(), f64::NEG_INFINITY)],
            histograms: vec![],
        };
        let back = MetricsSnapshot::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
        let nan = MetricsSnapshot {
            elapsed_s: f64::NAN,
            ..MetricsSnapshot::default()
        };
        let back = MetricsSnapshot::parse(&nan.to_jsonl()).unwrap();
        assert!(back.elapsed_s.is_nan());
    }

    #[test]
    fn escaped_keys_decode_including_surrogate_pairs() {
        let line = |key: &str| {
            format!(r#"{{"elapsed_s":1,"counters":{{"{key}":3}},"gauges":{{}},"histograms":{{}}}}"#)
        };
        let snap = MetricsSnapshot::parse(&line(r"a\ud83d\ude00\u00e9\n中")).unwrap();
        assert_eq!(snap.counter("a\u{1F600}é\n中"), Some(3));
        for bad in [
            r"\ud83d",
            r"\ud83dx",
            r"\ud83d\u0041",
            r"\ude00",
            r"\ude00\ud83d",
            r"\ud83d\ude0",
        ] {
            assert!(
                MetricsSnapshot::parse(&line(bad)).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_recursion() {
        // The parser follows the fixed snapshot grammar (at most three
        // levels), so arbitrarily nested input fails at the first mismatch.
        let deep = format!(
            r#"{{"elapsed_s":1,"counters":{}"#,
            "{\"a\":".repeat(100_000)
        );
        assert!(MetricsSnapshot::parse(&deep).is_err());
        assert!(MetricsSnapshot::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("sim.steps").add(4000);
        registry.gauge("runner.scenarios_total").set(0.0);
        let h = registry.histogram("runner.lane_occupancy", &[1.0, 2.0]);
        h.observe(2.0);
        let text = registry.snapshot(0.0).to_prometheus();
        assert!(text.contains("# TYPE tbp_sim_steps counter\ntbp_sim_steps 4000\n"));
        assert!(text.contains("# TYPE tbp_runner_scenarios_total gauge"));
        assert!(text.contains("tbp_runner_lane_occupancy_bucket{le=\"2\"} 1"));
        assert!(text.contains("tbp_runner_lane_occupancy_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("tbp_runner_lane_occupancy_count 1"));
    }

    #[test]
    fn emitter_writes_parseable_heartbeats_including_a_final_line() {
        let registry = MetricsRegistry::new();
        let steps = registry.counter("sim.steps");
        let path =
            std::env::temp_dir().join(format!("tbp_metrics_emitter_{}.jsonl", std::process::id()));
        let emitter =
            SnapshotEmitter::spawn(registry.clone(), &path, Duration::from_millis(10)).unwrap();
        steps.add(123);
        std::thread::sleep(Duration::from_millis(40));
        emitter.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(!lines.is_empty());
        for line in &lines {
            MetricsSnapshot::parse(line).unwrap();
        }
        let last = MetricsSnapshot::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.counter("sim.steps"), Some(123));
        let _ = std::fs::remove_file(&path);
    }
}
