//! Observability subsystem: compact binary traces for the co-simulation.
//!
//! The paper's emulation platform streams per-component statistics to a host
//! PC over a dedicated link; this crate is the software equivalent. It
//! defines:
//!
//! - a **versioned, chunked binary trace format** ([`TraceWriter`] /
//!   [`TraceReader`]): magic + header chunk, per-chunk length + CRC32,
//!   little-endian fixed-width records — compact enough for fleet-scale
//!   archival and robust against truncation and corruption;
//! - **typed per-subsystem tracks** ([`TrackKind`], [`TrackDef`],
//!   [`Track`]): core temperatures, core frequencies, cumulative migrations,
//!   deadline misses, per-stage queue depths, and reconfiguration events,
//!   each an independent time series instead of one monolithic sample
//!   struct;
//! - a **streaming sink abstraction** ([`TraceSink`]: [`StreamSink`],
//!   [`FileSink`]) whose hot-path methods never allocate once the sink is
//!   attached, preserving the simulator's zero-allocation step guarantee
//!   while a file-backed trace is recorded;
//! - **exporters** ([`export`]): perfetto-compatible Chrome-trace JSON,
//!   lossless legacy JSON, and long-format CSV;
//! - a **live metrics registry** ([`metrics`]): allocation-free-after-
//!   registration counters/gauges/histograms, periodic JSONL
//!   [`MetricsSnapshot`] heartbeats and a one-shot Prometheus-style text
//!   exposition;
//! - a **live trace tailer** ([`tail::TraceTailer`]): follows a `.tbptrace`
//!   while it is being written, decoding only complete CRC-verified chunks
//!   and treating a torn in-progress tail as "poll again" rather than
//!   corruption;
//! - **windowed statistics** ([`stats`]) and a **pure terminal UI layer**
//!   ([`tui`]: [`tui::Frame`] / [`tui::Explorer`]) shared by the
//!   `trace_explore` and `trace_tui` binaries, renderable headlessly and
//!   deterministically.
//!
//! The crate is deliberately std-only: host tooling (`trace_explore`,
//! `trace_tui`) and the simulator share it without pulling simulation
//! layers in either direction.
//!
//! # Example
//!
//! ```
//! use tbp_obs::{Track, TrackDef, TrackKind, TraceReader, TraceWriter};
//!
//! let defs = vec![
//!     TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
//!     TrackDef::event(TrackKind::Reconfig, 0, "reconfig"),
//! ];
//! let mut writer = TraceWriter::new(Vec::new(), &defs).unwrap();
//! writer.counter(0, 0.0, 41.5);
//! writer.counter(0, 0.1, 42.0);
//! writer.event(1, 0.05, "threshold=2");
//! writer.finish().unwrap();
//!
//! let data = TraceReader::read(&writer.into_inner()).unwrap();
//! let temps: &Track = data.track(TrackKind::CoreTemperature, 0).unwrap();
//! assert_eq!(temps.values, [41.5, 42.0]);
//! assert_eq!(data.tracks[1].labels, ["threshold=2"]);
//! ```

pub mod crc32;
pub mod export;
pub mod format;
pub mod metrics;
pub mod sink;
pub mod stats;
pub mod tail;
pub mod track;
pub mod tui;

pub use format::{TraceError, TraceReader, TraceWriter, FORMAT_VERSION, MAGIC};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SnapshotEmitter,
};
pub use sink::{FileSink, StreamSink, TraceSink};
pub use tail::{TailProgress, TraceTailer};
pub use track::{TraceData, Track, TrackDef, TrackKind};
