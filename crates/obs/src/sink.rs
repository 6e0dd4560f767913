//! Streaming sink abstraction over trace consumers.
//!
//! A [`TraceSink`] is what the simulator feeds: it learns the track table
//! once ([`begin`](TraceSink::begin)) and then receives counter samples and
//! events. The hot-path methods return `()` — a sink latches failures
//! internally and surfaces them from [`finish`](TraceSink::finish) — so the
//! simulation step loop stays branch-light and allocation-free regardless of
//! which sink is attached.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::format::{TraceError, TraceWriter};
use crate::track::TrackDef;

/// A consumer of trace records.
pub trait TraceSink: Send {
    /// Declares the track table. Called exactly once, before any record;
    /// later `track` arguments are positions in `tracks`.
    fn begin(&mut self, tracks: &[TrackDef]);

    /// Records a counter sample. Must not allocate once `begin` ran.
    fn counter(&mut self, track: u16, time_s: f64, value: f64);

    /// Records a labelled event (rare; may allocate).
    fn event(&mut self, track: u16, time_s: f64, label: &str);

    /// Flushes and returns any failure latched by the record methods.
    ///
    /// # Errors
    ///
    /// Implementation-specific; file-backed sinks surface I/O errors here.
    fn finish(&mut self) -> Result<(), TraceError>;
}

/// A sink streaming the binary format into any writer.
///
/// The [`TraceWriter`] is constructed lazily at [`begin`](TraceSink::begin)
/// (that is when the track table becomes known); from then on every record
/// goes through the writer's preallocated chunk buffer without allocating.
#[derive(Debug)]
pub struct StreamSink<W: Write + Send> {
    out: Option<W>,
    writer: Option<TraceWriter<W>>,
    error: Option<TraceError>,
}

impl<W: Write + Send> StreamSink<W> {
    /// Creates a sink that will stream into `out`.
    pub fn new(out: W) -> Self {
        StreamSink {
            out: Some(out),
            writer: None,
            error: None,
        }
    }

    /// Consumes the sink and returns the underlying writer, if any (call
    /// [`finish`](TraceSink::finish) first to flush).
    pub fn into_inner(mut self) -> Option<W> {
        self.writer
            .take()
            .map(TraceWriter::into_inner)
            .or_else(|| self.out.take())
    }
}

impl<W: Write + Send> TraceSink for StreamSink<W> {
    fn begin(&mut self, tracks: &[TrackDef]) {
        let Some(out) = self.out.take() else {
            return;
        };
        match TraceWriter::new(out, tracks) {
            Ok(writer) => self.writer = Some(writer),
            Err(e) => self.error = Some(e),
        }
    }

    fn counter(&mut self, track: u16, time_s: f64, value: f64) {
        if let Some(writer) = &mut self.writer {
            writer.counter(track, time_s, value);
        }
    }

    fn event(&mut self, track: u16, time_s: f64, label: &str) {
        if let Some(writer) = &mut self.writer {
            writer.event(track, time_s, label);
        }
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match &mut self.writer {
            Some(writer) => writer.finish(),
            None => Ok(()),
        }
    }
}

/// A file-backed [`StreamSink`].
///
/// The file is created eagerly (so configuration errors fail fast) and the
/// trace is finalised on [`finish`](TraceSink::finish); dropping an
/// unfinished sink finalises best-effort so an early-exiting caller still
/// leaves a complete, readable trace behind when the writes succeed.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    inner: StreamSink<File>,
    finished: bool,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the [`File::create`] error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<FileSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(FileSink {
            path,
            inner: StreamSink::new(file),
            finished: false,
        })
    }

    /// The path the trace is written to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for FileSink {
    fn begin(&mut self, tracks: &[TrackDef]) {
        self.inner.begin(tracks);
    }

    fn counter(&mut self, track: u16, time_s: f64, value: f64) {
        self.inner.counter(track, time_s, value);
    }

    fn event(&mut self, track: u16, time_s: f64, label: &str) {
        self.inner.event(track, time_s, label);
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.finished = true;
        self.inner.finish()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.inner.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceReader;
    use crate::track::TrackKind;

    fn defs() -> Vec<TrackDef> {
        vec![
            TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
            TrackDef::event(TrackKind::Reconfig, 0, "reconfig"),
        ]
    }

    #[test]
    fn stream_sink_produces_a_readable_trace() {
        let mut sink = StreamSink::new(Vec::new());
        sink.begin(&defs());
        sink.counter(0, 0.0, 39.5);
        sink.event(1, 0.2, "policy=mig");
        sink.finish().unwrap();
        let bytes = sink.into_inner().unwrap();
        let data = TraceReader::read(&bytes).unwrap();
        assert_eq!(data.total_records(), 2);
        assert_eq!(data.tracks[1].labels, ["policy=mig"]);
    }

    #[test]
    fn stream_sink_without_begin_finishes_cleanly() {
        let mut sink = StreamSink::new(Vec::new());
        sink.counter(0, 0.0, 1.0); // before begin: ignored
        assert!(sink.finish().is_ok());
        // No magic was ever written.
        assert_eq!(sink.into_inner().unwrap().len(), 0);
    }

    #[test]
    fn file_sink_writes_and_finalises_on_drop() {
        let dir = std::env::temp_dir().join("tbp-obs-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.tbptrace");
        {
            let mut sink = FileSink::create(&path).unwrap();
            assert_eq!(sink.path(), path.as_path());
            sink.begin(&defs());
            sink.counter(0, 0.0, 42.0);
            // Dropped without finish: the Drop impl finalises the file.
        }
        let data = TraceReader::read_file(&path).unwrap();
        assert_eq!(data.tracks[0].values, [42.0]);
        std::fs::remove_file(&path).unwrap();
    }
}
