//! The framed wire protocol between coordinator and workers.
//!
//! Every message travels in one frame:
//!
//! ```text
//! ┌──────────┬──────────────┬──────────────┬─────────────┐
//! │ magic    │ payload len  │ CRC-32       │ payload     │
//! │ "TSWP"   │ u32 LE       │ u32 LE       │ len bytes   │
//! └──────────┴──────────────┴──────────────┴─────────────┘
//! ```
//!
//! The CRC is the same IEEE CRC-32 the `.tbptrace` chunk framing uses
//! ([`tbp_obs::crc32`]), computed over the payload only; the payload is the
//! JSON encoding of one [`Msg`]. A frame either verifies in full or the
//! connection is considered poisoned — after a CRC mismatch the stream
//! offset can no longer be trusted, so both sides drop the connection and
//! let the lease/backoff machinery recover, exactly like a crashed peer.
//!
//! The protocol is versioned by [`PROTOCOL_VERSION`], exchanged (and
//! checked, along with the batch content digest) in the `HELLO` handshake
//! before any work flows.
//!
//! [`FrameSender`] owns outgoing framing and is where the deterministic
//! [`FaultPlan`] taps the stream; [`FrameReceiver`]
//! owns incoming framing and distinguishes "idle" (read timeout between
//! frames — the caller's chance to do housekeeping) from real errors.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use serde::{Deserialize, Serialize};
use tbp_core::scenario::RunReport;
use tbp_obs::crc32::crc32;

use crate::fault::{FaultAction, FaultPlan};

/// Version of the wire protocol; peers with different versions refuse to
/// talk (fatal `NACK` at handshake).
pub const PROTOCOL_VERSION: u32 = 1;

/// Every frame starts with these four bytes.
pub const FRAME_MAGIC: [u8; 4] = *b"TSWP";

/// Upper bound a receiver accepts for one frame's payload: large enough for
/// any report JSON, small enough to reject a garbage length field before
/// allocating.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The messages of the sweep protocol.
///
/// Direction conventions: `Hello` opens both directions of the handshake
/// (worker first); `Lease` and `Shutdown` flow coordinator → worker;
/// `Heartbeat` and `Result` flow worker → coordinator; `Nack` may flow
/// either way and precedes a deliberate disconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// Handshake: identify yourself, your protocol version, and the batch
    /// (content digest + expansion size) you intend to work on.
    Hello(Hello),
    /// Coordinator grants the worker one scenario under a deadline-bearing
    /// lease.
    Lease(Lease),
    /// Worker renews its lease (lease 0 is an idle keepalive).
    Heartbeat(Heartbeat),
    /// Worker delivers the finished report for a lease.
    Result(LeaseResult),
    /// Refusal: the sender is about to drop the connection (fatal refusals
    /// — version/batch mismatch — must not be retried).
    Nack(Nack),
    /// Coordinator announces the batch is complete; the worker exits.
    Shutdown(Shutdown),
}

/// Handshake payload (both directions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Sender's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Sender's display name (worker name or `coordinator`).
    pub peer: String,
    /// Hex batch content digest (both sides load the same specs and must
    /// agree — work is addressed by expansion index, never shipped).
    pub batch: String,
    /// Number of expanded scenarios in the batch.
    pub total: u64,
}

/// One granted lease.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Coordinator-unique lease id.
    pub lease: u64,
    /// Index into the batch's deterministic expansion.
    pub index: u64,
    /// Expanded scenario name, for logs only.
    pub scenario: String,
    /// Lease lifetime granted per heartbeat, in milliseconds.
    pub deadline_ms: u64,
}

/// Lease renewal (or, with `lease == 0`, an idle keepalive).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// The lease being renewed.
    pub lease: u64,
}

/// A finished scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseResult {
    /// The lease this report discharges (may already be expired — the
    /// report is still accepted if its slot is empty, see `results` vs
    /// `results_duplicate`).
    pub lease: u64,
    /// Index into the batch expansion.
    pub index: u64,
    /// The report, exactly as a local runner would have produced it.
    pub report: RunReport,
}

/// Refusal notice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nack {
    /// Human-readable reason.
    pub reason: String,
    /// Fatal refusals (version/batch mismatch) must not be retried.
    pub fatal: bool,
}

/// End of batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shutdown {
    /// Why the coordinator is closing (normally `batch complete`).
    pub reason: String,
}

/// Errors of the wire protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// A socket read/write failed mid-frame.
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A frame did not start with [`FRAME_MAGIC`] — the stream is not (or
    /// no longer) a sweep protocol stream.
    BadMagic([u8; 4]),
    /// A frame declared a payload larger than [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// A frame's payload does not match its stored CRC-32.
    CrcMismatch {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// A CRC-valid payload failed to parse as a [`Msg`].
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "frame I/O error: {e}"),
            ProtoError::Closed => write!(f, "peer closed the connection"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::Oversized(n) => {
                write!(
                    f,
                    "frame declares {n} payload bytes (limit {MAX_FRAME_BYTES})"
                )
            }
            ProtoError::CrcMismatch { stored, computed } => write!(
                f,
                "frame CRC mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            ProtoError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Encodes one message into a complete frame (magic + length + CRC +
/// payload).
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let payload = serde_json::to_string(msg).expect("protocol messages always serialize");
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes the payload bytes of one frame (CRC already verified).
fn decode_payload(payload: &[u8]) -> Result<Msg, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::Malformed("payload is not UTF-8".to_string()))?;
    serde_json::from_str(text).map_err(|e| ProtoError::Malformed(e.to_string()))
}

/// Counters a [`FrameSender`] keeps about what it actually put on (or kept
/// off) the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendStats {
    /// Frames delivered (including delayed and corrupted ones).
    pub sent: u64,
    /// Frames the fault plan silently discarded.
    pub dropped: u64,
    /// Frames the fault plan corrupted before delivery.
    pub corrupted: u64,
}

/// Owns the outgoing half of a connection: framing, the frame sequence
/// counter, and the fault-injection tap.
#[derive(Debug)]
pub struct FrameSender {
    stream: TcpStream,
    fault: FaultPlan,
    /// 1-based sequence number of the next outgoing frame; survives
    /// reconnects via [`FrameSender::with_start_seq`].
    seq: u64,
    /// What actually happened on the wire.
    pub stats: SendStats,
}

impl FrameSender {
    /// A sender that injects nothing.
    pub fn new(stream: TcpStream) -> Self {
        FrameSender::with_fault(stream, FaultPlan::none())
    }

    /// A sender whose outgoing frames pass through `fault`.
    pub fn with_fault(stream: TcpStream, fault: FaultPlan) -> Self {
        FrameSender {
            stream,
            fault,
            seq: 0,
            stats: SendStats::default(),
        }
    }

    /// Continues the frame sequence of a previous connection (so fault
    /// clauses indexed by frame number fire at most once per process, not
    /// once per reconnect).
    pub fn with_start_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// The sequence number the next frame will carry, for handoff across
    /// reconnects.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Frames, faults and writes one message.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Io`] when the write fails (a fault-dropped frame is a
    /// successful no-op).
    pub fn send(&mut self, msg: &Msg) -> Result<(), ProtoError> {
        self.seq += 1;
        let mut frame = encode_frame(msg);
        match self.fault.action(self.seq) {
            FaultAction::Drop => {
                self.stats.dropped += 1;
                return Ok(());
            }
            FaultAction::Corrupt => {
                // Flip one payload bit after the CRC was computed: the
                // receiver must detect and reject the frame.
                let target = 12 + (frame.len() - 12) / 2;
                frame[target] ^= 0x20;
                self.stats.corrupted += 1;
            }
            FaultAction::Delay(pause) => std::thread::sleep(pause),
            FaultAction::Deliver => {}
        }
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        self.stats.sent += 1;
        Ok(())
    }
}

/// Owns the incoming half of a connection.
///
/// The stream's read timeout (configure it on the `TcpStream` before
/// wrapping) doubles as the caller's housekeeping tick:
/// [`recv`](Self::recv) returns `Ok(None)` when the timeout strikes
/// *between* frames. A timeout striking mid-frame keeps reading — the frame
/// is in flight — up to a patience budget, after which the peer is treated
/// as wedged. Any other [`Read`] (a byte slice of recorded frames, say)
/// decodes the same way.
#[derive(Debug)]
pub struct FrameReceiver<R = TcpStream> {
    stream: R,
    /// Consecutive idle reads tolerated while a frame is partially
    /// received.
    mid_frame_patience: u32,
}

impl<R: Read> FrameReceiver<R> {
    /// Wraps the reading half of `stream`.
    pub fn new(stream: R) -> Self {
        FrameReceiver {
            stream,
            mid_frame_patience: 400,
        }
    }

    /// Receives one message, `Ok(None)` on an idle read timeout at a frame
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Closed`] on EOF at a frame boundary, [`ProtoError::Io`]
    /// on EOF or read failure mid-frame, and the decode errors described on
    /// [`ProtoError`]. After any error the stream offset is untrusted; drop
    /// the connection.
    pub fn recv(&mut self) -> Result<Option<Msg>, ProtoError> {
        let mut magic = [0u8; 4];
        match self.read_patient(&mut magic, true)? {
            ReadOutcome::Idle => return Ok(None),
            ReadOutcome::Eof => return Err(ProtoError::Closed),
            ReadOutcome::Filled => {}
        }
        if magic != FRAME_MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let mut word = [0u8; 4];
        self.read_rest(&mut word)?;
        let len = u32::from_le_bytes(word);
        if len > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversized(len));
        }
        self.read_rest(&mut word)?;
        let stored = u32::from_le_bytes(word);
        let mut payload = vec![0u8; len as usize];
        self.read_rest(&mut payload)?;
        let computed = crc32(&payload);
        if stored != computed {
            return Err(ProtoError::CrcMismatch { stored, computed });
        }
        decode_payload(&payload).map(Some)
    }

    /// Reads the remainder of a frame: timeouts keep waiting (bounded by
    /// the patience budget), EOF is an error.
    fn read_rest(&mut self, buf: &mut [u8]) -> Result<(), ProtoError> {
        match self.read_patient(buf, false)? {
            ReadOutcome::Filled => Ok(()),
            ReadOutcome::Eof | ReadOutcome::Idle => Err(ProtoError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection ended mid-frame",
            ))),
        }
    }

    /// Fills `buf`, tolerating read timeouts. With `idle_ok` a timeout
    /// before the first byte reports [`ReadOutcome::Idle`]; after the first
    /// byte (or with `idle_ok` false) timeouts retry until the patience
    /// budget is spent.
    fn read_patient(&mut self, buf: &mut [u8], idle_ok: bool) -> Result<ReadOutcome, ProtoError> {
        let mut filled = 0usize;
        let mut idle_reads = 0u32;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(ReadOutcome::Eof);
                    }
                    return Err(ProtoError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection ended mid-frame",
                    )));
                }
                Ok(n) => {
                    filled += n;
                    idle_reads = 0;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if filled == 0 && idle_ok {
                        return Ok(ReadOutcome::Idle);
                    }
                    idle_reads += 1;
                    if idle_reads > self.mid_frame_patience {
                        return Err(ProtoError::Io(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer wedged mid-frame",
                        )));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
        Ok(ReadOutcome::Filled)
    }
}

enum ReadOutcome {
    Filled,
    Idle,
    Eof,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello(Hello {
                version: PROTOCOL_VERSION,
                peer: "w1".to_string(),
                batch: "ab12".to_string(),
                total: 9,
            }),
            Msg::Lease(Lease {
                lease: 3,
                index: 7,
                scenario: "fig7[t4]".to_string(),
                deadline_ms: 5000,
            }),
            Msg::Heartbeat(Heartbeat { lease: 3 }),
            Msg::Nack(Nack {
                reason: "nope".to_string(),
                fatal: true,
            }),
            Msg::Shutdown(Shutdown {
                reason: "batch complete".to_string(),
            }),
        ]
    }

    #[test]
    fn frames_round_trip_over_a_socket() {
        let (client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut tx = FrameSender::new(client);
        let mut rx = FrameReceiver::new(server);
        assert!(rx.recv().unwrap().is_none(), "no traffic yet: idle");
        for msg in sample_msgs() {
            tx.send(&msg).unwrap();
            assert_eq!(rx.recv().unwrap(), Some(msg));
        }
        assert_eq!(tx.stats.sent, 5);
        drop(tx);
        assert!(matches!(rx.recv(), Err(ProtoError::Closed)));
    }

    #[test]
    fn corrupted_frame_is_rejected_by_crc() {
        let (client, server) = pair();
        let mut tx = FrameSender::with_fault(client, FaultPlan::parse("corrupt=2").unwrap());
        let mut rx = FrameReceiver::new(server);
        tx.send(&Msg::Heartbeat(Heartbeat { lease: 1 })).unwrap();
        tx.send(&Msg::Heartbeat(Heartbeat { lease: 2 })).unwrap();
        assert_eq!(tx.stats.corrupted, 1);
        assert!(rx.recv().unwrap().is_some());
        assert!(matches!(rx.recv(), Err(ProtoError::CrcMismatch { .. })));
    }

    #[test]
    fn dropped_frame_leaves_no_trace_on_the_wire() {
        let (client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut tx = FrameSender::with_fault(client, FaultPlan::parse("drop=1").unwrap());
        let mut rx = FrameReceiver::new(server);
        tx.send(&Msg::Heartbeat(Heartbeat { lease: 1 })).unwrap();
        tx.send(&Msg::Heartbeat(Heartbeat { lease: 2 })).unwrap();
        assert_eq!((tx.stats.sent, tx.stats.dropped), (1, 1));
        assert_eq!(
            rx.recv().unwrap(),
            Some(Msg::Heartbeat(Heartbeat { lease: 2 })),
            "frame 1 was dropped, frame 2 arrives first"
        );
        assert!(rx.recv().unwrap().is_none());
    }

    #[test]
    fn garbage_magic_and_oversized_lengths_are_rejected() {
        let (mut client, server) = pair();
        let mut rx = FrameReceiver::new(server);
        client.write_all(b"JUNKxxxx").unwrap();
        assert!(matches!(rx.recv(), Err(ProtoError::BadMagic(m)) if &m == b"JUNK"));

        let (mut client, server) = pair();
        let mut rx = FrameReceiver::new(server);
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&FRAME_MAGIC);
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        bogus.extend_from_slice(&0u32.to_le_bytes());
        client.write_all(&bogus).unwrap();
        assert!(matches!(rx.recv(), Err(ProtoError::Oversized(n)) if n == u32::MAX));
    }

    #[test]
    fn deeply_nested_payload_is_malformed_not_a_crash() {
        let deep = format!(r#"{{"Heartbeat":{}"#, r#"{"lease":"#.repeat(100_000));
        assert!(matches!(
            decode_payload(deep.as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            decode_payload("[".repeat(100_000).as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn torn_frame_waits_for_the_rest_instead_of_erroring() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let frame = encode_frame(&Msg::Heartbeat(Heartbeat { lease: 9 }));
        let (head, tail) = frame.split_at(frame.len() - 3);
        client.write_all(head).unwrap();
        let reader = std::thread::spawn(move || {
            let mut rx = FrameReceiver::new(server);
            rx.recv()
        });
        std::thread::sleep(Duration::from_millis(60));
        client.write_all(tail).unwrap();
        assert_eq!(
            reader.join().unwrap().unwrap(),
            Some(Msg::Heartbeat(Heartbeat { lease: 9 }))
        );
    }
}
