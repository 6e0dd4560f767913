//! Decoder fuzzing of the wire protocol behind the CRC.
//!
//! The CRC-32 catches damage in transit, but a peer can send a well-framed
//! payload that is not a valid message. Each case takes the JSON payload of
//! a real [`Msg`] (a finished report included), damages it, re-frames it
//! with a correct CRC and decodes it with a [`FrameReceiver`]. Every input
//! must decode or fail with [`ProtoError::Malformed`]; a panic or an abort
//! (stack overflow) fails the property.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use tbp_core::scenario::{Runner, ScenarioSpec};
use tbp_obs::crc32::crc32;
use tbp_sweepd::proto::{encode_frame, Heartbeat, Hello, LeaseResult, Nack, FRAME_MAGIC};
use tbp_sweepd::{FrameReceiver, Msg, ProtoError, PROTOCOL_VERSION};

/// The JSON payloads of one message of every shape that carries data.
fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let spec = ScenarioSpec::new("fuzz").with_schedule(0.2, 0.5);
        let report = Runner::new()
            .run_one("fuzz", &spec)
            .expect("corpus run completes");
        let msgs = [
            Msg::Result(LeaseResult {
                lease: 4,
                index: 2,
                report,
            }),
            Msg::Hello(Hello {
                version: PROTOCOL_VERSION,
                peer: "w1 é😀".to_string(),
                batch: "ab12".to_string(),
                total: 9,
            }),
            Msg::Heartbeat(Heartbeat { lease: 3 }),
            Msg::Nack(Nack {
                reason: "quote \" and \\ backslash".to_string(),
                fatal: true,
            }),
        ];
        msgs.iter()
            .map(|msg| encode_frame(msg)[12..].to_vec())
            .collect()
    })
}

/// Applies mutation `kind` to `bytes`, using `a`/`b` as positions: a
/// flipped bit, a truncation, nesting spliced in (up to far past the
/// decoder's depth cap), or a slice of the payload copied elsewhere.
fn damage(bytes: &[u8], kind: u8, a: u64, b: u64, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = (a % bytes.len() as u64) as usize;
    match kind {
        0 => out[at] ^= 1 << bit,
        1 => out.truncate(at),
        2 => {
            // From ~10 levels (bit 7) to ~200 000 (bit 0).
            let depth = (b % 200_000) as usize >> (2 * bit);
            let open: &[u8] = if b >> 63 == 0 { b"[" } else { b"{\"k\":" };
            out.splice(at..at, open.repeat(depth));
        }
        _ => {
            let from = (b % bytes.len() as u64) as usize;
            let len = (usize::from(bit) * 37).min(bytes.len() - from);
            out.splice(at..at, bytes[from..from + len].iter().copied());
        }
    }
    out
}

/// One frame around `payload` with a correct length and CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn undamaged_payloads_decode_and_reframe_to_the_same_bytes() {
    for payload in payloads() {
        let bytes = frame(payload);
        let msg = FrameReceiver::new(bytes.as_slice())
            .recv()
            .unwrap()
            .expect("one frame");
        assert_eq!(encode_frame(&msg), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_payloads_decode_or_are_malformed(
        which in 0usize..4,
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
        bit in 0u8..8,
    ) {
        let damaged = damage(&payloads()[which], kind, a, b, bit);
        let bytes = frame(&damaged);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            FrameReceiver::new(bytes.as_slice()).recv()
        }));
        let Ok(decoded) = outcome else {
            panic!(
                "mutation {kind} panicked; payload:\n{}",
                String::from_utf8_lossy(&damaged)
            );
        };
        prop_assert!(
            matches!(decoded, Ok(Some(_)) | Err(ProtoError::Malformed(_))),
            "a correctly framed payload must decode or be Malformed, got {decoded:?}"
        );
    }
}
