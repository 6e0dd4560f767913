//! Decoder fuzzing of the trace format behind the CRC.
//!
//! Every chunk of a `.tbptrace` file carries a CRC-32, so the byte flips in
//! `format_properties.rs` are rejected by the framing before the header and
//! samples decoders ever run. A file can still hold well-framed payloads
//! that are not a valid trace (a buggy writer, a hand-made file). Each case
//! here takes the chunk payloads of a real simulation trace, the committed
//! golden trace of the phased scenario, damages one of them, re-frames every
//! chunk with a correct length and CRC and decodes the file with
//! [`TraceReader::read`]. Every input must decode or fail with a typed
//! decoder error; a panic, or one allocation larger than the format's chunk
//! cap, fails the property.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use tbp_obs::crc32::crc32;
use tbp_obs::{TraceError, TraceReader, MAGIC};

/// The largest single allocation a decoder may make: the format's cap on
/// one chunk payload (`MAX_CHUNK_BYTES` in `format.rs`), so a damaged
/// length field can never ask for more memory than a valid chunk holds.
const MAX_CHUNK_BYTES: usize = 16 * 1024 * 1024;

/// The largest allocation request this test process has made.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

/// Forwards to `System`, recording the largest request in
/// [`LARGEST_ALLOCATION`].
struct LargestAllocation;

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

// SAFETY: pure pass-through to `System`; the only extra work is a lock-free
// `fetch_max`, so `System`'s layout/ptr contracts are forwarded unchanged.
unsafe impl GlobalAlloc for LargestAllocation {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The golden trace: the phased scenario over a window holding a reconfig
/// event, so the samples chunk has counter and event records.
fn golden_bytes() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/phased_reconfig_d3.tbptrace");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{} reads: {e}", path.display()))
}

/// The golden trace's chunk payloads in file order: header, samples, end.
fn chunks() -> &'static [Vec<u8>] {
    static CHUNKS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        let bytes = golden_bytes();
        let mut chunks = Vec::new();
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            chunks.push(bytes[pos + 8..pos + 8 + len].to_vec());
            pos += 8 + len;
        }
        chunks
    })
}

/// The file holding `chunks`, each framed with a correct length and CRC.
fn reframe(chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for payload in chunks {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// The little-endian `u16` at byte `at`.
fn u16_at(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

/// Offsets of the `name_len` fields in a header payload
/// (`tag version count` then `kind index interval_s name_len name` per track).
fn name_len_offsets(header: &[u8]) -> Vec<usize> {
    let count = u32::from_le_bytes(header[5..9].try_into().unwrap());
    let mut offsets = Vec::new();
    let mut pos = 9;
    for _ in 0..count {
        pos += 1 + 4 + 8;
        offsets.push(pos);
        pos += 2 + usize::from(u16_at(header, pos));
    }
    offsets
}

/// Offsets of the records in a samples payload (after its chunk tag).
fn record_offsets(samples: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 1;
    while pos < samples.len() {
        offsets.push(pos);
        pos += match samples[pos] {
            0x01 => 1 + 2 + 8 + 8,
            _ => 1 + 2 + 8 + 2 + usize::from(u16_at(samples, pos + 11)),
        };
    }
    offsets
}

/// Applies mutation `kind` to one chunk, using `a`/`b` as positions and
/// values: a flipped bit or a truncation in any chunk, an unknown chunk tag,
/// a changed track count or name length in the header, an unknown record
/// tag or a changed track id in the samples chunk.
fn damage(chunks: &[Vec<u8>], kind: u8, which: usize, a: u64, b: u64, bit: u8) -> Vec<Vec<u8>> {
    let mut out = chunks.to_vec();
    let samples = 1 + which % (chunks.len() - 2);
    match kind {
        0 => {
            let chunk = &mut out[which % chunks.len()];
            let at = (a % chunk.len() as u64) as usize;
            chunk[at] ^= 1 << bit;
        }
        1 => {
            let chunk = &mut out[which % chunks.len()];
            chunk.truncate((a % chunk.len() as u64) as usize);
        }
        2 => out[which % chunks.len()][0] = b as u8,
        3 => {
            let count = u32::from_le_bytes(out[0][5..9].try_into().unwrap());
            let count = count ^ (1 << (b % 32));
            out[0][5..9].copy_from_slice(&count.to_le_bytes());
        }
        4 => {
            let offsets = name_len_offsets(&chunks[0]);
            let at = offsets[(a % offsets.len() as u64) as usize];
            let len = u16_at(&out[0], at) ^ (1 << (b % 16));
            out[0][at..at + 2].copy_from_slice(&len.to_le_bytes());
        }
        5 => {
            let offsets = record_offsets(&chunks[samples]);
            let at = offsets[(a % offsets.len() as u64) as usize];
            // Record tags 0x01 (counter) and 0x02 (event) are the known ones.
            out[samples][at] = (b as u8).max(3);
        }
        _ => {
            let offsets = record_offsets(&chunks[samples]);
            let at = offsets[(a % offsets.len() as u64) as usize] + 1;
            let track = u16_at(&out[samples], at) ^ (1 << (b % 16));
            out[samples][at..at + 2].copy_from_slice(&track.to_le_bytes());
        }
    }
    out
}

#[test]
fn undamaged_chunks_reframe_to_the_golden_bytes() {
    let chunks = chunks();
    assert_eq!(
        chunks.iter().map(|c| c[0]).collect::<Vec<_>>(),
        [0x01, 0x02, 0xFF],
        "header, one samples chunk, end"
    );
    assert_eq!(reframe(chunks), golden_bytes());
    assert!(TraceReader::read(&reframe(chunks)).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_payloads_decode_or_fail_typed(
        kind in 0u8..7,
        which in 0usize..64,
        a in any::<u64>(),
        b in any::<u64>(),
        bit in 0u8..8,
    ) {
        let bytes = reframe(&damage(chunks(), kind, which, a, b, bit));
        let outcome = catch_unwind(AssertUnwindSafe(|| TraceReader::read(&bytes)));
        let Ok(decoded) = outcome else {
            panic!("mutation {kind} (which {which}, a {a}, b {b}, bit {bit}) panicked");
        };
        // The framing is intact, so only the payload decoders may object.
        prop_assert!(
            matches!(
                decoded,
                Ok(_)
                    | Err(TraceError::Malformed { .. }
                        | TraceError::UnsupportedVersion(_)
                        | TraceError::MissingHeader
                        | TraceError::UnknownTrack { .. }
                        | TraceError::MissingEnd
                        | TraceError::CountMismatch { .. })
            ),
            "a correctly framed trace must decode or fail in a decoder, got {decoded:?}"
        );
        let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
        prop_assert!(
            largest <= MAX_CHUNK_BYTES,
            "mutation {kind} made a {largest}-byte allocation"
        );
    }
}
