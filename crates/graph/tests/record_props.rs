//! Corruption properties of `cusp_graph::record`, the codec under the WAL,
//! the serve frames, phase checkpoints and the serve cache's `meta` file.
//! Whatever happens to the bytes — truncation, a flipped bit, a hostile
//! length prefix — decoding returns a typed error (records) or `None`
//! (sealed bodies); it never panics and never accepts damaged data.
//! Format-specific fields (magic, version, event tags, ...) are covered
//! by each format's own tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cusp_graph::record::{
    put_record, seal, take_record, unseal, RecordError, RECORD_HEADER_BYTES,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Counts the bytes this thread allocates, so a test can show a decode
/// sized nothing from a length prefix.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn record_of(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, payload);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Back-to-back records decode to their payloads, consuming exactly
    /// the bytes written.
    #[test]
    fn records_round_trip(payloads in vec(vec(any::<u8>(), 0..64), 0..6)) {
        let mut stream = Vec::new();
        for p in &payloads {
            put_record(&mut stream, p);
        }
        let mut pos = 0;
        for p in &payloads {
            let (got, used) = take_record(&stream[pos..], u32::MAX).unwrap();
            prop_assert_eq!(got, &p[..]);
            pos += used;
        }
        prop_assert_eq!(pos, stream.len());
    }

    /// Every cut short of the full record says how much was needed.
    #[test]
    fn every_truncation_is_typed(payload in vec(any::<u8>(), 0..64)) {
        let rec = record_of(&payload);
        for cut in 0..rec.len() {
            let needed = if cut < RECORD_HEADER_BYTES { RECORD_HEADER_BYTES } else { rec.len() };
            prop_assert_eq!(
                take_record(&rec[..cut], u32::MAX),
                Err(RecordError::Truncated { needed, available: cut })
            );
        }
    }

    /// Every single-bit flip is caught: in the CRC or the payload it is a
    /// CRC mismatch; in the length it is a truncation (longer) or a CRC
    /// mismatch over the shorter payload.
    #[test]
    fn every_bit_flip_is_typed(payload in vec(any::<u8>(), 0..48)) {
        let rec = record_of(&payload);
        for bit in 0..rec.len() * 8 {
            let mut bad = rec.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = take_record(&bad, u32::MAX);
            if bit < 32 {
                let caught = matches!(
                    got,
                    Err(RecordError::Truncated { .. } | RecordError::CrcMismatch { .. })
                );
                prop_assert!(caught, "length flip {} gave {:?}", bit, got);
            } else {
                let crc_mismatch = matches!(got, Err(RecordError::CrcMismatch { .. }));
                prop_assert!(crc_mismatch, "flip {} gave {:?}", bit, got);
            }
        }
    }

    /// A length prefix over the cap is refused before the payload is
    /// looked at or anything is allocated.
    #[test]
    fn oversize_length_is_refused_without_allocating(
        max in 0u32..1 << 20,
        excess in 1u32..u32::MAX,
        tail in vec(any::<u8>(), 0..16),
    ) {
        let len = max.saturating_add(excess);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        bytes.extend_from_slice(&tail);
        let before = ALLOCATED.with(Cell::get);
        let got = take_record(&bytes, max);
        let allocated = ALLOCATED.with(Cell::get) - before;
        prop_assert_eq!(got, Err(RecordError::Oversize { len, max }));
        prop_assert_eq!(allocated, 0);
    }

    /// A sealed body round-trips, and any truncation or single-bit flip
    /// unseals to `None`.
    #[test]
    fn sealed_bodies_reject_every_truncation_and_flip(body in vec(any::<u8>(), 0..64)) {
        let sealed = seal(&body);
        prop_assert_eq!(unseal(&sealed), Some(&body[..]));
        for cut in 0..sealed.len() {
            prop_assert_eq!(unseal(&sealed[..cut]), None, "cut at {}", cut);
        }
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(unseal(&bad), None, "flip of bit {}", bit);
        }
    }
}
