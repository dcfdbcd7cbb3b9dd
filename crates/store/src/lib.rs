//! `stage-store`: the artefact store's on-disk format.
//!
//! A store file is a versioned, checksummed container of independently
//! addressable **sections** — flat byte ranges identified by a numeric id,
//! each carrying its own crc32 (little-endian, 8-byte aligned). A writer
//! builds the whole image in memory ([`build_file`]) and the caller puts it
//! on disk atomically; a reader validates the whole image up front
//! ([`StoreView::parse`]) and decodes sections through bounds-checked
//! cursors. See `DESIGN.md` §13 for the on-disk layout.
//!
//! The crate is std-only, has no FFI and forbids `unsafe`: everything is
//! plain byte manipulation, which keeps the format testable without
//! touching a filesystem ([`read_generation`] is the one function that
//! opens a file).
//!
//! This crate sits below `stage-core` in the dependency graph: the crc32
//! implementation lives here and `stage_core::persist` re-exports it, so
//! the wire protocol and the artefact store keep checksumming through one
//! shared function.
//!
//! The whole crate denies panicking constructs (the lint levels below,
//! indexing and the assert family included): stores are opened on the
//! serving restore path, where hostile bytes must produce typed errors,
//! never panics.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod format;

pub use format::{
    build_file, read_generation, SectionReader, SectionWriter, StoreError, StoreView, ENTRY_LEN,
    HEADER_LEN, MAGIC, STORE_VERSION,
};

/// IEEE crc32 (reflected, polynomial `0xEDB8_8320`), slice-by-8. Output
/// is bit-identical to the bitwise reference — the frame checksums of the
/// binary wire protocol and the section checksums of files already on disk
/// must not change under an implementation swap (pinned by tests on known
/// vectors and against the bitwise loop).
///
/// Restore verifies every section's checksum before a shard is allowed to
/// serve from a store file, so this loop is on the cold-start critical
/// path, and the binary wire codec runs it over every frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = chunk else {
            break; // unreachable: chunks_exact(8) yields exactly 8 bytes
        };
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = tab(7, lo)
            ^ tab(6, lo >> 8)
            ^ tab(5, lo >> 16)
            ^ tab(4, lo >> 24)
            ^ tab(3, hi)
            ^ tab(2, hi >> 8)
            ^ tab(1, hi >> 16)
            ^ tab(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tab(0, crc ^ u32::from(b));
    }
    !crc
}

/// One slice-by-8 table lookup; both indices are masked into bounds.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "k is masked to 0..8 and byte to 0..256, matching the table dimensions"
)]
fn tab(k: usize, byte: u32) -> u32 {
    CRC_TABLES[k & 7][(byte & 0xFF) as usize]
}

/// Slice-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` maps a
/// byte to its contribution from `k` positions deeper in the 8-byte chunk.
#[expect(
    clippy::indexing_slicing,
    reason = "compile-time loops with k < 8 and i < 256; a slip is a build error"
)]
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Same vectors `stage_core::persist` pinned for the bitwise
        // implementation: the table-driven swap must be invisible.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"stage"), crc32(b"stage"));
        assert_ne!(crc32(b"stage"), crc32(b"stagf"));
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let mut data = Vec::new();
        for i in 0..1024u32 {
            data.push((i.wrapping_mul(2654435761) >> 13) as u8);
            assert_eq!(crc32(&data), bitwise(&data));
        }
    }
}
