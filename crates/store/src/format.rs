//! The `stage-store v1` on-disk format.
//!
//! ```text
//! offset 0                      64                64 + 32·n
//! ┌──────────────┬───────────────────────┬───────────────┬─────┬───────────────┐
//! │ header (64B) │ section table (32B·n) │ section 0     │ ... │ section n-1   │
//! └──────────────┴───────────────────────┴───────────────┴─────┴───────────────┘
//! ```
//!
//! * **Header** (64 bytes): magic `"STAGSTOR"`, format version (u32),
//!   section count (u32), generation (u64, bumped by every checkpoint —
//!   readers poll it for hot-swap), total file length (u64), crc32 of the
//!   section table, crc32 of the header's own first 36 bytes, and zeroed
//!   reserved space. All integers little-endian.
//! * **Section table**: one 32-byte entry per section — id (u32), payload
//!   crc32 (u32), absolute offset (u64), payload length (u64), reserved
//!   capacity (u64). Sections are contiguous (each offset is the previous
//!   offset + capacity, the first sits right after the table), offsets and
//!   capacities are 8-byte aligned, and `len ≤ cap`.
//! * **Coverage invariant**: every byte of a valid file is either covered
//!   by one of the three crc32s or required to be zero (header reserved
//!   space and the `[len, cap)` slack of each section). A reader validates
//!   all of it up front, so *any* single-bit corruption anywhere in the
//!   file is detected — nothing half-loads.
//!
//! Files are written whole ([`build_file`], then the caller's temp-file +
//! fsync + `rename`) and read whole ([`StoreView::parse`] over the bytes
//! the caller read), so a kill at any instant leaves the old image or the
//! new one. `cap` is kept in the v1 entry for compatibility and equals
//! `round8(len)` in every file [`build_file`] writes; files written before
//! PR 18 carry `round8(len + len / 4 + 64)` of zeroed slack instead, and
//! must keep validating and reading identically.
//!
//! The crate root's lint levels deny every panicking construct here,
//! indexing included: it parses hostile bytes on the serving restore path.

use crate::crc32;
use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

/// File magic, bytes 0..8 of every store file.
pub const MAGIC: [u8; 8] = *b"STAGSTOR";
/// Current format version.
pub const STORE_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Section-table entry length in bytes.
pub const ENTRY_LEN: usize = 32;
/// Hard cap on the section count (a table is a few entries; anything
/// larger is hostile input, rejected before allocation).
pub const MAX_SECTIONS: u32 = 4096;

/// Why a store file (or section payload) could not be read. Everything
/// except [`StoreError::Io`] means the file existed but its contents cannot
/// be trusted.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header names a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header (or table) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A crc32 check failed. `section` is `None` for the header/table
    /// checksums.
    ChecksumMismatch {
        /// Section id, or `None` for header/table corruption.
        section: Option<u32>,
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum computed over the bytes.
        actual: u32,
    },
    /// Structurally invalid content (bad alignment, overlapping sections,
    /// nonzero reserved bytes, a cursor overrun while decoding, ...).
    Malformed {
        /// Human-readable description.
        detail: String,
    },
}

impl StoreError {
    /// Whether this is a benign missing-file error (cold start), as opposed
    /// to damage.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StoreError::Io(e) if e.kind() == io::ErrorKind::NotFound)
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a stage-store file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store version {found} (supported: {STORE_VERSION})")
            }
            StoreError::Truncated { expected, actual } => {
                write!(f, "store truncated: need {expected} bytes, have {actual}")
            }
            StoreError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => match section {
                Some(id) => write!(
                    f,
                    "section {id} checksum mismatch: file says {expected:08x}, bytes are {actual:08x}"
                ),
                None => write!(
                    f,
                    "header/table checksum mismatch: file says {expected:08x}, bytes are {actual:08x}"
                ),
            },
            StoreError::Malformed { detail } => write!(f, "malformed store: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn malformed(detail: impl Into<String>) -> StoreError {
    StoreError::Malformed {
        detail: detail.into(),
    }
}

/// One parsed section-table entry (offsets already bounds-checked).
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    offset: usize,
    len: usize,
}

fn round8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

fn get_u32(bytes: &[u8], at: usize) -> Result<u32, StoreError> {
    let raw = bytes
        .get(at..at + 4)
        .ok_or_else(|| malformed(format!("read of u32 at {at} out of bounds")))?;
    let mut b = [0u8; 4];
    b.copy_from_slice(raw);
    Ok(u32::from_le_bytes(b))
}

fn get_u64(bytes: &[u8], at: usize) -> Result<u64, StoreError> {
    let raw = bytes
        .get(at..at + 8)
        .ok_or_else(|| malformed(format!("read of u64 at {at} out of bounds")))?;
    let mut b = [0u8; 8];
    b.copy_from_slice(raw);
    Ok(u64::from_le_bytes(b))
}

/// Validates a complete store image: header, table, every section crc, and
/// the must-be-zero slack. Returns the parsed entries and the generation.
fn validate(bytes: &[u8]) -> Result<(Vec<Entry>, u64), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes.get(..8) != Some(MAGIC.as_slice()) {
        return Err(StoreError::BadMagic);
    }
    let version = get_u32(bytes, 8)?;
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let n_sections = get_u32(bytes, 12)?;
    let generation = get_u64(bytes, 16)?;
    let total_len = get_u64(bytes, 24)?;
    let table_crc = get_u32(bytes, 32)?;
    let header_crc = get_u32(bytes, 36)?;
    let header_covered = bytes.get(..36).unwrap_or_default();
    let actual_header_crc = crc32(header_covered);
    if actual_header_crc != header_crc {
        return Err(StoreError::ChecksumMismatch {
            section: None,
            expected: header_crc,
            actual: actual_header_crc,
        });
    }
    if bytes
        .get(40..HEADER_LEN)
        .is_none_or(|r| r.iter().any(|&b| b != 0))
    {
        return Err(malformed("nonzero reserved header bytes"));
    }
    if total_len != bytes.len() as u64 {
        return Err(StoreError::Truncated {
            expected: total_len,
            actual: bytes.len() as u64,
        });
    }
    if n_sections > MAX_SECTIONS {
        return Err(malformed(format!("section count {n_sections} over cap")));
    }
    let table_len = ENTRY_LEN * n_sections as usize;
    let table_end = HEADER_LEN + table_len;
    let table = bytes
        .get(HEADER_LEN..table_end)
        .ok_or(StoreError::Truncated {
            expected: table_end as u64,
            actual: bytes.len() as u64,
        })?;
    let actual_table_crc = crc32(table);
    if actual_table_crc != table_crc {
        return Err(StoreError::ChecksumMismatch {
            section: None,
            expected: table_crc,
            actual: actual_table_crc,
        });
    }
    let mut entries = Vec::with_capacity(n_sections as usize);
    let mut cursor = table_end;
    for i in 0..n_sections as usize {
        let at = HEADER_LEN + i * ENTRY_LEN;
        let id = get_u32(bytes, at)?;
        let crc = get_u32(bytes, at + 4)?;
        let offset = usize::try_from(get_u64(bytes, at + 8)?)
            .map_err(|_| malformed("section offset overflows usize"))?;
        let len = usize::try_from(get_u64(bytes, at + 16)?)
            .map_err(|_| malformed("section length overflows usize"))?;
        let cap = usize::try_from(get_u64(bytes, at + 24)?)
            .map_err(|_| malformed("section capacity overflows usize"))?;
        if offset != cursor {
            return Err(malformed(format!(
                "section {id}: offset {offset}, expected contiguous {cursor}"
            )));
        }
        if offset % 8 != 0 || cap % 8 != 0 {
            return Err(malformed(format!("section {id}: misaligned offset/cap")));
        }
        if len > cap {
            return Err(malformed(format!("section {id}: len {len} > cap {cap}")));
        }
        let end = offset
            .checked_add(cap)
            .ok_or_else(|| malformed("section range overflows"))?;
        if end > bytes.len() {
            return Err(StoreError::Truncated {
                expected: end as u64,
                actual: bytes.len() as u64,
            });
        }
        if entries.iter().any(|e: &Entry| e.id == id) {
            return Err(malformed(format!("duplicate section id {id}")));
        }
        let payload = bytes
            .get(offset..offset + len)
            .ok_or_else(|| malformed("section payload out of bounds"))?;
        let actual = crc32(payload);
        if actual != crc {
            return Err(StoreError::ChecksumMismatch {
                section: Some(id),
                expected: crc,
                actual,
            });
        }
        let slack = bytes
            .get(offset + len..end)
            .ok_or_else(|| malformed("section slack out of bounds"))?;
        if slack.iter().any(|&b| b != 0) {
            return Err(malformed(format!("section {id}: nonzero slack bytes")));
        }
        cursor = end;
        entries.push(Entry { id, offset, len });
    }
    if cursor != bytes.len() {
        return Err(malformed(format!(
            "trailing bytes: sections end at {cursor}, file is {}",
            bytes.len()
        )));
    }
    Ok((entries, generation))
}

/// Builds a complete store image for `sections` (in table order) with the
/// given generation stamp. Each section's capacity is its length rounded
/// up to 8 bytes (the padding is zero).
pub fn build_file(sections: &[(u32, Vec<u8>)], generation: u64) -> Vec<u8> {
    let table_end = HEADER_LEN + ENTRY_LEN * sections.len();
    let payloads: usize = sections.iter().map(|(_, p)| round8(p.len())).sum();
    let total = table_end + payloads;
    let mut out = vec![0u8; total];
    // Payloads first (so their crcs exist for the table).
    let mut offset = table_end;
    for (i, (id, payload)) in sections.iter().enumerate() {
        let cap = round8(payload.len());
        if let Some(dst) = out.get_mut(offset..offset + payload.len()) {
            dst.copy_from_slice(payload);
        }
        let at = HEADER_LEN + i * ENTRY_LEN;
        let entry = encode_entry(
            *id,
            crc32(payload),
            offset as u64,
            payload.len() as u64,
            cap as u64,
        );
        if let Some(dst) = out.get_mut(at..at + ENTRY_LEN) {
            dst.copy_from_slice(&entry);
        }
        offset += cap;
    }
    let table_crc = crc32(out.get(HEADER_LEN..table_end).unwrap_or_default());
    let header = encode_header(sections.len() as u32, generation, total as u64, table_crc);
    if let Some(dst) = out.get_mut(..HEADER_LEN) {
        dst.copy_from_slice(&header);
    }
    out
}

fn encode_entry(id: u32, crc: u32, offset: u64, len: u64, cap: u64) -> [u8; ENTRY_LEN] {
    let mut e = [0u8; ENTRY_LEN];
    let fields = id
        .to_le_bytes()
        .into_iter()
        .chain(crc.to_le_bytes())
        .chain(offset.to_le_bytes())
        .chain(len.to_le_bytes())
        .chain(cap.to_le_bytes());
    for (dst, src) in e.iter_mut().zip(fields) {
        *dst = src;
    }
    e
}

fn encode_header(
    n_sections: u32,
    generation: u64,
    total_len: u64,
    table_crc: u32,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    // Bytes 0..36 are the crc-covered prefix, in field order; 40..64 stay
    // zero (reserved).
    let covered = MAGIC
        .into_iter()
        .chain(STORE_VERSION.to_le_bytes())
        .chain(n_sections.to_le_bytes())
        .chain(generation.to_le_bytes())
        .chain(total_len.to_le_bytes())
        .chain(table_crc.to_le_bytes());
    for (dst, src) in h.iter_mut().zip(covered) {
        *dst = src;
    }
    let header_crc = crc32(h.get(..36).unwrap_or_default());
    for (dst, src) in h.iter_mut().skip(36).zip(header_crc.to_le_bytes()) {
        *dst = src;
    }
    h
}

/// A validated, borrowed view over a store image. Every crc and structural
/// invariant is checked at construction — corruption anywhere is an error
/// here, never a bad read later.
pub struct StoreView<'a> {
    bytes: &'a [u8],
    entries: Vec<Entry>,
    generation: u64,
}

impl<'a> StoreView<'a> {
    /// Parses and fully validates a store image.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let (entries, generation) = validate(bytes)?;
        Ok(Self {
            bytes,
            entries,
            generation,
        })
    }

    /// A section's payload bytes, by id.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        let e = self.entries.iter().find(|e| e.id == id)?;
        self.bytes.get(e.offset..e.offset + e.len)
    }

    /// Section ids in table order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// The header's generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Reads just the generation stamp of a store file (header validation
/// only — the cheap hot-swap poll; full validation happens on reopen).
pub fn read_generation(path: &Path) -> Result<u64, StoreError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_LEN];
    io::Read::read_exact(&mut file, &mut header).map_err(|_| StoreError::Truncated {
        expected: HEADER_LEN as u64,
        actual: 0,
    })?;
    if header.get(..8) != Some(MAGIC.as_slice()) {
        return Err(StoreError::BadMagic);
    }
    let crc_stored = get_u32(&header, 36)?;
    let crc_actual = crc32(header.get(..36).unwrap_or_default());
    if crc_stored != crc_actual {
        return Err(StoreError::ChecksumMismatch {
            section: None,
            expected: crc_stored,
            actual: crc_actual,
        });
    }
    get_u64(&header, 16)
}

/// Incremental encoder for one section's payload. Primitives are
/// little-endian; floats are stored as their `to_bits` image so NaN
/// payloads and `-0.0` survive bit-exactly; slices are count-prefixed and
/// padded to their element alignment (the section base is 8-aligned in the
/// file, so in-buffer alignment equals absolute alignment).
#[derive(Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pads with zero bytes to the next multiple of `align`.
    pub fn align(&mut self, align: usize) {
        if align > 1 {
            while !self.buf.len().is_multiple_of(align) {
                self.buf.push(0);
            }
        }
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its little-endian bit image.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a count-prefixed raw byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a count-prefixed u32 array (data 4-aligned).
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.align(4);
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a count-prefixed u64 array (data 8-aligned).
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.align(8);
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a count-prefixed f64 array (data 8-aligned).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.align(8);
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length (for alignment bookkeeping in callers).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor over one section's payload, mirroring [`SectionWriter`] get for
/// put. Every read is bounds-checked and every count is validated against
/// the remaining bytes *before* any allocation, so hostile payloads
/// produce typed errors, never panics or OOM.
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| malformed("cursor overflow"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| malformed(format!("cursor overrun: {n} bytes at {}", self.pos)))?;
        self.pos = end;
        Ok(slice)
    }

    /// Skips zero padding to the next multiple of `align`.
    pub fn align(&mut self, align: usize) -> Result<(), StoreError> {
        if align > 1 {
            while !self.pos.is_multiple_of(align) {
                let pad = self.take(1)?;
                if pad != [0u8] {
                    return Err(malformed("nonzero alignment padding"));
                }
            }
        }
        Ok(())
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let raw = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(raw);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an f64 from its bit image.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a strict bool (only 0 or 1 accepted).
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.take(1)? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(malformed("bool byte not 0/1")),
        }
    }

    /// Reads a count-prefixed raw byte string (borrowed).
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.checked_count(1)?;
        self.take(n)
    }

    /// Reads a count-prefixed u32 array into an owned Vec.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, StoreError> {
        self.align(4)?;
        let n = self.checked_count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b.copy_from_slice(c);
                u32::from_le_bytes(b)
            })
            .collect())
    }

    /// Reads a count-prefixed u64 array into an owned Vec.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, StoreError> {
        self.align(8)?;
        let n = self.checked_count(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                u64::from_le_bytes(b)
            })
            .collect())
    }

    /// Reads a count-prefixed f64 array into an owned Vec.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, StoreError> {
        self.align(8)?;
        let n = self.checked_count(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }

    /// Reads a u64 count and validates `count * elem` fits the remaining
    /// bytes (rejecting hostile counts before allocation).
    fn checked_count(&mut self, elem: usize) -> Result<usize, StoreError> {
        let n = usize::try_from(self.u64()?).map_err(|_| malformed("count overflows usize"))?;
        let need = n
            .checked_mul(elem)
            .ok_or_else(|| malformed("count overflows"))?;
        if need > self.bytes.len().saturating_sub(self.pos) {
            return Err(malformed(format!(
                "count {n} needs {need} bytes, {} remain",
                self.bytes.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Asserts the cursor consumed the whole payload — decode and encode
    /// must agree exactly; trailing bytes mean a half-understood section.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(malformed(format!(
                "section has {} undecoded trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sections() -> Vec<(u32, Vec<u8>)> {
        let mut a = SectionWriter::new();
        a.put_u64(7);
        a.put_f64(1.5);
        a.put_f64_slice(&[1.0, -0.0, f64::NAN]);
        let mut b = SectionWriter::new();
        b.put_u32_slice(&[1, 2, 3, u32::MAX]);
        b.put_bool(true);
        vec![(1, a.finish()), (2, b.finish())]
    }

    #[test]
    fn build_parse_round_trip() {
        let sections = sample_sections();
        let img = build_file(&sections, 42);
        // No reserved slack: header + table + each payload rounded to 8.
        let payloads: usize = sections.iter().map(|(_, p)| round8(p.len())).sum();
        assert_eq!(
            img.len(),
            HEADER_LEN + ENTRY_LEN * sections.len() + payloads
        );
        let view = StoreView::parse(&img).unwrap();
        assert_eq!(view.generation(), 42);
        // The header-only poll reads the same stamp from the file.
        let path =
            std::env::temp_dir().join(format!("stage-store-fmt-{}.store", std::process::id()));
        std::fs::write(&path, &img).unwrap();
        assert_eq!(read_generation(&path).unwrap(), 42);
        let _ = std::fs::remove_file(&path);
        assert_eq!(view.section_ids(), vec![1, 2]);
        let mut r = SectionReader::new(view.section(1).unwrap());
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), 1.5);
        let fs = r.f64_vec().unwrap();
        assert_eq!(fs[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(fs[1].to_bits(), (-0.0f64).to_bits());
        assert!(fs[2].is_nan());
        r.expect_end().unwrap();
        let mut r = SectionReader::new(view.section(2).unwrap());
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3, u32::MAX]);
        assert!(r.bool().unwrap());
        r.expect_end().unwrap();
        assert!(view.section(9).is_none());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let img = build_file(&sample_sections(), 1);
        // Exhaustive over a small file: flip every bit, parse must fail.
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    StoreView::parse(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let img = build_file(&sample_sections(), 1);
        for cut in 0..img.len() {
            assert!(
                StoreView::parse(&img[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let img = build_file(&sample_sections(), 1);
        let mut bad = img.clone();
        bad[0] = b'X';
        assert!(matches!(StoreView::parse(&bad), Err(StoreError::BadMagic)));
        let mut bad = img.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        // The header crc notices first unless we recompute it; patch it to
        // isolate the version check.
        let crc = crate::crc32(&bad[..36]);
        bad[36..40].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            StoreView::parse(&bad),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));
    }

    /// Every build before PR 18 reserved `len / 4 + 64` bytes of zeroed
    /// slack per section; those files are on disk and must keep restoring.
    #[test]
    fn images_with_reserved_slack_still_parse() {
        let sections = sample_sections();
        let table_end = HEADER_LEN + ENTRY_LEN * sections.len();
        let mut table = Vec::new();
        let mut body = Vec::new();
        for (id, payload) in &sections {
            let cap = round8(payload.len() + payload.len() / 4 + 64);
            table.extend(encode_entry(
                *id,
                crc32(payload),
                (table_end + body.len()) as u64,
                payload.len() as u64,
                cap as u64,
            ));
            body.extend_from_slice(payload);
            body.resize(body.len() + cap - payload.len(), 0);
        }
        let total = (table_end + body.len()) as u64;
        let mut img = encode_header(sections.len() as u32, 3, total, crc32(&table)).to_vec();
        img.extend(table);
        img.extend(body);
        assert!(img.len() > build_file(&sections, 3).len());

        let view = StoreView::parse(&img).unwrap();
        assert_eq!(view.generation(), 3);
        for (id, payload) in &sections {
            assert_eq!(view.section(*id), Some(payload.as_slice()));
        }
        // The slack is still covered: a stray bit in it is damage.
        let last = img.len() - 1;
        img[last] ^= 1;
        assert!(StoreView::parse(&img).is_err());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A section claiming u64::MAX elements must error out, not OOM.
        let mut w = SectionWriter::new();
        w.put_u64(u64::MAX);
        let payload = w.finish();
        let img = build_file(&[(1, payload)], 0);
        let view = StoreView::parse(&img).unwrap();
        let mut r = SectionReader::new(view.section(1).unwrap());
        assert!(r.f64_vec().is_err());
    }

    #[test]
    fn reader_rejects_trailing_bytes_and_bad_bools() {
        let mut w = SectionWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let payload = w.finish();
        let mut r = SectionReader::new(&payload);
        assert_eq!(r.u32().unwrap(), 1);
        assert!(r.expect_end().is_err());
        assert_eq!(r.remaining(), 4);
        let mut r = SectionReader::new(&[7u8]);
        assert!(r.bool().is_err());
    }
}
