//! The checksummed section-table container shared by the repo's binary
//! formats: `PWSSEG1` index segments, `PWSUSR1` user records and
//! `PWSFLT1` flight dumps.
//!
//! ```text
//! magic           8 raw bytes   (per format, e.g. "PWSUSR1\0")
//! format_version  u32 LE
//! section_count   u32 LE
//! section table   section_count × 28 bytes:
//!     id        u16 LE          (the format's SectionId)
//!     flags     u16 LE          (reserved, must be 0)
//!     offset    u64 LE          (from file start)
//!     len       u64 LE
//!     checksum  u64 LE          (FNV-1a 64 of the section payload)
//! section payloads (contiguous, in table order, nothing after the last)
//! ```
//!
//! This module owns the framing: [`write()`] emits it, [`parse`] validates
//! it (returning each section's byte range, so a caller can slice a
//! shared buffer without copying), and [`Reader`] / [`Writer`] are the
//! bounded little-endian payload primitives. A format is a
//! [`Section`] enum plus its payload codecs; its public error type
//! absorbs [`FrameError`] through one `From` impl. `docs/INDEX_FORMAT.md`
//! ("Container framing") is the byte-level spec.

use crate::hash::fnv1a64;
use std::ops::Range;

/// Byte offset of the section table (magic + version + section count).
pub const TABLE_OFFSET: usize = 8 + 4 + 4;

/// Bytes per section-table entry: id u16 + flags u16 + offset u64 +
/// len u64 + checksum u64.
pub const SECTION_ENTRY_LEN: usize = 28;

/// A format's section enum. Every section in [`ALL`](Self::ALL) is
/// required; ids outside it are rejected.
pub trait Section: Copy + Eq + 'static {
    /// Every section, in canonical file order.
    const ALL: &'static [Self];
    /// The on-disk id.
    fn id(self) -> u16;
    /// Name used in error values and the format's spec.
    fn name(self) -> &'static str;
}

/// A framing failure. Each format converts it into its own error enum
/// (variant for variant), so callers never see this type directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first 8 bytes are not the format's magic.
    BadMagic,
    /// The format version is not the one this reader supports.
    UnsupportedVersion(u32),
    /// The input ends before the named structure is complete.
    Truncated(&'static str),
    /// A section's payload does not match its table checksum.
    ChecksumMismatch(&'static str),
    /// A required section is absent from the table.
    MissingSection(&'static str),
    /// The table names a section id the format does not define.
    UnknownSection(u16),
    /// Structurally invalid framing or payload (named reason).
    Malformed(&'static str),
}

/// Emit a complete container: header, table with checksums, payloads in
/// the given order.
pub fn write<S: Section>(magic: &[u8; 8], version: u32, sections: &[(S, Vec<u8>)]) -> Vec<u8> {
    let table_end = TABLE_OFFSET + sections.len() * SECTION_ENTRY_LEN;
    let total = table_end + sections.iter().map(|(_, p)| p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = table_end as u64;
    for (id, payload) in sections {
        debug_assert!(
            sections.iter().filter(|(s, _)| s == id).count() == 1,
            "duplicate section {}",
            id.name()
        );
        out.extend_from_slice(&id.id().to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    debug_assert_eq!(out.len(), total);
    out
}

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Validate a container — magic, version, table bounds, known and
/// unique ids, zero flags, payloads contiguous in table order from the
/// end of the table to the end of the input, checksums — and return
/// each section's byte range in [`Section::ALL`] order.
///
/// This is the only full pass over the bytes; payloads stay encoded.
pub fn parse<S: Section>(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<Vec<Range<usize>>, FrameError> {
    if bytes.len() < magic.len() {
        return Err(FrameError::Truncated("magic"));
    }
    if &bytes[..magic.len()] != magic {
        return Err(FrameError::BadMagic);
    }
    if bytes.len() < TABLE_OFFSET {
        return Err(FrameError::Truncated("header"));
    }
    let found_version = u32_at(bytes, 8);
    if found_version != version {
        return Err(FrameError::UnsupportedVersion(found_version));
    }
    let count = u32_at(bytes, 12) as usize;
    let table_end = count
        .checked_mul(SECTION_ENTRY_LEN)
        .and_then(|t| t.checked_add(TABLE_OFFSET))
        .ok_or(FrameError::Malformed("section table overflows"))?;
    if bytes.len() < table_end {
        return Err(FrameError::Truncated("section table"));
    }

    let mut ranges: Vec<Option<Range<usize>>> = vec![None; S::ALL.len()];
    let mut next = table_end;
    for at in (TABLE_OFFSET..table_end).step_by(SECTION_ENTRY_LEN) {
        let raw_id = u16_at(bytes, at);
        let slot = S::ALL
            .iter()
            .position(|s| s.id() == raw_id)
            .ok_or(FrameError::UnknownSection(raw_id))?;
        let name = S::ALL[slot].name();
        if u16_at(bytes, at + 2) != 0 {
            return Err(FrameError::Malformed("nonzero section flags"));
        }
        let offset = u64_at(bytes, at + 4) as usize;
        let len = u64_at(bytes, at + 12) as usize;
        let end =
            offset.checked_add(len).ok_or(FrameError::Malformed("section range overflows"))?;
        if offset < table_end || end > bytes.len() {
            return Err(FrameError::Truncated(name));
        }
        if offset != next {
            return Err(FrameError::Malformed("section payload not contiguous"));
        }
        if ranges[slot].is_some() {
            return Err(FrameError::Malformed("duplicate section id"));
        }
        if fnv1a64(&bytes[offset..end]) != u64_at(bytes, at + 20) {
            return Err(FrameError::ChecksumMismatch(name));
        }
        ranges[slot] = Some(offset..end);
        next = end;
    }
    if next != bytes.len() {
        return Err(FrameError::Malformed("trailing bytes after last section"));
    }
    S::ALL.iter().zip(ranges).map(|(s, r)| r.ok_or(FrameError::MissingSection(s.name()))).collect()
}

/// Append-only little-endian payload writer (the inverse of [`Reader`]).
#[derive(Debug, Default)]
pub struct Writer {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u32` LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64` LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its `to_bits()` image, LE (bit-exact round trip).
    pub fn f64bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u32` LE byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounded sequential reader over one section's payload. Every read
/// past the end is [`FrameError::Truncated`] naming the section.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`, the payload of `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader { buf, pos: 0, section }
    }

    /// The section name this reader reports in errors.
    pub fn section(&self) -> &'static str {
        self.section
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Malformed("length overflows"))?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated(self.section));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// `u32` LE.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// `u64` LE.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// `f64` from its LE `to_bits()` image.
    pub fn f64bits(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FrameError::Malformed("invalid utf-8 in string"))
    }

    /// The payload must be fully consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed("trailing bytes in section"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Sec {
        A = 1,
        B = 2,
    }

    impl Section for Sec {
        const ALL: &'static [Sec] = &[Sec::A, Sec::B];
        fn id(self) -> u16 {
            self as u16
        }
        fn name(self) -> &'static str {
            match self {
                Sec::A => "A",
                Sec::B => "B",
            }
        }
    }

    const MAGIC: &[u8; 8] = b"TESTCTR\0";

    fn file() -> Vec<u8> {
        write(MAGIC, 1, &[(Sec::A, vec![1, 2, 3]), (Sec::B, vec![4, 5])])
    }

    #[test]
    fn round_trip_returns_ranges_in_canonical_order() {
        let f = write(MAGIC, 1, &[(Sec::B, vec![4, 5]), (Sec::A, vec![1, 2, 3])]);
        let ranges = parse::<Sec>(&f, MAGIC, 1).expect("parse");
        assert_eq!(&f[ranges[0].clone()], &[1, 2, 3]);
        assert_eq!(&f[ranges[1].clone()], &[4, 5]);
    }

    #[test]
    fn header_errors_are_typed() {
        let f = file();
        assert_eq!(parse::<Sec>(&f[..3], MAGIC, 1), Err(FrameError::Truncated("magic")));
        assert_eq!(parse::<Sec>(&f[..10], MAGIC, 1), Err(FrameError::Truncated("header")));
        assert_eq!(parse::<Sec>(&f, b"OTHERMG\0", 1), Err(FrameError::BadMagic));
        assert_eq!(parse::<Sec>(&f, MAGIC, 2), Err(FrameError::UnsupportedVersion(1)));
        let cut = TABLE_OFFSET + SECTION_ENTRY_LEN;
        assert_eq!(parse::<Sec>(&f[..cut], MAGIC, 1), Err(FrameError::Truncated("section table")));
    }

    #[test]
    fn missing_and_unknown_sections_are_typed() {
        let only_b = write(MAGIC, 1, &[(Sec::B, vec![9])]);
        assert_eq!(parse::<Sec>(&only_b, MAGIC, 1), Err(FrameError::MissingSection("A")));
        let mut unknown = file();
        unknown[TABLE_OFFSET] = 42;
        assert_eq!(parse::<Sec>(&unknown, MAGIC, 1), Err(FrameError::UnknownSection(42)));
    }

    #[test]
    fn reader_bounds_and_trailing_bytes() {
        let mut w = Writer::new();
        w.str("hé");
        w.f64bits(-0.5);
        w.u8(7);
        let mut r = Reader::new(&w.buf, "S");
        assert_eq!(r.str(), Ok("hé"));
        assert_eq!(r.f64bits(), Ok(-0.5));
        assert_eq!(r.remaining(), 1);
        assert_eq!(
            Reader::new(&w.buf, "S").finish(),
            Err(FrameError::Malformed("trailing bytes in section"))
        );
        assert_eq!(r.u32(), Err(FrameError::Truncated("S")));
        assert_eq!(r.take(usize::MAX), Err(FrameError::Malformed("length overflows")));
        let mut bad = Reader::new(&[1, 0, 0, 0, 0xff], "S");
        assert_eq!(bad.str(), Err(FrameError::Malformed("invalid utf-8 in string")));
    }
}
