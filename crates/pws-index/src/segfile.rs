//! On-disk segment file format: header, section table, checksums.
//!
//! A segment file is the unit of index persistence (see
//! `docs/INDEX_FORMAT.md` for the byte-level specification and a worked
//! hexdump example — check.sh keeps the section list there in sync with
//! [`SectionId`]). The framing is the shared section-table container
//! ([`pws_obs::container`], magic [`SEGMENT_MAGIC`]), so a reader can
//! locate and validate every section **without decoding postings or
//! documents**.
//!
//! Every load failure is a typed [`SegmentError`] — corrupted, truncated,
//! or wrong-version files must never panic the loader.

use pws_obs::container::{self, FrameError, Section};
use std::ops::Range;

/// File magic: identifies a pws segment file, independent of version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PWSSEG1\0";

/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Section identifiers.
///
/// The variant list is mirrored byte-for-byte in `docs/INDEX_FORMAT.md`;
/// `scripts/check.sh` fails if the two drift apart. Ids 8+ are reserved
/// for future sections (e.g. positions) — unknown ids are rejected by
/// version-1 readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum SectionId {
    /// Corpus statistics + analyzer configuration.
    Meta = 1,
    /// Term dictionary (term ord = position).
    Terms = 2,
    /// Per-term block table: doc ranges, max tf, min doc length, payload
    /// lengths. Everything Block-Max WAND needs without touching payloads.
    BlockMax = 3,
    /// Concatenated block payloads (delta-varint doc ids + tfs).
    Postings = 4,
    /// Fixed-width (u64 LE) byte offsets of each document record.
    DocIndex = 5,
    /// Document store: per-doc url/title/body records.
    Docs = 6,
    /// Per-document token counts (varint).
    DocLens = 7,
}

impl SectionId {
    /// All sections a version-1 segment must contain, in payload order.
    pub const ALL: [SectionId; 7] = [
        SectionId::Meta,
        SectionId::Terms,
        SectionId::BlockMax,
        SectionId::Postings,
        SectionId::DocIndex,
        SectionId::Docs,
        SectionId::DocLens,
    ];

    /// Human-readable name (used in error messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "Meta",
            SectionId::Terms => "Terms",
            SectionId::BlockMax => "BlockMax",
            SectionId::Postings => "Postings",
            SectionId::DocIndex => "DocIndex",
            SectionId::Docs => "Docs",
            SectionId::DocLens => "DocLens",
        }
    }
}

impl Section for SectionId {
    const ALL: &'static [SectionId] = &SectionId::ALL;
    fn id(self) -> u16 {
        self as u16
    }
    fn name(self) -> &'static str {
        self.name()
    }
}

/// Typed segment-load error. Loading a corrupted, truncated, or
/// wrong-version file returns one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// File I/O failed (open/read/write).
    Io(String),
    /// The first 8 bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this reader.
    UnsupportedVersion(u32),
    /// The file ends before the named structure is complete.
    Truncated(&'static str),
    /// A section's FNV-1a checksum does not match its payload.
    ChecksumMismatch(&'static str),
    /// A required section is absent from the section table.
    MissingSection(&'static str),
    /// The section table references an unknown section id.
    UnknownSection(u16),
    /// A section payload is structurally invalid (named reason).
    Malformed(&'static str),
    /// Segments being combined disagree (analyzer config, statistics).
    Mismatch(&'static str),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment format version {v} (reader supports {FORMAT_VERSION})")
            }
            SegmentError::Truncated(what) => write!(f, "truncated segment file at {what}"),
            SegmentError::ChecksumMismatch(s) => {
                write!(f, "checksum mismatch in section {s}")
            }
            SegmentError::MissingSection(s) => write!(f, "missing section {s}"),
            SegmentError::UnknownSection(id) => write!(f, "unknown section id {id}"),
            SegmentError::Malformed(what) => write!(f, "malformed segment: {what}"),
            SegmentError::Mismatch(what) => write!(f, "segment mismatch: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<FrameError> for SegmentError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => SegmentError::BadMagic,
            FrameError::UnsupportedVersion(v) => SegmentError::UnsupportedVersion(v),
            FrameError::Truncated(what) => SegmentError::Truncated(what),
            FrameError::ChecksumMismatch(s) => SegmentError::ChecksumMismatch(s),
            FrameError::MissingSection(s) => SegmentError::MissingSection(s),
            FrameError::UnknownSection(id) => SegmentError::UnknownSection(id),
            FrameError::Malformed(what) => SegmentError::Malformed(what),
        }
    }
}

/// Validate a segment file's framing (magic, version, section table,
/// layout, checksums) and return the byte range of each of the seven
/// required sections, in [`SectionId::ALL`] order. Payload contents
/// (postings blocks, documents) are left encoded.
pub fn parse_sections(file: &[u8]) -> Result<Vec<Range<usize>>, SegmentError> {
    Ok(container::parse::<SectionId>(file, SEGMENT_MAGIC, FORMAT_VERSION)?)
}

/// Emit a complete segment file: header, section table, then the
/// payloads in the given order.
pub fn write_sections(sections: &[(SectionId, Vec<u8>)]) -> Vec<u8> {
    container::write(SEGMENT_MAGIC, FORMAT_VERSION, sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_file() -> Vec<u8> {
        let sections: Vec<_> =
            SectionId::ALL.iter().map(|&id| (id, vec![id as u8; (id as usize) * 3])).collect();
        write_sections(&sections)
    }

    #[test]
    fn write_parse_round_trip() {
        let f = tiny_file();
        let sections = parse_sections(&f).expect("parse");
        assert_eq!(sections.len(), SectionId::ALL.len());
        for (r, want) in sections.iter().zip(SectionId::ALL) {
            assert_eq!(f[r.clone()], vec![want as u8; (want as usize) * 3]);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut f = tiny_file();
        f[0] ^= 0xFF;
        assert_eq!(parse_sections(&f), Err(SegmentError::BadMagic));
        assert_eq!(parse_sections(b"PW"), Err(SegmentError::Truncated("magic")));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut f = tiny_file();
        f[8] = 99;
        assert_eq!(parse_sections(&f), Err(SegmentError::UnsupportedVersion(99)));
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let f = tiny_file();
        for cut in 0..f.len() {
            assert!(parse_sections(&f[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn payload_corruption_is_checksum_mismatch() {
        let f = tiny_file();
        let sections = parse_sections(&f).expect("parse");
        let mut corrupt = f.clone();
        corrupt[sections[0].start] ^= 0xFF;
        assert_eq!(
            parse_sections(&corrupt),
            Err(SegmentError::ChecksumMismatch("Meta"))
        );
    }

    #[test]
    fn missing_section_detected() {
        let sections: Vec<_> = SectionId::ALL[1..].iter().map(|&id| (id, Vec::new())).collect();
        assert_eq!(
            parse_sections(&write_sections(&sections)),
            Err(SegmentError::MissingSection("Meta"))
        );
    }

    #[test]
    fn unknown_section_id_rejected() {
        let f = tiny_file();
        let mut bad = f.clone();
        // First table entry's id → 42.
        bad[container::TABLE_OFFSET] = 42;
        bad[container::TABLE_OFFSET + 1] = 0;
        assert_eq!(parse_sections(&bad), Err(SegmentError::UnknownSection(42)));
    }

    #[test]
    fn errors_display() {
        for e in [
            SegmentError::Io("x".into()),
            SegmentError::BadMagic,
            SegmentError::UnsupportedVersion(9),
            SegmentError::Truncated("Meta"),
            SegmentError::ChecksumMismatch("Docs"),
            SegmentError::MissingSection("Terms"),
            SegmentError::UnknownSection(8),
            SegmentError::Malformed("x"),
            SegmentError::Mismatch("analyzer"),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
