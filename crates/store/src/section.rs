//! The `SWOP` section table.
//!
//! A snapshot (v2 or v3) is a fixed header, a table of section descriptors, and
//! the section payloads laid out contiguously after the table. Each
//! descriptor is 24 bytes:
//!
//! ```text
//! kind   u32    1 = schema, 2 = column
//! attr   u32    column index for kind 2, 0 otherwise
//! offset u64    absolute byte offset of the payload
//! len    u64    payload length in bytes
//! ```
//!
//! [`validate_sections`] checks the whole table against the actual byte
//! count *before* any payload is touched: offsets must start exactly
//! where the table ends, run contiguously, and finish exactly at the
//! end of the buffer. A reader that survives validation can slice
//! payloads without further bounds checks, and trailing garbage or a
//! descriptor pointing past the file is rejected up front instead of
//! surfacing as a misparse deep inside a section.

use crate::{ByteReader, StoreError};

/// Section kind tag: the schema section (field names, supports,
/// dictionaries). Exactly one per snapshot, first in the table.
pub const SECTION_SCHEMA: u32 = 1;

/// Section kind tag: one column's paged code payload.
pub const SECTION_COLUMN: u32 = 2;

/// Section kind tag: the optional per-page partition sketch (code
/// histograms per 64Ki-row page, own trailing CRC32). At most one per
/// snapshot, last in the table; readers that predate it skip it.
pub const SECTION_SKETCH: u32 = 3;

/// Encoded bytes per section descriptor.
pub const SECTION_ENTRY_BYTES: usize = 24;

/// One section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// [`SECTION_SCHEMA`] or [`SECTION_COLUMN`].
    pub kind: u32,
    /// Column index for column sections, 0 otherwise.
    pub attr: u32,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

impl Section {
    /// Appends the 24-byte descriptor to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&self.attr.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
    }

    /// Parses one descriptor at `r`, advancing it.
    pub fn parse(r: &mut ByteReader<'_>) -> Result<Section, StoreError> {
        let truncated = |_| StoreError::Corrupt("truncated section table".into());
        Ok(Section {
            kind: r.u32().map_err(truncated)?,
            attr: r.u32().map_err(truncated)?,
            offset: r.u64().map_err(truncated)?,
            len: r.u64().map_err(truncated)?,
        })
    }

    /// `offset + len` with overflow detection.
    pub fn end(&self) -> Result<u64, StoreError> {
        self.offset
            .checked_add(self.len)
            .ok_or_else(|| StoreError::Corrupt("section length overflows".into()))
    }
}

/// Validates a parsed table against the real byte count: payloads must
/// start at `body_start` (right after the table), be contiguous, and
/// end exactly at `total_len`.
pub fn validate_sections(
    sections: &[Section],
    body_start: u64,
    total_len: u64,
) -> Result<(), StoreError> {
    let mut cursor = body_start;
    for (i, s) in sections.iter().enumerate() {
        if s.offset != cursor {
            return Err(StoreError::Corrupt(format!(
                "section {i} starts at {} but previous data ends at {cursor}",
                s.offset
            )));
        }
        cursor = s.end()?;
        if cursor > total_len {
            return Err(StoreError::Corrupt(format!(
                "section {i} extends to {cursor} past the {total_len}-byte snapshot"
            )));
        }
    }
    if cursor != total_len {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after last section",
            total_len - cursor
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_round_trips() {
        let s = Section { kind: SECTION_COLUMN, attr: 7, offset: 1234, len: 99 };
        let mut bytes = Vec::new();
        s.write_into(&mut bytes);
        assert_eq!(bytes.len(), SECTION_ENTRY_BYTES);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Section::parse(&mut r).unwrap(), s);
        assert_eq!(r.remaining(), 0);
        assert!(Section::parse(&mut r).is_err());
    }

    #[test]
    fn validation_accepts_contiguous_layout() {
        let sections = [
            Section { kind: SECTION_SCHEMA, attr: 0, offset: 100, len: 20 },
            Section { kind: SECTION_COLUMN, attr: 0, offset: 120, len: 30 },
        ];
        assert!(validate_sections(&sections, 100, 150).is_ok());
    }

    #[test]
    fn validation_rejects_gaps_overlaps_and_overruns() {
        let schema = Section { kind: SECTION_SCHEMA, attr: 0, offset: 100, len: 20 };
        // Gap between sections.
        let gap = [schema, Section { kind: SECTION_COLUMN, attr: 0, offset: 125, len: 10 }];
        assert!(validate_sections(&gap, 100, 135).is_err());
        // Overlap.
        let overlap = [schema, Section { kind: SECTION_COLUMN, attr: 0, offset: 110, len: 10 }];
        assert!(validate_sections(&overlap, 100, 120).is_err());
        // Extends past the buffer.
        assert!(validate_sections(&[schema], 100, 110).is_err());
        // Trailing bytes after the last section.
        assert!(validate_sections(&[schema], 100, 200).is_err());
        // First section not at body start.
        assert!(validate_sections(&[schema], 90, 120).is_err());
        // Length overflow.
        let huge = [Section { kind: SECTION_SCHEMA, attr: 0, offset: u64::MAX, len: 2 }];
        assert!(validate_sections(&huge, u64::MAX, u64::MAX).is_err());
    }
}
