//! Paged column payload codec for `SWOP` column sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! page_rows  u32            rows per full page: always PAGE_ROWS
//! page_count u32
//! page*page_count:
//!   rows u32                rows in this page (== page_rows but a lead or last page)
//!   crc  u32                IEEE CRC32 of the payload bytes
//!   payload rows × width bytes, codes little-endian
//! ```
//!
//! Which positions each page holds is a [`PageGrid`]: every page holds
//! `PAGE_ROWS` of them, except that the first may *lead* with fewer and
//! the last may end short. A column of its own has no lead. A slice of a
//! larger table's rows leads with what is left of the table's page it
//! starts in, so its pages are the table's pages.
//!
//! The encoded length is a pure function of `(grid, width)`, which is
//! what lets the snapshot writer emit a complete section table *before*
//! streaming any page. Readers check that arithmetic against the actual
//! byte count before allocating or touching anything ([`check_stream`]).

use std::io::{self, Write};
use std::ops::Range;

use crate::crc32::crc32;
use crate::{for_packed, CodeRepr, PackedCodes, StoreError, Width};

/// Rows per full page: 64Ki rows is 64 KiB at `u8` and 256 KiB at
/// `u32` — big enough that the per-page 8-byte header and CRC pass are
/// noise, small enough that a checksum failure localizes corruption.
pub const PAGE_ROWS: usize = 1 << 16;

/// Bytes of the page-stream header (`page_rows` + `page_count`).
pub const STREAM_HEADER_BYTES: usize = 8;

/// Per-page overhead bytes (`rows` + `crc`).
pub const PAGE_HEADER_BYTES: usize = 8;

/// Where a column's positions fall into pages: on a virtual origin
/// `lead` positions before position 0, page `j` holds the positions of
/// `j·PAGE_ROWS .. (j+1)·PAGE_ROWS`, cut to the column's `rows`. So the
/// first page holds `PAGE_ROWS − lead` positions, every other page is
/// `PAGE_ROWS`-aligned on the virtual origin, and storage stays
/// contiguous. A page's *slots* are its virtual in-page offsets: the
/// first page's start at `lead`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageGrid {
    rows: usize,
    lead: usize,
}

impl PageGrid {
    /// The pages of `rows` positions led by `lead`. An empty column has
    /// no page, and so no lead.
    ///
    /// # Panics
    ///
    /// If `lead` is not below `PAGE_ROWS`.
    pub fn new(rows: usize, lead: usize) -> Self {
        assert!(lead < PAGE_ROWS, "a lead of {lead} positions is a page or more");
        Self { rows, lead: if rows == 0 { 0 } else { lead } }
    }

    /// The pages of a column of its own: no lead.
    pub fn whole(rows: usize) -> Self {
        Self::new(rows, 0)
    }

    /// Positions on the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slots the first page lacks.
    pub fn lead(&self) -> usize {
        self.lead
    }

    /// Pages on the grid.
    pub fn count(&self) -> usize {
        (self.rows + self.lead).div_ceil(PAGE_ROWS)
    }

    /// The page position `position` lies on.
    #[inline]
    pub fn page_of(&self, position: usize) -> usize {
        (position + self.lead) / PAGE_ROWS
    }

    /// The pages that hold `positions`: none for an empty range.
    pub fn pages_of(&self, positions: Range<usize>) -> Range<usize> {
        if positions.is_empty() {
            return 0..0;
        }
        self.page_of(positions.start)..self.page_of(positions.end - 1) + 1
    }

    /// The positions page `page` holds; past the last page, an empty
    /// range at the end.
    #[inline]
    pub fn span(&self, page: usize) -> Range<usize> {
        let at = |page: usize| (page * PAGE_ROWS).saturating_sub(self.lead).min(self.rows);
        at(page)..at(page + 1)
    }

    /// The slot page `page` starts at: the lead on the first page, 0 on
    /// any other.
    #[inline]
    pub fn first_slot(&self, page: usize) -> usize {
        if page == 0 {
            self.lead
        } else {
            0
        }
    }
}

/// Exact encoded size of a column payload of `grid`'s positions at
/// `width`.
pub fn encoded_len(grid: PageGrid, width: Width) -> usize {
    STREAM_HEADER_BYTES + grid.count() * PAGE_HEADER_BYTES + grid.rows() * width.bytes()
}

/// Streams a paged payload of `grid`'s positions at `width` to `w`,
/// reusing one page-sized scratch buffer: `fill(span, payload)` appends
/// the little-endian codes at positions `span`, one page at a time, in
/// order. Emits exactly [`encoded_len`] bytes.
///
/// # Panics
///
/// If `fill` appends other than one code of `width` per position.
pub fn write_pages<W: Write>(
    grid: PageGrid,
    width: Width,
    w: &mut W,
    mut fill: impl FnMut(Range<usize>, &mut Vec<u8>),
) -> io::Result<()> {
    w.write_all(&(PAGE_ROWS as u32).to_le_bytes())?;
    w.write_all(&(grid.count() as u32).to_le_bytes())?;
    let mut payload = Vec::with_capacity(PAGE_ROWS.min(grid.rows()) * width.bytes());
    for page in 0..grid.count() {
        let span = grid.span(page);
        payload.clear();
        fill(span.clone(), &mut payload);
        assert_eq!(payload.len(), span.len() * width.bytes(), "page {page}: one code a position");
        w.write_all(&(span.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
    }
    Ok(())
}

/// Encodes `codes` as a paged payload on `grid` into a fresh buffer.
///
/// # Panics
///
/// If `grid` does not hold one position per code.
pub fn encode_pages(codes: &PackedCodes, grid: PageGrid) -> Vec<u8> {
    assert_eq!(grid.rows(), codes.len(), "one position per code");
    let mut out = Vec::with_capacity(encoded_len(grid, codes.width()));
    write_pages(grid, codes.width(), &mut out, |span, payload| {
        for_packed!(codes, |codes| CodeRepr::extend_le_bytes(&codes[span], payload))
    })
    .expect("Vec writes are infallible");
    out
}

/// Byte offset of page `index`'s header within a page stream on `grid`
/// at `width` (every page's length follows from the grid, so offsets are
/// pure arithmetic).
pub fn page_offset(grid: PageGrid, index: usize, width: Width) -> usize {
    STREAM_HEADER_BYTES + index * PAGE_HEADER_BYTES + grid.span(index).start * width.bytes()
}

/// Validates the structure of a page stream holding exactly `grid`'s
/// codes at `width` — the stream header, the length arithmetic against
/// `bytes.len()`, and every page header's row count — without reading a
/// payload byte, and returns the page count. Every reader of a stream
/// (the eager [`decode_pages`], `swope-pager`'s lazy `PagedColumn`)
/// starts here, so a corrupted header can neither trigger an oversized
/// allocation nor put a page at an offset the arithmetic does not expect.
pub fn check_stream(bytes: &[u8], grid: PageGrid, width: Width) -> Result<usize, StoreError> {
    if bytes.len() < STREAM_HEADER_BYTES {
        return Err(StoreError::Corrupt("truncated page stream".into()));
    }
    let page_rows = read_u32(bytes, 0) as usize;
    let page_count = read_u32(bytes, 4) as usize;
    if page_rows != PAGE_ROWS {
        return Err(StoreError::Corrupt(format!(
            "page size of {page_rows} rows, expected {PAGE_ROWS}"
        )));
    }
    let rows = grid.rows();
    if page_count != grid.count() {
        return Err(StoreError::Corrupt(format!(
            "page count {page_count} disagrees with {rows} rows"
        )));
    }
    // In u64, for 32-bit targets: `rows` is below 2^48 once the page
    // count (a u32) agrees with it, so nothing here overflows.
    let need = STREAM_HEADER_BYTES as u64
        + page_count as u64 * PAGE_HEADER_BYTES as u64
        + rows as u64 * width.bytes() as u64;
    if bytes.len() as u64 != need {
        return Err(StoreError::Corrupt(format!(
            "column payload is {} bytes, expected {need}",
            bytes.len()
        )));
    }
    for page in 0..page_count {
        let expect = grid.span(page).len();
        let got = read_u32(bytes, page_offset(grid, page, width)) as usize;
        if got != expect {
            return Err(StoreError::Corrupt(format!("page {page}: invalid row count {got}")));
        }
    }
    Ok(page_count)
}

/// Decodes a paged payload of exactly `grid`'s codes at `width`:
/// [`check_stream`], then every page's CRC is verified before its codes
/// are appended.
pub fn decode_pages(bytes: &[u8], grid: PageGrid, width: Width) -> Result<PackedCodes, StoreError> {
    let page_count = check_stream(bytes, grid, width)?;
    let expect_rows = grid.rows();
    let mut out = match width {
        Width::U8 => PackedCodes::U8(Vec::with_capacity(expect_rows)),
        Width::U16 => PackedCodes::U16(Vec::with_capacity(expect_rows)),
        Width::U32 => PackedCodes::U32(Vec::with_capacity(expect_rows)),
    };
    for page in 0..page_count {
        let at = page_offset(grid, page, width);
        let rows = read_u32(bytes, at) as usize;
        let payload = &bytes[at + PAGE_HEADER_BYTES..][..rows * width.bytes()];
        if crc32(payload) != read_u32(bytes, at + 4) {
            return Err(StoreError::Corrupt(format!("page {page}: checksum mismatch")));
        }
        match &mut out {
            PackedCodes::U8(v) => CodeRepr::extend_from_le_bytes(payload, v),
            PackedCodes::U16(v) => CodeRepr::extend_from_le_bytes(payload, v),
            PackedCodes::U32(v) => CodeRepr::extend_from_le_bytes(payload, v),
        }
    }
    Ok(out)
}

/// The little-endian `u32` at `off`. Panics if out of range.
pub fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("sliced to 4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(width: Width, rows: usize) -> PackedCodes {
        let codes: Vec<u32> = (0..rows as u32).map(|i| (i * 31 + 7) % 200).collect();
        PackedCodes::pack(&codes, width)
    }

    #[test]
    fn round_trips_all_widths_and_page_boundaries() {
        for width in [Width::U8, Width::U16, Width::U32] {
            for rows in [0, 1, PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1, 2 * PAGE_ROWS + 37] {
                let codes = sample(width, rows);
                for lead in [0, 1, PAGE_ROWS - 1] {
                    let grid = PageGrid::new(rows, lead);
                    let bytes = encode_pages(&codes, grid);
                    assert_eq!(bytes.len(), encoded_len(grid, width), "{width} x {rows}");
                    let back = decode_pages(&bytes, grid, width).unwrap();
                    assert_eq!(back, codes, "{width} x {rows}, lead {lead}");
                    // A lead moves the page ends only if the rows pass one.
                    if lead > 0 && rows > PAGE_ROWS - lead {
                        let whole = PageGrid::whole(rows);
                        assert!(decode_pages(&bytes, whole, width).is_err(), "{grid:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_grid_leads_with_the_rest_of_its_first_page() {
        let grid = PageGrid::new(2 * PAGE_ROWS, 100);
        assert_eq!(grid.count(), 3);
        assert_eq!(grid.span(0), 0..PAGE_ROWS - 100);
        assert_eq!(grid.span(1), PAGE_ROWS - 100..2 * PAGE_ROWS - 100);
        assert_eq!(grid.span(2), 2 * PAGE_ROWS - 100..2 * PAGE_ROWS);
        assert_eq!(grid.span(3), 2 * PAGE_ROWS..2 * PAGE_ROWS);
        assert_eq!((grid.first_slot(0), grid.first_slot(1)), (100, 0));
        assert_eq!((grid.page_of(PAGE_ROWS - 101), grid.page_of(PAGE_ROWS - 100)), (0, 1));
        assert_eq!(grid.pages_of(5..PAGE_ROWS), 0..2);
        assert_eq!(grid.pages_of(7..7), 0..0);
        assert_eq!(PageGrid::new(0, 100), PageGrid::whole(0));
        assert_eq!(PageGrid::new(10, 100).span(0), 0..10);
    }

    #[test]
    fn rejects_any_single_byte_corruption_of_payload() {
        let codes = sample(Width::U16, 1000);
        let bytes = encode_pages(&codes, PageGrid::whole(codes.len()));
        // Corrupting any byte must never be silently accepted as
        // *different* codes. Bytes 0..4 are the page_rows hint, which
        // does not influence the decoded payload — corruption there may
        // decode, but only to the identical code sequence; everything
        // else must be rejected by a structural check or a page CRC.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            match decode_pages(&corrupt, PageGrid::whole(1000), Width::U16) {
                Err(_) => {}
                Ok(got) if i < 4 => assert_eq!(got, codes, "byte {i} changed decoded codes"),
                Ok(_) => panic!("corruption at byte {i} undetected"),
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let codes = sample(Width::U8, 300);
        let bytes = encode_pages(&codes, PageGrid::whole(codes.len()));
        for cut in 0..bytes.len() {
            assert!(
                decode_pages(&bytes[..cut], PageGrid::whole(300), Width::U8).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let codes = sample(Width::U8, 100);
        let bytes = encode_pages(&codes, PageGrid::whole(codes.len()));
        assert!(decode_pages(&bytes, PageGrid::whole(99), Width::U8).is_err());
        assert!(decode_pages(&bytes, PageGrid::whole(101), Width::U8).is_err());
        assert!(decode_pages(&bytes, PageGrid::whole(100), Width::U16).is_err());
    }

    #[test]
    fn rejects_oversized_declared_pages_without_allocating() {
        // A header declaring u32::MAX pages must fail the length check,
        // not attempt an allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(PAGE_ROWS as u32).to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_pages(&bytes, PageGrid::whole(usize::MAX >> 8), Width::U32).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let codes = sample(Width::U8, 10);
        let mut bytes = encode_pages(&codes, PageGrid::whole(codes.len()));
        bytes.push(0);
        assert!(decode_pages(&bytes, PageGrid::whole(10), Width::U8).is_err());
    }
}
