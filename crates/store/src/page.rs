//! Paged column payload codec for `SWOP` column sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! page_rows  u32            rows per full page: always PAGE_ROWS
//! page_count u32
//! page*page_count:
//!   rows u32                rows in this page (== page_rows except last)
//!   crc  u32                IEEE CRC32 of the payload bytes
//!   payload rows × width bytes, codes little-endian
//! ```
//!
//! The encoded length is a pure function of `(rows, width)`, which is
//! what lets the snapshot writer emit a complete section table *before*
//! streaming any page. Readers check that arithmetic against the actual
//! byte count before allocating or touching anything ([`check_stream`]).

use std::io::{self, Write};

use crate::crc32::crc32;
use crate::{CodeRepr, PackedCodes, StoreError, Width};

/// Rows per full page: 64Ki rows is 64 KiB at `u8` and 256 KiB at
/// `u32` — big enough that the per-page 8-byte header and CRC pass are
/// noise, small enough that a checksum failure localizes corruption.
pub const PAGE_ROWS: usize = 1 << 16;

/// Bytes of the page-stream header (`page_rows` + `page_count`).
pub const STREAM_HEADER_BYTES: usize = 8;

/// Per-page overhead bytes (`rows` + `crc`).
pub const PAGE_HEADER_BYTES: usize = 8;

/// Exact encoded size of a column payload of `rows` codes at `width`.
pub fn encoded_len(rows: usize, width: Width) -> usize {
    let pages = rows.div_ceil(PAGE_ROWS);
    STREAM_HEADER_BYTES + pages * PAGE_HEADER_BYTES + rows * width.bytes()
}

/// Streams `codes` as a paged payload to `w`, each page's codes in
/// stored order, reusing one page-sized scratch buffer; emits exactly
/// [`encoded_len`] bytes.
pub fn write_pages<W: Write>(codes: &PackedCodes, w: &mut W) -> io::Result<()> {
    let n = codes.len();
    let pages = n.div_ceil(PAGE_ROWS);
    w.write_all(&(PAGE_ROWS as u32).to_le_bytes())?;
    w.write_all(&(pages as u32).to_le_bytes())?;
    let mut payload = Vec::with_capacity(PAGE_ROWS.min(n) * codes.width().bytes());
    for start in (0..n).step_by(PAGE_ROWS) {
        let rows = (n - start).min(PAGE_ROWS);
        payload.clear();
        codes.extend_le_range(start, rows, &mut payload);
        w.write_all(&(rows as u32).to_le_bytes())?;
        w.write_all(&crc32(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
    }
    Ok(())
}

/// Encodes `codes` as a paged payload into a fresh buffer.
pub fn encode_pages(codes: &PackedCodes) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(codes.len(), codes.width()));
    write_pages(codes, &mut out).expect("Vec writes are infallible");
    out
}

/// Byte offset of page `index`'s header within a page stream at `width`
/// (every page before the last is full, so offsets are pure arithmetic).
pub fn page_offset(index: usize, width: Width) -> usize {
    STREAM_HEADER_BYTES + index * (PAGE_HEADER_BYTES + PAGE_ROWS * width.bytes())
}

/// Validates the structure of a page stream holding exactly `rows` codes
/// at `width` — the stream header, the length arithmetic against
/// `bytes.len()`, and every page header's row count — without reading a
/// payload byte, and returns the page count. Every reader of a stream
/// (the eager [`decode_pages`], `swope-pager`'s lazy `PagedColumn`)
/// starts here, so a corrupted header can neither trigger an oversized
/// allocation nor put a page at an offset the arithmetic does not expect.
pub fn check_stream(bytes: &[u8], rows: usize, width: Width) -> Result<usize, StoreError> {
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
    if page_count != rows.div_ceil(PAGE_ROWS) {
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
        let expect = (rows - page * PAGE_ROWS).min(PAGE_ROWS);
        let got = read_u32(bytes, page_offset(page, width)) as usize;
        if got != expect {
            return Err(StoreError::Corrupt(format!("page {page}: invalid row count {got}")));
        }
    }
    Ok(page_count)
}

/// Decodes a paged payload of exactly `expect_rows` codes at `width`:
/// [`check_stream`], then every page's CRC is verified before its codes
/// are appended.
pub fn decode_pages(
    bytes: &[u8],
    expect_rows: usize,
    width: Width,
) -> Result<PackedCodes, StoreError> {
    let page_count = check_stream(bytes, expect_rows, width)?;
    let mut out = match width {
        Width::U8 => PackedCodes::U8(Vec::with_capacity(expect_rows)),
        Width::U16 => PackedCodes::U16(Vec::with_capacity(expect_rows)),
        Width::U32 => PackedCodes::U32(Vec::with_capacity(expect_rows)),
    };
    for page in 0..page_count {
        let at = page_offset(page, width);
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
                let bytes = encode_pages(&codes);
                assert_eq!(bytes.len(), encoded_len(rows, width), "{width} x {rows}");
                let back = decode_pages(&bytes, rows, width).unwrap();
                assert_eq!(back, codes, "{width} x {rows}");
            }
        }
    }

    #[test]
    fn rejects_any_single_byte_corruption_of_payload() {
        let codes = sample(Width::U16, 1000);
        let bytes = encode_pages(&codes);
        // Corrupting any byte must never be silently accepted as
        // *different* codes. Bytes 0..4 are the page_rows hint, which
        // does not influence the decoded payload — corruption there may
        // decode, but only to the identical code sequence; everything
        // else must be rejected by a structural check or a page CRC.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            match decode_pages(&corrupt, 1000, Width::U16) {
                Err(_) => {}
                Ok(got) if i < 4 => assert_eq!(got, codes, "byte {i} changed decoded codes"),
                Ok(_) => panic!("corruption at byte {i} undetected"),
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let codes = sample(Width::U8, 300);
        let bytes = encode_pages(&codes);
        for cut in 0..bytes.len() {
            assert!(decode_pages(&bytes[..cut], 300, Width::U8).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let codes = sample(Width::U8, 100);
        let bytes = encode_pages(&codes);
        assert!(decode_pages(&bytes, 99, Width::U8).is_err());
        assert!(decode_pages(&bytes, 101, Width::U8).is_err());
        assert!(decode_pages(&bytes, 100, Width::U16).is_err());
    }

    #[test]
    fn rejects_oversized_declared_pages_without_allocating() {
        // A header declaring u32::MAX pages must fail the length check,
        // not attempt an allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(PAGE_ROWS as u32).to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_pages(&bytes, usize::MAX >> 8, Width::U32).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let codes = sample(Width::U8, 10);
        let mut bytes = encode_pages(&codes);
        bytes.push(0);
        assert!(decode_pages(&bytes, 10, Width::U8).is_err());
    }
}
