//! A test-only encoder of the v2 snapshot format: a v3 encoding with the
//! layout seed taken out of the schema section and every page put back
//! in row order, each page's CRC recomputed. Nothing in the workspace
//! writes v2 any more; the reader still takes it, and these bytes are
//! what it is tested on.
//!
//! Included by path wherever a test needs v2 input, so it names only
//! `swope_store` and `swope_sampling`, which every includer depends on.

use swope_sampling::PageLayout;
use swope_store::crc32::crc32;
use swope_store::page::{page_offset, read_u32, PAGE_HEADER_BYTES, PAGE_ROWS};
use swope_store::section::{SECTION_COLUMN, SECTION_ENTRY_BYTES};
use swope_store::Width;

/// Bytes before the section table.
const HEADER_BYTES: usize = 12;

/// The v3 schema section's layout seed: after `h u32` and `N u64`.
const SEED_AT: usize = 12;

/// The v2 encoding of the dataset whose v3 encoding is `v3`.
pub fn v2_of(v3: &[u8]) -> Vec<u8> {
    let u64_at = |at: usize| u64::from_le_bytes(v3[at..at + 8].try_into().unwrap()) as usize;
    let count = read_u32(v3, 8) as usize;
    let entry = |i: usize| HEADER_BYTES + i * SECTION_ENTRY_BYTES;
    let (schema_at, schema_len) = (u64_at(entry(0) + 8), u64_at(entry(0) + 16));
    let layout = PageLayout::of(u64_at(schema_at + 4));

    let mut out = v3[..HEADER_BYTES].to_vec();
    out[4..6].copy_from_slice(&2u16.to_le_bytes());
    for i in 0..count {
        // Every section after the schema moves up by the seed's 8 bytes,
        // and the schema shrinks by them.
        let (offset, len) = (u64_at(entry(i) + 8), u64_at(entry(i) + 16));
        let (offset, len) = if i == 0 { (offset, len - 8) } else { (offset - 8, len) };
        out.extend_from_slice(&v3[entry(i)..entry(i) + 8]);
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
    }
    let body =
        [&v3[schema_at..schema_at + SEED_AT], &v3[schema_at + SEED_AT + 8..][..schema_len - 24]]
            .concat();
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    for i in 1..count {
        let (at, len) = (u64_at(entry(i) + 8), u64_at(entry(i) + 16));
        let section = &v3[at..at + len];
        match read_u32(v3, entry(i)) {
            SECTION_COLUMN => out.extend_from_slice(&in_row_order(section, &layout)),
            _ => out.extend_from_slice(section),
        }
    }
    out
}

/// A v3 column section (width tag, then the page stream) with every
/// page's codes moved from slot order to row order.
fn in_row_order(section: &[u8], layout: &PageLayout) -> Vec<u8> {
    let width = Width::from_tag(section[0]).expect("a valid width tag");
    let w = width.bytes();
    let mut out = section.to_vec();
    let deltas = layout.row_deltas();
    for page in 0..read_u32(section, 1 + 4) as usize {
        let at = 1 + page_offset(layout.grid(), page, width);
        let rows = read_u32(section, at) as usize;
        let payload = at + PAGE_HEADER_BYTES;
        for slot in 0..rows {
            // Slot `s` holds in-page row `s ^ delta`.
            let row = slot ^ usize::from(deltas[page * PAGE_ROWS + slot]);
            out[payload + row * w..][..w].copy_from_slice(&section[payload + slot * w..][..w]);
        }
        let crc = crc32(&out[payload..payload + rows * w]);
        out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
    out
}
