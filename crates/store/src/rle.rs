//! Cold-page re-encoding for the pager: run-length and palette
//! bit-packing codecs over one decoded page of codes.
//!
//! When the page cache evicts a decoded page it can keep a compressed
//! form instead of dropping to the mapping entirely, so a refetch costs
//! a decode rather than a (possibly cold) disk read plus CRC pass. Two
//! shapes pay for themselves on real columns:
//!
//! * **RLE** — skewed or clustered codes collapse into few runs
//!   (`[run_count][code u32, len u32]*`). A constant page is 12 bytes.
//! * **Palette** — a page drawing from `d` distinct codes stores the
//!   sorted palette once and each row as a `ceil(log2 d)`-bit index
//!   (`[d][palette u32 × d][packed indices]`).
//!
//! The *pick rule* ([`pick_encoding`]) chooses per page from the page's
//! sketch histogram (distinct count + row count) without touching the
//! decoded codes; [`compress`] applies the pick and keeps the result
//! only when it actually beats half the plain bytes — otherwise the
//! eviction falls back to dropping the page cold. Both codecs round-trip
//! bit-exactly: [`decompress`] rebuilds the identical [`PackedCodes`],
//! which is what keeps budget-constrained query results bitwise equal to
//! heap-mode results.

use crate::{for_packed, Code, CodeRepr, PackedCodes, StoreError, Width};

/// Per-page storage choice for an evicted page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEncoding {
    /// Not worth re-encoding: drop cold on eviction.
    Plain,
    /// Run-length pairs; wins on constant/clustered pages.
    Rle,
    /// Sorted distinct-code palette plus bit-packed indices; wins on
    /// small-support pages whose codes are shuffled.
    Palette,
}

/// Palettes beyond this many distinct codes are never attempted: the
/// index width approaches the plain width and the win evaporates.
const MAX_PALETTE: usize = 1 << 12;

/// Widest code span (`max − min + 1` on the page) the palette encoder
/// indexes directly, which bounds its lookup table at 512 KiB. Every
/// `u8`/`u16` page fits; a `u32` page spread wider than this takes the
/// per-row search of [`encode_palette_sparse`] instead.
const MAX_PALETTE_RANGE: usize = 1 << 18;

/// Chooses a page's eviction encoding from its sketch histogram: the
/// number of distinct codes on the page and the page's row count, plus
/// the column's plain storage width. Never reads the codes themselves.
pub fn pick_encoding(distinct: usize, rows: usize, width: Width) -> PageEncoding {
    if rows == 0 || distinct == 0 {
        return PageEncoding::Plain;
    }
    if distinct == 1 {
        return PageEncoding::Rle;
    }
    let plain = rows * width.bytes();
    if distinct <= MAX_PALETTE {
        let bits = ceil_log2(distinct);
        let palette_bytes = 4 + distinct * 4 + (rows * bits).div_ceil(8);
        if palette_bytes * 2 <= plain {
            return PageEncoding::Palette;
        }
    }
    PageEncoding::Plain
}

/// A page re-encoded for cold storage. Holds everything needed to
/// rebuild the exact [`PackedCodes`] it came from.
#[derive(Debug, Clone)]
pub struct CompressedPage {
    encoding: PageEncoding,
    width: Width,
    rows: usize,
    bytes: Vec<u8>,
}

impl CompressedPage {
    /// Bytes the compressed form occupies.
    pub fn bytes_len(&self) -> usize {
        self.bytes.len()
    }

    /// Rows the page decodes back to.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The encoding this page was stored under.
    pub fn encoding(&self) -> PageEncoding {
        self.encoding
    }
}

/// Compresses one decoded page under `pick`, returning `None` when the
/// pick is [`PageEncoding::Plain`] or the encoded form fails to reach
/// half the plain bytes (the eviction then drops the page cold instead).
pub fn compress(codes: &PackedCodes, pick: PageEncoding) -> Option<CompressedPage> {
    let rows = codes.len();
    if rows == 0 {
        return None;
    }
    let plain = codes.bytes();
    let bytes = match pick {
        PageEncoding::Plain => return None,
        PageEncoding::Rle => encode_rle(codes),
        PageEncoding::Palette => encode_palette(codes)?,
    };
    if bytes.len() * 2 > plain {
        return None;
    }
    Some(CompressedPage { encoding: pick, width: codes.width(), rows, bytes })
}

/// Rebuilds the exact page [`compress`] consumed, decoding straight
/// into the page's native width (no `u32` staging vector).
pub fn decompress(page: &CompressedPage) -> Result<PackedCodes, StoreError> {
    match page.width {
        Width::U8 => decode::<u8>(page),
        Width::U16 => decode::<u16>(page),
        Width::U32 => decode::<u32>(page),
    }
}

fn decode<R: CodeRepr>(page: &CompressedPage) -> Result<PackedCodes, StoreError> {
    let codes: Vec<R> = match page.encoding {
        PageEncoding::Plain => {
            return Err(StoreError::Corrupt("plain pages are never stored compressed".into()))
        }
        PageEncoding::Rle => decode_rle(&page.bytes, page.rows)?,
        PageEncoding::Palette => decode_palette(&page.bytes, page.rows)?,
    };
    Ok(R::into_packed(codes))
}

/// Number of runs a run-length encoding of the page would hold — the
/// sketch-free fallback signal for [`pick_encoding`] when no histogram
/// is available. One sequential, branch-free pass (a run starts wherever
/// a code differs from its predecessor), no allocation.
pub fn count_runs(codes: &PackedCodes) -> usize {
    for_packed!(codes, |codes| {
        if codes.is_empty() {
            0
        } else {
            1 + codes[1..].iter().zip(codes.iter()).filter(|(next, prev)| next != prev).count()
        }
    })
}

fn ceil_log2(d: usize) -> usize {
    (usize::BITS - (d - 1).leading_zeros()) as usize
}

fn narrow<R: CodeRepr>(code: Code, what: &str) -> Result<R, StoreError> {
    R::try_narrow(code).ok_or_else(|| {
        StoreError::Corrupt(format!("{what} page: code {code} exceeds {}", R::WIDTH))
    })
}

fn encode_rle(codes: &PackedCodes) -> Vec<u8> {
    for_packed!(codes, |codes| encode_rle_repr(codes))
}

fn encode_rle_repr<R: CodeRepr>(codes: &[R]) -> Vec<u8> {
    // Run count patched in once known.
    let mut out = vec![0u8; 4];
    let mut runs = 0u32;
    let mut rest = codes;
    while let Some(&first) = rest.first() {
        let code = first.widen();
        let len = rest.iter().position(|c| c.widen() != code).unwrap_or(rest.len());
        out.extend_from_slice(&code.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        runs += 1;
        rest = &rest[len..];
    }
    out[..4].copy_from_slice(&runs.to_le_bytes());
    out
}

fn decode_rle<R: CodeRepr>(bytes: &[u8], rows: usize) -> Result<Vec<R>, StoreError> {
    let mut buf = bytes;
    let run_count = get_u32(&mut buf)? as usize;
    if buf.len() != run_count * 8 {
        return Err(StoreError::Corrupt("rle page: length mismatch".into()));
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..run_count {
        let code = narrow::<R>(get_u32(&mut buf)?, "rle")?;
        let len = get_u32(&mut buf)? as usize;
        if out.len() + len > rows {
            return Err(StoreError::Corrupt("rle page: more rows than declared".into()));
        }
        out.resize(out.len() + len, code);
    }
    if out.len() != rows {
        return Err(StoreError::Corrupt("rle page: fewer rows than declared".into()));
    }
    Ok(out)
}

/// `slot_of` marker for a code that does not occur on the page; real
/// slots are `< MAX_PALETTE`.
const ABSENT: u16 = u16::MAX;

fn encode_palette(codes: &PackedCodes) -> Option<Vec<u8>> {
    for_packed!(codes, |codes| encode_palette_repr(codes))
}

/// Palette encoder over a direct-index `code − min → slot` table: one
/// branch-free pass marks the codes that occur, a walk of the table in
/// code order numbers them (which *is* the sorted palette), one pass
/// looks each row's slot up and bit-packs it. Byte-for-byte the
/// encoding a per-row binary search over the sorted palette gives.
fn encode_palette_repr<R: CodeRepr>(codes: &[R]) -> Option<Vec<u8>> {
    let min = codes.iter().map(|c| c.widen()).min()?;
    let max = codes.iter().map(|c| c.widen()).max()?;
    let range = (max - min) as usize + 1;
    if range > MAX_PALETTE_RANGE {
        return encode_palette_sparse(codes);
    }
    let mut slot_of = vec![ABSENT; range];
    for &c in codes {
        slot_of[(c.widen() - min) as usize] = 0;
    }
    let mut palette: Vec<Code> = Vec::new();
    for (offset, slot) in slot_of.iter_mut().enumerate() {
        if *slot != ABSENT {
            if palette.len() >= MAX_PALETTE {
                return None;
            }
            *slot = palette.len() as u16;
            palette.push(min + offset as u32);
        }
    }
    pack_palette(codes, &palette, |c| slot_of[(c - min) as usize] as u64)
}

/// The same encoding for a page whose codes are too spread out for the
/// direct table (sparse codes on a high-support `u32` column): a sorted
/// palette grown by insertion and a binary search per row. Slower per
/// row, but such a page still reaches the compressed tier.
fn encode_palette_sparse<R: CodeRepr>(codes: &[R]) -> Option<Vec<u8>> {
    let mut palette: Vec<Code> = Vec::new();
    for &c in codes {
        let c = c.widen();
        if let Err(slot) = palette.binary_search(&c) {
            if palette.len() >= MAX_PALETTE {
                return None;
            }
            palette.insert(slot, c);
        }
    }
    pack_palette(codes, &palette, |c| palette.binary_search(&c).expect("code in palette") as u64)
}

/// `[d][palette u32 × d][packed slots]` for `codes`, each row's slot in
/// the sorted `palette` given by `slot_of`.
fn pack_palette<R: CodeRepr>(
    codes: &[R],
    palette: &[Code],
    slot_of: impl Fn(Code) -> u64,
) -> Option<Vec<u8>> {
    if palette.len() < 2 {
        return None; // d == 1 belongs to RLE
    }
    let bits = ceil_log2(palette.len());
    let mut out = Vec::with_capacity(4 + palette.len() * 4 + (codes.len() * bits).div_ceil(8) + 4);
    out.extend_from_slice(&(palette.len() as u32).to_le_bytes());
    for &c in palette {
        out.extend_from_slice(&c.to_le_bytes());
    }
    // LSB-first bit stream of palette slots, flushed four bytes at a
    // time (slots are at most 12 bits, so the accumulator never holds
    // more than 43).
    let mut acc: u64 = 0;
    let mut filled = 0usize;
    for &c in codes {
        acc |= slot_of(c.widen()) << filled;
        filled += bits;
        if filled >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            filled -= 32;
        }
    }
    while filled > 0 {
        out.push(acc as u8);
        acc >>= 8;
        filled = filled.saturating_sub(8);
    }
    Some(out)
}

fn decode_palette<R: CodeRepr>(bytes: &[u8], rows: usize) -> Result<Vec<R>, StoreError> {
    let mut buf = bytes;
    let d = get_u32(&mut buf)? as usize;
    if !(2..=MAX_PALETTE).contains(&d) {
        return Err(StoreError::Corrupt("palette page: invalid palette size".into()));
    }
    if buf.len() < d * 4 {
        return Err(StoreError::Corrupt("palette page: truncated palette".into()));
    }
    let bits = ceil_log2(d);
    // Padded to the full index space so the per-row lookup needs no
    // bounds branch; an index past `d` is caught once, after the loop.
    let mut palette: Vec<R> = Vec::with_capacity(1 << bits);
    for _ in 0..d {
        palette.push(narrow(get_u32(&mut buf)?, "palette")?);
    }
    palette.resize(1 << bits, R::default());
    if buf.len() != (rows * bits).div_ceil(8) {
        return Err(StoreError::Corrupt("palette page: length mismatch".into()));
    }
    // Row `i`'s slot starts at bit `i·bits`: at most 7 bits into a byte
    // and at most 12 wide, so it always lies inside the four bytes from
    // there. Each row is read independently (no carried accumulator),
    // out of a copy padded so the last rows' four bytes exist too.
    let mut stream = Vec::with_capacity(buf.len() + 3);
    stream.extend_from_slice(buf);
    stream.extend_from_slice(&[0; 3]);
    let mask = (1u32 << bits) - 1;
    let mut top = 0usize;
    let mut out = Vec::with_capacity(rows);
    out.extend((0..rows).map(|i| {
        let bit = i * bits;
        let word: [u8; 4] = stream[bit / 8..bit / 8 + 4].try_into().expect("4 bytes");
        let idx = ((u32::from_le_bytes(word) >> (bit % 8)) & mask) as usize;
        top = top.max(idx);
        palette[idx]
    }));
    if top >= d {
        return Err(StoreError::Corrupt("palette page: index out of range".into()));
    }
    Ok(out)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, StoreError> {
    if buf.len() < 4 {
        return Err(StoreError::Corrupt("truncated compressed page".into()));
    }
    let (head, tail) = buf.split_at(4);
    *buf = tail;
    Ok(u32::from_le_bytes(head.try_into().expect("split at 4")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn page(support: u32, rows: usize, seed: u64) -> PackedCodes {
        let mut s = seed;
        let codes: Vec<Code> =
            (0..rows).map(|_| (splitmix(&mut s) % support as u64) as u32).collect();
        PackedCodes::pack(&codes, Width::for_support(support))
    }

    /// The encoder this module shipped before the direct-index table:
    /// a sorted palette grown by insertion, one binary search per row,
    /// one byte flushed at a time. Kept as the byte-identity reference.
    fn encode_palette_reference(codes: &PackedCodes) -> Option<Vec<u8>> {
        let mut palette: Vec<Code> = Vec::new();
        for_packed!(codes, |codes| {
            for &c in codes {
                let c = c.widen();
                if let Err(slot) = palette.binary_search(&c) {
                    if palette.len() >= MAX_PALETTE {
                        return None;
                    }
                    palette.insert(slot, c);
                }
            }
            Some(())
        })?;
        if palette.len() < 2 {
            return None;
        }
        let bits = ceil_log2(palette.len());
        let mut out = Vec::new();
        out.extend_from_slice(&(palette.len() as u32).to_le_bytes());
        for &c in &palette {
            out.extend_from_slice(&c.to_le_bytes());
        }
        let mut acc: u64 = 0;
        let mut filled = 0usize;
        for_packed!(codes, |codes| {
            for &c in codes {
                let idx = palette.binary_search(&c.widen()).expect("code in palette") as u64;
                acc |= idx << filled;
                filled += bits;
                while filled >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    filled -= 8;
                }
            }
        });
        if filled > 0 {
            out.push(acc as u8);
        }
        Some(out)
    }

    #[test]
    fn palette_encoder_is_byte_identical_to_the_binary_search_reference() {
        for support in [2u32, 3, 16, 17, 4096] {
            for width in [Width::U8, Width::U16, Width::U32] {
                if !width.holds(support) {
                    continue;
                }
                // Row counts on and off the 32-bit flush boundary.
                for rows in [1usize, 5, 4096, 65_536, 65_537] {
                    let mut s = support as u64 * 977 + rows as u64;
                    // A base offset exercises the `code − min` indexing.
                    let base = if width == Width::U32 { 1 << 20 } else { 0 };
                    let codes: Vec<Code> = (0..rows)
                        .map(|_| base + (splitmix(&mut s) % support as u64) as u32)
                        .collect();
                    let packed = PackedCodes::pack(&codes, width);
                    let label = format!("support {support} {width} rows {rows}");
                    let got = encode_palette(&packed);
                    assert_eq!(got, encode_palette_reference(&packed), "{label}");
                    if let Some(bytes) = got {
                        let back = match width {
                            Width::U8 => decode_palette::<u8>(&bytes, rows).map(u8::into_packed),
                            Width::U16 => decode_palette::<u16>(&bytes, rows).map(u16::into_packed),
                            Width::U32 => decode_palette::<u32>(&bytes, rows).map(u32::into_packed),
                        };
                        assert_eq!(back.unwrap(), packed, "{label}");
                    }
                }
            }
        }
        // Past the palette cap both refuse.
        let wide = page(70_000, 65_536, 5);
        assert_eq!(encode_palette(&wide), None);
        assert_eq!(encode_palette_reference(&wide), None);
    }

    #[test]
    fn a_code_span_wider_than_the_direct_table_still_compresses() {
        // Eight sparse codes over a span far past the table, and the two
        // spans either side of the table's limit.
        let mut s = 13u64;
        let sparse: Vec<Code> =
            (0..65_536).map(|_| (splitmix(&mut s) % 8) as u32 * 500_000_000).collect();
        let edge = MAX_PALETTE_RANGE as u32;
        for codes in [sparse, vec![0, edge, 0, 0], vec![0, edge - 1, 0, 0]] {
            let packed = PackedCodes::U32(codes);
            let got = encode_palette(&packed).expect("few distinct codes");
            assert_eq!(Some(&got), encode_palette_reference(&packed).as_ref());
            let back = decode_palette::<u32>(&got, packed.len()).map(u32::into_packed);
            assert_eq!(back.unwrap(), packed);
        }
        // The cap on distinct codes holds on the sparse path too.
        let many: Vec<Code> = (0..=MAX_PALETTE as u32).map(|i| i * 1_000).collect();
        assert_eq!(encode_palette(&PackedCodes::U32(many)), None);
    }

    #[test]
    fn both_codecs_round_trip_at_every_width() {
        for width in [Width::U8, Width::U16, Width::U32] {
            // Clustered: long runs of few codes — RLE and palette both pay.
            let clustered: Vec<Code> = (0..65_536u32).map(|i| (i / 2048) % 5).collect();
            let packed = PackedCodes::pack(&clustered, width);
            for pick in [PageEncoding::Rle, PageEncoding::Palette] {
                let c = compress(&packed, pick).expect("clustered page compresses");
                let back = decompress(&c).unwrap();
                assert_eq!(back, packed, "{width} {pick:?}");
                assert_eq!(back.width(), width);
            }
        }
    }

    #[test]
    fn decompress_rejects_codes_wider_than_the_page() {
        let codes = PackedCodes::pack(&vec![3; 1000], Width::U8);
        let mut c = compress(&codes, PageEncoding::Rle).unwrap();
        c.bytes[5] = 1; // run code 3 → 259: no longer a u8
        let err = decompress(&c).unwrap_err();
        assert!(err.to_string().contains("exceeds u8"), "{err}");
        let codes = page(6, 4096, 9);
        let mut c = compress(&codes, PageEncoding::Palette).unwrap();
        c.bytes[5] = 1; // first palette entry out of width
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn pick_rule_shapes() {
        // Constant page: RLE.
        assert_eq!(pick_encoding(1, 65536, Width::U8), PageEncoding::Rle);
        // Tiny support over a u32 column: palette wins big.
        assert_eq!(pick_encoding(4, 65536, Width::U32), PageEncoding::Palette);
        // Full-byte-range support at u8: nothing to win.
        assert_eq!(pick_encoding(256, 65536, Width::U8), PageEncoding::Plain);
        // Empty page: plain.
        assert_eq!(pick_encoding(0, 0, Width::U8), PageEncoding::Plain);
        // Past the palette cap: plain.
        assert_eq!(pick_encoding(MAX_PALETTE + 1, 65536, Width::U32), PageEncoding::Plain);
    }

    #[test]
    fn rle_round_trips_exactly() {
        for (support, rows) in [(1u32, 100usize), (3, 4096), (70000, 1)] {
            let codes = page(support, rows, 7);
            let c = compress(&codes, PageEncoding::Rle);
            if let Some(c) = c {
                assert_eq!(decompress(&c).unwrap(), codes, "support {support} rows {rows}");
            }
        }
        // A constant page compresses to a handful of bytes.
        let constant = PackedCodes::pack(&vec![9; 65536], Width::U16);
        let c = compress(&constant, PageEncoding::Rle).expect("constant page compresses");
        assert!(c.bytes_len() <= 16, "{}", c.bytes_len());
        assert_eq!(decompress(&c).unwrap(), constant);
    }

    #[test]
    fn palette_round_trips_across_widths_and_sizes() {
        for support in [2u32, 5, 200, 1000, 70000] {
            for rows in [1usize, 7, 4096, 65536] {
                let codes = page(support, rows, support as u64 * 31 + rows as u64);
                if let Some(c) = compress(&codes, PageEncoding::Palette) {
                    let back = decompress(&c).unwrap();
                    assert_eq!(back, codes, "support {support} rows {rows}");
                    assert!(c.bytes_len() * 2 <= codes.bytes());
                }
            }
        }
    }

    #[test]
    fn skewed_u32_page_compresses_at_least_four_to_one() {
        // 8 distinct codes in a u32 column: 3 index bits vs 32 plain.
        let mut s = 3u64;
        let codes: Vec<Code> = (0..65536)
            .map(|_| 70_000 * ((splitmix(&mut s) % 8) as u32 / 7) + (splitmix(&mut s) % 8) as u32)
            .collect();
        let packed = PackedCodes::pack(&codes, Width::U32);
        let c = compress(&packed, PageEncoding::Palette).expect("skewed page compresses");
        assert!(c.bytes_len() * 4 <= packed.bytes(), "{} vs {}", c.bytes_len(), packed.bytes());
        assert_eq!(decompress(&c).unwrap(), packed);
    }

    #[test]
    fn uncompressible_pages_are_refused() {
        // Uniform full-range u8 page: neither codec reaches half size.
        let codes = page(256, 65536, 11);
        assert!(compress(&codes, PageEncoding::Rle).is_none());
        assert!(compress(&codes, PageEncoding::Palette).is_none());
        assert!(compress(&codes, PageEncoding::Plain).is_none());
        assert!(compress(&PackedCodes::U8(vec![]), PageEncoding::Rle).is_none());
    }

    #[test]
    fn count_runs_matches_structure() {
        assert_eq!(count_runs(&PackedCodes::U8(vec![])), 0);
        assert_eq!(count_runs(&PackedCodes::U8(vec![5; 100])), 1);
        assert_eq!(count_runs(&PackedCodes::U8(vec![1, 1, 2, 2, 2, 1])), 3);
        assert_eq!(count_runs(&PackedCodes::U16(vec![7])), 1);
        assert_eq!(count_runs(&PackedCodes::U32(vec![1, 2, 1, 2])), 4);
    }

    #[test]
    fn decompress_rejects_corrupt_bytes() {
        let codes = PackedCodes::pack(&vec![3; 1000], Width::U8);
        let mut c = compress(&codes, PageEncoding::Rle).unwrap();
        c.bytes[4] ^= 0x40; // code of the only run changes — still decodes
        assert!(decompress(&c).is_ok());
        c.bytes.truncate(3); // structural damage must error
        assert!(decompress(&c).is_err());
        let codes = page(6, 4096, 9);
        let mut c = compress(&codes, PageEncoding::Palette).unwrap();
        c.bytes.truncate(c.bytes.len() - 1);
        assert!(decompress(&c).is_err());
        // Three codes index with two bits; slot 3 names no palette entry.
        let codes = page(3, 4096, 9);
        let mut c = compress(&codes, PageEncoding::Palette).unwrap();
        *c.bytes.last_mut().unwrap() = 0xFF;
        let err = decompress(&c).unwrap_err();
        assert!(err.to_string().contains("index out of range"), "{err}");
    }
}
