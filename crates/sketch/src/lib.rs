//! # swope-sketch
//!
//! Per-page partition count sketches for the SWOPE storage layer.
//!
//! A [`ColumnSketch`] stores, for every 64Ki-row page of a packed column,
//! the **exact** histogram of that page's codes. The per-page unit matches
//! the SWOP v2 on-disk page (`swope_store::page::PAGE_ROWS`), so a sketch
//! built at ingest time can be serialized next to the column pages and
//! reloaded without touching row data.
//!
//! Scoped queries use the sketches two ways:
//!
//! * **Range scopes** — a row range `[a, b)` decomposes into fully covered
//!   pages plus at most two partial *fringe* pages. Covered pages are
//!   answered exactly by summing their histograms; only the fringe ever
//!   needs a physical row scan (`swope_core`'s hybrid scoped sampler).
//! * **Predicate scopes** — `WHERE col = code` materialization skips every
//!   page whose histogram holds a zero count for `code` (page pruning).
//!
//! Two physical layouts keep the sketch small: columns whose support fits
//! a `u8` (`support ≤ 256`) store a **compact** dense count array per
//! page; wider supports store a **sparse** sorted `(code, count)` list, so
//! a page never costs more than `min(support, PAGE_ROWS)` entries.
//!
//! The on-disk encoding (see [`DatasetSketch::encode`]) carries its own
//! trailing CRC32 and validates every length field before allocating, so
//! a truncated or corrupted sketch section fails with a one-line
//! [`StoreError::Corrupt`] instead of a panic.

#![deny(missing_docs)]
#![warn(clippy::all)]

use swope_store::crc32::crc32;
use swope_store::page::PAGE_ROWS;
use swope_store::{for_packed, CodeRepr, PackedColumn, StoreError};

/// Magic bytes opening an encoded [`DatasetSketch`].
pub const SKETCH_MAGIC: [u8; 4] = *b"SKCH";

/// Current sketch encoding version.
pub const SKETCH_VERSION: u16 = 1;

/// Histogram layout of one column's sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKind {
    /// Dense per-page count arrays (`support` entries per page). Chosen
    /// for `u8`-packed columns (`support ≤ 256`).
    Compact,
    /// Sparse sorted `(code, count)` lists per page. Chosen above 256.
    Sparse,
}

impl SketchKind {
    /// Stable on-disk tag.
    fn tag(self) -> u8 {
        match self {
            SketchKind::Compact => 0,
            SketchKind::Sparse => 1,
        }
    }

    /// Human-readable name (used by `swope inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SketchKind::Compact => "compact",
            SketchKind::Sparse => "sparse",
        }
    }
}

/// Exact code histogram of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PageHistogram {
    /// `counts[code]`, length = support.
    Dense(Vec<u32>),
    /// Sorted by code; zero counts omitted.
    Sparse(Vec<(u32, u32)>),
}

impl PageHistogram {
    fn count(&self, code: u32) -> u64 {
        match self {
            PageHistogram::Dense(c) => c.get(code as usize).copied().unwrap_or(0) as u64,
            PageHistogram::Sparse(entries) => entries
                .binary_search_by_key(&code, |&(c, _)| c)
                .map(|i| entries[i].1 as u64)
                .unwrap_or(0),
        }
    }

    /// Adds this page's counts into `acc` (length = support).
    fn accumulate(&self, acc: &mut [u64]) {
        match self {
            PageHistogram::Dense(c) => {
                for (a, &v) in acc.iter_mut().zip(c) {
                    *a += v as u64;
                }
            }
            PageHistogram::Sparse(entries) => {
                for &(code, v) in entries {
                    acc[code as usize] += v as u64;
                }
            }
        }
    }

    fn rows(&self) -> u64 {
        match self {
            PageHistogram::Dense(c) => c.iter().map(|&v| v as u64).sum(),
            PageHistogram::Sparse(entries) => entries.iter().map(|&(_, v)| v as u64).sum(),
        }
    }
}

/// Per-page exact code histograms for one packed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSketch {
    support: u32,
    kind: SketchKind,
    pages: Vec<PageHistogram>,
}

impl ColumnSketch {
    /// Builds the sketch from a packed column: one exact histogram per
    /// [`PAGE_ROWS`]-row page. Width-generic — the result depends only on
    /// the logical codes, not the storage width.
    pub fn build(column: &PackedColumn) -> Self {
        let support = column.support();
        let kind = if support <= 256 { SketchKind::Compact } else { SketchKind::Sparse };
        let pages = for_packed!(column.codes(), |codes| build_pages(codes, support, kind));
        Self { support, kind, pages }
    }

    /// Builds the sketch from already-paged codes: one histogram per
    /// yielded page, which must be the column's [`PAGE_ROWS`]-row pages
    /// in order (every page full except possibly the last).
    pub fn build_from_pages<'a>(
        support: u32,
        pages: impl IntoIterator<Item = &'a swope_store::PackedCodes>,
    ) -> Self {
        let mut b = ColumnSketchBuilder::new(support);
        for page in pages {
            b.push_page(|counts| {
                for_packed!(page, |codes| {
                    for &c in codes.iter() {
                        counts[c.widen() as usize] += 1;
                    }
                })
            });
        }
        b.finish()
    }

    /// The column's support size.
    pub fn support(&self) -> u32 {
        self.support
    }

    /// The histogram layout in use.
    pub fn kind(&self) -> SketchKind {
        self.kind
    }

    /// Number of pages sketched.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Exact count of `code` within page `page` (0 for out-of-range).
    pub fn page_count(&self, page: usize, code: u32) -> u64 {
        self.pages.get(page).map_or(0, |p| p.count(code))
    }

    /// Exact per-code counts summed over the page range `pages`
    /// (returned vector has `support` entries).
    pub fn range_counts(&self, pages: std::ops::Range<usize>) -> Vec<u64> {
        let mut acc = vec![0u64; self.support as usize];
        for p in pages {
            if let Some(h) = self.pages.get(p) {
                h.accumulate(&mut acc);
            }
        }
        acc
    }
}

fn build_pages<R: CodeRepr>(codes: &[R], support: u32, kind: SketchKind) -> Vec<PageHistogram> {
    let mut pages = Vec::with_capacity(codes.len().div_ceil(PAGE_ROWS));
    let mut counts = vec![0u32; support as usize];
    for chunk in codes.chunks(PAGE_ROWS) {
        for c in counts.iter_mut() {
            *c = 0;
        }
        for &c in chunk {
            counts[c.widen() as usize] += 1;
        }
        pages.push(match kind {
            SketchKind::Compact => PageHistogram::Dense(counts.clone()),
            SketchKind::Sparse => PageHistogram::Sparse(
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v > 0)
                    .map(|(code, &v)| (code as u32, v))
                    .collect(),
            ),
        });
    }
    pages
}

/// Incremental [`ColumnSketch`] construction, one page at a time.
///
/// The out-of-core sketch rebuild drives this from the pager, reading
/// each page in place; [`ColumnSketch::build_from_pages`] is a
/// convenience wrapper over it for pages already on the heap.
#[derive(Debug)]
pub struct ColumnSketchBuilder {
    support: u32,
    kind: SketchKind,
    counts: Vec<u32>,
    pages: Vec<PageHistogram>,
}

impl ColumnSketchBuilder {
    /// Starts a sketch for a column with the given support.
    pub fn new(support: u32) -> Self {
        let kind = if support <= 256 { SketchKind::Compact } else { SketchKind::Sparse };
        Self { support, kind, counts: vec![0u32; support as usize], pages: Vec::new() }
    }

    /// Appends the histogram for the next page: `tally` gets the
    /// per-code table (one zeroed entry per code of the support) and
    /// adds one to a code's entry for each row of the page holding it —
    /// however the caller's storage wants to be walked. Pages must arrive
    /// in order and be [`PAGE_ROWS`] rows each except possibly the last.
    pub fn push_page(&mut self, tally: impl FnOnce(&mut [u32])) {
        for c in self.counts.iter_mut() {
            *c = 0;
        }
        tally(&mut self.counts);
        self.pages.push(match self.kind {
            SketchKind::Compact => PageHistogram::Dense(self.counts.clone()),
            SketchKind::Sparse => PageHistogram::Sparse(
                self.counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v > 0)
                    .map(|(code, &v)| (code as u32, v))
                    .collect(),
            ),
        });
    }

    /// Finishes the sketch.
    pub fn finish(self) -> ColumnSketch {
        ColumnSketch { support: self.support, kind: self.kind, pages: self.pages }
    }
}

/// Per-page count sketches for every column of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSketch {
    num_rows: usize,
    columns: Vec<ColumnSketch>,
}

impl DatasetSketch {
    /// Assembles a dataset sketch from per-column sketches.
    ///
    /// `num_rows` is the dataset's row count; all columns must sketch the
    /// same number of pages (`ceil(num_rows / PAGE_ROWS)`).
    pub fn new(num_rows: usize, columns: Vec<ColumnSketch>) -> Self {
        debug_assert!(columns.iter().all(|c| c.num_pages() == num_rows.div_ceil(PAGE_ROWS)));
        Self { num_rows, columns }
    }

    /// Builds sketches for an iterator of packed columns.
    pub fn build<'a>(num_rows: usize, columns: impl IntoIterator<Item = &'a PackedColumn>) -> Self {
        Self::new(num_rows, columns.into_iter().map(ColumnSketch::build).collect())
    }

    /// Number of rows the sketch covers.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of pages per column.
    pub fn num_pages(&self) -> usize {
        self.num_rows.div_ceil(PAGE_ROWS)
    }

    /// Number of sketched columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The sketch for column `attr`, if in range.
    pub fn column(&self, attr: usize) -> Option<&ColumnSketch> {
        self.columns.get(attr)
    }

    /// Encoded size in bytes (what [`DatasetSketch::encode`] will emit).
    pub fn encoded_len(&self) -> usize {
        let mut len = 4 + 2 + 2 + 4 + 8 + 4; // header
        for col in &self.columns {
            len += 4 + 1 + 4; // support, kind, page_count
            for page in &col.pages {
                len += match page {
                    PageHistogram::Dense(c) => c.len() * 4,
                    PageHistogram::Sparse(e) => 4 + e.len() * 8,
                };
            }
        }
        len + 4 // trailing CRC
    }

    /// Serializes the sketch: header, per-column pages, trailing CRC32
    /// over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&SKETCH_MAGIC);
        out.extend_from_slice(&SKETCH_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&(PAGE_ROWS as u32).to_le_bytes());
        out.extend_from_slice(&(self.num_rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for col in &self.columns {
            out.extend_from_slice(&col.support.to_le_bytes());
            out.push(col.kind.tag());
            out.extend_from_slice(&(col.pages.len() as u32).to_le_bytes());
            for page in &col.pages {
                match page {
                    PageHistogram::Dense(counts) => {
                        for &c in counts {
                            out.extend_from_slice(&c.to_le_bytes());
                        }
                    }
                    PageHistogram::Sparse(entries) => {
                        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                        for &(code, count) in entries {
                            out.extend_from_slice(&code.to_le_bytes());
                            out.extend_from_slice(&count.to_le_bytes());
                        }
                    }
                }
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes an encoded sketch, validating the CRC and every length
    /// field before trusting (or allocating for) any content.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |msg: &str| StoreError::Corrupt(format!("sketch: {msg}"));
        if bytes.len() < 24 + 4 {
            return Err(corrupt("truncated header"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.take(4)? != SKETCH_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u16()?;
        if version != SKETCH_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let _flags = r.u16()?;
        let page_rows = r.u32()? as usize;
        if page_rows != PAGE_ROWS {
            return Err(corrupt(&format!("page_rows {page_rows} != {PAGE_ROWS}")));
        }
        let num_rows = r.u64()? as usize;
        let column_count = r.u32()? as usize;
        let expect_pages = num_rows.div_ceil(PAGE_ROWS);
        let mut columns = Vec::with_capacity(column_count.min(r.remaining()));
        for _ in 0..column_count {
            let support = r.u32()?;
            let tag = r.u8()?;
            let page_count = r.u32()? as usize;
            if page_count != expect_pages {
                return Err(corrupt(&format!(
                    "column has {page_count} pages, expected {expect_pages}"
                )));
            }
            let kind = match tag {
                0 => SketchKind::Compact,
                1 => SketchKind::Sparse,
                t => return Err(corrupt(&format!("unknown sketch kind {t}"))),
            };
            if kind == SketchKind::Compact && support > 256 {
                return Err(corrupt("compact sketch with support > 256"));
            }
            let mut pages = Vec::with_capacity(page_count);
            let mut remaining_rows = num_rows as u64;
            for _ in 0..page_count {
                let page_rows_here = remaining_rows.min(PAGE_ROWS as u64);
                remaining_rows -= page_rows_here;
                let hist = match kind {
                    SketchKind::Compact => {
                        let raw = r.take(support as usize * 4)?;
                        let counts: Vec<u32> = raw
                            .chunks_exact(4)
                            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                            .collect();
                        PageHistogram::Dense(counts)
                    }
                    SketchKind::Sparse => {
                        let entry_count = r.u32()? as usize;
                        if entry_count > r.remaining() / 8 {
                            return Err(corrupt("sparse entry count exceeds payload"));
                        }
                        let mut entries = Vec::with_capacity(entry_count);
                        let mut last: Option<u32> = None;
                        for _ in 0..entry_count {
                            let code = r.u32()?;
                            let count = r.u32()?;
                            if code >= support {
                                return Err(corrupt("sparse code out of support"));
                            }
                            if last.is_some_and(|l| code <= l) {
                                return Err(corrupt("sparse codes not strictly ascending"));
                            }
                            last = Some(code);
                            entries.push((code, count));
                        }
                        PageHistogram::Sparse(entries)
                    }
                };
                if hist.rows() != page_rows_here {
                    return Err(corrupt("page histogram row total mismatch"));
                }
                pages.push(hist);
            }
            columns.push(ColumnSketch { support, kind, pages });
        }
        if r.pos != r.buf.len() {
            return Err(corrupt("trailing bytes after sketch payload"));
        }
        Ok(Self { num_rows, columns })
    }
}

/// Little bounds-checked byte cursor used by [`DatasetSketch::decode`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt("sketch: truncated payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_store::Width;

    fn packed(codes: Vec<u32>, support: u32) -> PackedColumn {
        PackedColumn::new(codes, support).unwrap()
    }

    #[test]
    fn kind_follows_support() {
        let small = ColumnSketch::build(&packed(vec![0, 1, 2], 3));
        assert_eq!(small.kind(), SketchKind::Compact);
        let wide = ColumnSketch::build(&packed(vec![0, 300], 500));
        assert_eq!(wide.kind(), SketchKind::Sparse);
    }

    #[test]
    fn page_counts_are_exact() {
        // Two full pages plus a partial third.
        let n = 2 * PAGE_ROWS + 100;
        let codes: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
        let sk = ColumnSketch::build(&packed(codes.clone(), 5));
        assert_eq!(sk.num_pages(), 3);
        for page in 0..3 {
            let lo = page * PAGE_ROWS;
            let hi = ((page + 1) * PAGE_ROWS).min(n);
            for code in 0..5u32 {
                let expect = codes[lo..hi].iter().filter(|&&c| c == code).count() as u64;
                assert_eq!(sk.page_count(page, code), expect, "page {page} code {code}");
            }
        }
        // Range sums.
        let all = sk.range_counts(0..3);
        for code in 0..5u32 {
            let expect = codes.iter().filter(|&&c| c == code).count() as u64;
            assert_eq!(all[code as usize], expect);
        }
    }

    #[test]
    fn build_from_pages_matches_whole_column_build() {
        use swope_store::PackedCodes;
        let n = 2 * PAGE_ROWS + 321;
        let codes: Vec<u32> = (0..n as u32).map(|i| (i * 17) % 900).collect();
        let whole = ColumnSketch::build(&packed(codes.clone(), 900));
        let pages: Vec<PackedCodes> =
            codes.chunks(PAGE_ROWS).map(|chunk| PackedCodes::pack(chunk, Width::U16)).collect();
        let paged = ColumnSketch::build_from_pages(900, pages.iter());
        assert_eq!(paged, whole);
    }

    #[test]
    fn sketch_is_width_invariant() {
        let codes: Vec<u32> = (0..1000u32).map(|i| (i * 31) % 200).collect();
        let base = packed(codes, 200);
        let a = ColumnSketch::build(&base);
        for w in [Width::U16, Width::U32] {
            let b = ColumnSketch::build(&base.repacked(w).unwrap());
            assert_eq!(a, b, "width {w}");
        }
    }

    #[test]
    fn roundtrip_mixed_kinds() {
        let n = PAGE_ROWS + 77;
        let c0: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let c1: Vec<u32> = (0..n as u32).map(|i| (i * 13) % 1000).collect();
        let cols = [packed(c0, 7), packed(c1, 1000)];
        let sk = DatasetSketch::build(n, cols.iter());
        assert_eq!(sk.column(0).unwrap().kind(), SketchKind::Compact);
        assert_eq!(sk.column(1).unwrap().kind(), SketchKind::Sparse);
        let bytes = sk.encode();
        assert_eq!(bytes.len(), sk.encoded_len());
        let back = DatasetSketch::decode(&bytes).unwrap();
        assert_eq!(sk, back);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let sk = DatasetSketch::build(0, std::iter::empty());
        let back = DatasetSketch::decode(&sk.encode()).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_pages(), 0);
    }

    #[test]
    fn truncation_at_every_prefix_errors_cleanly() {
        let codes: Vec<u32> = (0..300u32).map(|i| i % 9).collect();
        let sk = DatasetSketch::build(300, [packed(codes, 9)].iter());
        let bytes = sk.encode();
        for len in 0..bytes.len() {
            let r = DatasetSketch::decode(&bytes[..len]);
            assert!(r.is_err(), "truncation to {len} bytes must fail");
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_silently() {
        let codes: Vec<u32> = (0..500u32).map(|i| (i * 3) % 400).collect();
        let sk = DatasetSketch::build(500, [packed(codes, 400)].iter());
        let bytes = sk.encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xFF;
            // Either a clean error or (never) the original — a flipped byte
            // must not produce a silently different sketch.
            if let Ok(decoded) = DatasetSketch::decode(&bad) {
                assert_eq!(decoded, sk, "byte {pos}");
            }
        }
    }

    #[test]
    fn crc_guards_payload() {
        let sk = DatasetSketch::build(10, [packed(vec![0; 10], 2)].iter());
        let mut bytes = sk.encode();
        let last = bytes.len() - 5;
        bytes[last] ^= 1;
        let err = DatasetSketch::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }
}
