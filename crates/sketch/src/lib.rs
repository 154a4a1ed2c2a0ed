//! # swope-sketch
//!
//! Per-page partition count sketches for the SWOPE storage layer.
//!
//! A [`ColumnSketch`] stores, for every 64Ki-row page of a packed column,
//! the **exact** histogram of that page's codes. The per-page unit matches
//! the SWOP v2 on-disk page (`swope_store::page::PAGE_ROWS`), so a sketch
//! built at ingest time can be serialized next to the column pages and
//! reloaded without touching row data. A slice of a larger table's rows
//! has the table's pages: its sketch's first page holds the rows its
//! [`PageGrid`] leads with.
//!
//! Queries use the sketches two ways:
//!
//! * **Predicate scopes** — `WHERE col = code` materialization skips every
//!   page whose histogram holds a zero count for `code` (page pruning).
//! * **MI marginals** — over a full scope, every column's pages sum to its
//!   exact whole-dataset counts, so an MI query samples only the joint.
//!
//! A row range reads its rows: it answers alike with or without a sketch.
//!
//! Two physical layouts keep the sketch small: columns whose support fits
//! a `u8` (`support ≤ 256`) store a **compact** dense count array per
//! page; wider supports store a **sparse** sorted `(code, count)` list, so
//! a page never costs more than `min(support, PAGE_ROWS)` entries. In
//! memory a compact column holds its pages *cumulatively* — built once,
//! when the sketch is built or decoded — so the counts of any page range
//! are `prefix[last] − prefix[first]`, one subtraction per code whatever
//! the range's length; sparse columns sum the lists of the pages asked
//! for. The encoding stores plain per-page counts either way.
//!
//! The on-disk encoding (see [`DatasetSketch::encode`]) carries its own
//! trailing CRC32 and validates every length field before allocating, so
//! a truncated or corrupted sketch section fails with a one-line
//! [`StoreError::Corrupt`] instead of a panic.

#![deny(missing_docs)]
#![warn(clippy::all)]

use swope_store::crc32::crc32;
use swope_store::page::{PageGrid, PAGE_ROWS};
use swope_store::{for_packed, ByteReader, CodeRepr, PackedColumn, ReadError, StoreError};

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

/// One column's page histograms, in the layout its [`SketchKind`] names.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pages {
    /// Compact, stored *cumulatively*: row `p` of `support` entries holds
    /// the rows of pages `..p` carrying each code (`pages + 1` rows, the
    /// first all zero). A page's count and a page range's counts are both
    /// one subtraction per code, whatever the range's length.
    Cumulative(Vec<u64>),
    /// Sparse: per page, `(code, count)` sorted by code, zero counts
    /// omitted. Kept page by page: a cumulative row would cost `8·support`
    /// bytes a page, which is what this layout exists to avoid.
    Lists(Vec<Vec<(u32, u32)>>),
}

/// Per-page exact code histograms for one packed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSketch {
    support: u32,
    num_pages: usize,
    pages: Pages,
}

impl ColumnSketch {
    /// Builds the sketch from a packed column: one exact histogram per
    /// page of the column's grid, which leads with `lead` positions.
    /// Width-generic — the result depends only on the logical codes, not
    /// the storage width.
    pub fn build(column: &PackedColumn, lead: usize) -> Self {
        let grid = PageGrid::new(column.len(), lead);
        let mut b = ColumnSketchBuilder::new(column.support());
        for_packed!(column.codes(), |codes| {
            for page in 0..grid.count() {
                b.push_page(|counts| tally(&codes[grid.span(page)], counts));
            }
        });
        b.finish()
    }

    /// Builds the sketch from already-paged codes: one histogram per
    /// yielded page, which must be the column's pages in order.
    pub fn build_from_pages<'a>(
        support: u32,
        pages: impl IntoIterator<Item = &'a swope_store::PackedCodes>,
    ) -> Self {
        let mut b = ColumnSketchBuilder::new(support);
        for page in pages {
            for_packed!(page, |codes| b.push_page(|counts| tally(codes, counts)));
        }
        b.finish()
    }

    /// The column's support size.
    pub fn support(&self) -> u32 {
        self.support
    }

    /// The histogram layout in use.
    pub fn kind(&self) -> SketchKind {
        match self.pages {
            Pages::Cumulative(_) => SketchKind::Compact,
            Pages::Lists(_) => SketchKind::Sparse,
        }
    }

    /// Number of pages sketched.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Exact count of `code` within page `page` (0 for out-of-range).
    pub fn page_count(&self, page: usize, code: u32) -> u64 {
        if page >= self.num_pages || code >= self.support {
            return 0;
        }
        match &self.pages {
            Pages::Cumulative(prefix) => {
                let at = page * self.support as usize + code as usize;
                prefix[at + self.support as usize] - prefix[at]
            }
            Pages::Lists(lists) => {
                let entries = &lists[page];
                entries
                    .binary_search_by_key(&code, |&(c, _)| c)
                    .map_or(0, |i| u64::from(entries[i].1))
            }
        }
    }

    /// Exact per-code counts summed over the page range `pages`, clamped
    /// to the pages sketched (returned vector has `support` entries).
    pub fn range_counts(&self, pages: std::ops::Range<usize>) -> Vec<u64> {
        let u = self.support as usize;
        let end = pages.end.min(self.num_pages);
        let start = pages.start.min(end);
        match &self.pages {
            Pages::Cumulative(prefix) => {
                let (first, last) = (&prefix[start * u..][..u], &prefix[end * u..][..u]);
                last.iter().zip(first).map(|(l, f)| l - f).collect()
            }
            Pages::Lists(lists) => {
                let mut acc = vec![0u64; u];
                for &(code, count) in lists[start..end].iter().flatten() {
                    acc[code as usize] += u64::from(count);
                }
                acc
            }
        }
    }
}

/// Adds one to `counts[code]` for every code of a page.
fn tally<R: CodeRepr>(codes: &[R], counts: &mut [u32]) {
    for &c in codes {
        counts[c.widen() as usize] += 1;
    }
}

/// Incremental [`ColumnSketch`] construction, one page at a time.
///
/// The out-of-core sketch rebuild drives this from the pager, reading
/// each page in place; [`ColumnSketch::build_from_pages`] is a
/// convenience wrapper over it for pages already on the heap.
#[derive(Debug)]
pub struct ColumnSketchBuilder {
    counts: Vec<u32>,
    sketch: ColumnSketch,
}

impl ColumnSketchBuilder {
    /// Starts a sketch for a column with the given support.
    pub fn new(support: u32) -> Self {
        let kind = if support <= 256 { SketchKind::Compact } else { SketchKind::Sparse };
        Self::with_kind(support, kind)
    }

    fn with_kind(support: u32, kind: SketchKind) -> Self {
        let pages = match kind {
            SketchKind::Compact => Pages::Cumulative(vec![0; support as usize]),
            SketchKind::Sparse => Pages::Lists(Vec::new()),
        };
        Self {
            counts: vec![0u32; support as usize],
            sketch: ColumnSketch { support, num_pages: 0, pages },
        }
    }

    /// Appends the histogram for the next page: `tally` gets the
    /// per-code table (one zeroed entry per code of the support) and
    /// adds one to a code's entry for each row of the page holding it —
    /// however the caller's storage wants to be walked. Pages must arrive
    /// in order, each the positions its column's [`PageGrid`] puts on it.
    pub fn push_page(&mut self, tally: impl FnOnce(&mut [u32])) {
        self.counts.fill(0);
        tally(&mut self.counts);
        match &mut self.sketch.pages {
            Pages::Cumulative(_) => self.push_counts(),
            Pages::Lists(_) => {
                let nonzero = self.counts.iter().enumerate().filter(|&(_, &v)| v > 0);
                self.push_list(nonzero.map(|(code, &v)| (code as u32, v)).collect())
            }
        }
    }

    /// Appends a compact page whose histogram is in `self.counts`: the
    /// next cumulative row is the last one plus this page.
    fn push_counts(&mut self) {
        let Pages::Cumulative(prefix) = &mut self.sketch.pages else {
            unreachable!("compact pages are pushed onto a compact sketch")
        };
        let last = prefix.len() - self.counts.len();
        prefix.extend_from_within(last..);
        for (through, &count) in prefix[last + self.counts.len()..].iter_mut().zip(&self.counts) {
            *through += u64::from(count);
        }
        self.sketch.num_pages += 1;
    }

    /// Appends a sparse page's sorted nonzero `(code, count)` entries.
    fn push_list(&mut self, entries: Vec<(u32, u32)>) {
        let Pages::Lists(lists) = &mut self.sketch.pages else {
            unreachable!("sparse pages are pushed onto a sparse sketch")
        };
        lists.push(entries);
        self.sketch.num_pages += 1;
    }

    /// Finishes the sketch.
    pub fn finish(self) -> ColumnSketch {
        self.sketch
    }
}

/// Per-page count sketches for every column of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSketch {
    grid: PageGrid,
    columns: Vec<ColumnSketch>,
}

impl DatasetSketch {
    /// Assembles a dataset sketch from per-column sketches.
    ///
    /// `grid` is the dataset's pages; all columns must sketch every one.
    pub fn new(grid: PageGrid, columns: Vec<ColumnSketch>) -> Self {
        debug_assert!(columns.iter().all(|c| c.num_pages() == grid.count()));
        Self { grid, columns }
    }

    /// Builds sketches for an iterator of packed columns, stored on the
    /// pages `grid` cuts.
    pub fn build<'a>(grid: PageGrid, columns: impl IntoIterator<Item = &'a PackedColumn>) -> Self {
        let columns = columns.into_iter().map(|c| ColumnSketch::build(c, grid.lead())).collect();
        Self::new(grid, columns)
    }

    /// Number of rows the sketch covers.
    pub fn num_rows(&self) -> usize {
        self.grid.rows()
    }

    /// The pages the sketch covers.
    pub fn grid(&self) -> PageGrid {
        self.grid
    }

    /// Number of pages per column.
    pub fn num_pages(&self) -> usize {
        self.grid.count()
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
            len += match &col.pages {
                Pages::Cumulative(_) => col.num_pages * col.support as usize * 4,
                Pages::Lists(lists) => lists.iter().map(|e| 4 + e.len() * 8).sum(),
            };
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
        out.extend_from_slice(&(self.num_rows() as u64).to_le_bytes());
        out.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for col in &self.columns {
            out.extend_from_slice(&col.support.to_le_bytes());
            out.push(col.kind().tag());
            out.extend_from_slice(&(col.num_pages as u32).to_le_bytes());
            match &col.pages {
                // A page's counts are the difference of the cumulative
                // rows either side of it (≤ PAGE_ROWS, so they fit).
                Pages::Cumulative(prefix) => {
                    let u = col.support as usize;
                    for (before, through) in prefix.iter().zip(&prefix[u..]) {
                        out.extend_from_slice(&((through - before) as u32).to_le_bytes());
                    }
                }
                Pages::Lists(lists) => {
                    for entries in lists {
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

    /// Decodes an encoded sketch of pages whose grid leads with `lead`
    /// positions (the snapshot it sits in records it), validating the CRC
    /// and every length field before trusting (or allocating for) any
    /// content.
    pub fn decode(bytes: &[u8], lead: usize) -> Result<Self, StoreError> {
        let corrupt = |msg: &str| StoreError::Corrupt(format!("sketch: {msg}"));
        if bytes.len() < 24 + 4 {
            return Err(corrupt("truncated header"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let truncated = |_: ReadError| corrupt("truncated payload");
        let mut r = ByteReader::new(body);
        if r.take(4).map_err(truncated)? != SKETCH_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u16().map_err(truncated)?;
        if version != SKETCH_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let _flags = r.u16().map_err(truncated)?;
        let page_rows = r.u32().map_err(truncated)? as usize;
        if page_rows != PAGE_ROWS {
            return Err(corrupt(&format!("page_rows {page_rows} != {PAGE_ROWS}")));
        }
        let num_rows = r.u64().map_err(truncated)? as usize;
        let column_count = r.u32().map_err(truncated)? as usize;
        let grid = PageGrid::new(num_rows, lead);
        let expect_pages = grid.count();
        let mut columns = Vec::with_capacity(column_count.min(r.remaining()));
        for _ in 0..column_count {
            let support = r.u32().map_err(truncated)?;
            let tag = r.u8().map_err(truncated)?;
            let page_count = r.u32().map_err(truncated)? as usize;
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
            let mut column = ColumnSketchBuilder::with_kind(support, kind);
            for page in 0..page_count {
                let page_rows_here = grid.span(page).len() as u64;
                let rows: u64 = match kind {
                    SketchKind::Compact => {
                        let raw = r.take(support as usize * 4).map_err(truncated)?;
                        for (count, c) in column.counts.iter_mut().zip(raw.chunks_exact(4)) {
                            *count = u32::from_le_bytes(c.try_into().expect("4 bytes"));
                        }
                        column.push_counts();
                        column.counts.iter().map(|&v| u64::from(v)).sum()
                    }
                    SketchKind::Sparse => {
                        let entry_count = r.u32().map_err(truncated)? as usize;
                        if entry_count > r.remaining() / 8 {
                            return Err(corrupt("sparse entry count exceeds payload"));
                        }
                        let mut entries = Vec::with_capacity(entry_count);
                        let mut last: Option<u32> = None;
                        let mut rows = 0u64;
                        for _ in 0..entry_count {
                            let code = r.u32().map_err(truncated)?;
                            let count = r.u32().map_err(truncated)?;
                            if code >= support {
                                return Err(corrupt("sparse code out of support"));
                            }
                            if last.is_some_and(|l| code <= l) {
                                return Err(corrupt("sparse codes not strictly ascending"));
                            }
                            last = Some(code);
                            rows += u64::from(count);
                            entries.push((code, count));
                        }
                        column.push_list(entries);
                        rows
                    }
                };
                if rows != page_rows_here {
                    return Err(corrupt("page histogram row total mismatch"));
                }
            }
            columns.push(column.finish());
        }
        if r.remaining() > 0 {
            return Err(corrupt("trailing bytes after sketch payload"));
        }
        Ok(Self { grid, columns })
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
        let small = ColumnSketch::build(&packed(vec![0, 1, 2], 3), 0);
        assert_eq!(small.kind(), SketchKind::Compact);
        let wide = ColumnSketch::build(&packed(vec![0, 300], 500), 0);
        assert_eq!(wide.kind(), SketchKind::Sparse);
    }

    #[test]
    fn page_counts_are_exact() {
        // Two full pages plus a partial third.
        let n = 2 * PAGE_ROWS + 100;
        let codes: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
        let sk = ColumnSketch::build(&packed(codes.clone(), 5), 0);
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
    fn range_counts_equal_the_page_by_page_sum_for_every_range() {
        // Five pages (the last partial), one compact and one sparse
        // column: a range's counts, read as a difference of cumulative
        // rows or summed from lists, are the per-page counts added up.
        let n = 4 * PAGE_ROWS + 4321;
        for support in [7u32, 256, 700] {
            let codes = (0..n as u32).map(|i| (i / 3).wrapping_mul(2654435761) % support);
            let sk = ColumnSketch::build(&packed(codes.collect(), support), 0);
            assert_eq!(sk.num_pages(), 5);
            for first in 0..=5 {
                for last in first..=5 {
                    let summed: Vec<u64> = (0..support)
                        .map(|code| (first..last).map(|p| sk.page_count(p, code)).sum())
                        .collect();
                    assert_eq!(sk.range_counts(first..last), summed, "{support}: {first}..{last}");
                }
            }
            assert_eq!(sk.range_counts(3..9), sk.range_counts(3..5), "clamped to the pages held");
            assert_eq!(sk.page_count(5, 0) + sk.page_count(0, support), 0);
        }
    }

    #[test]
    fn build_from_pages_matches_whole_column_build() {
        use swope_store::PackedCodes;
        let n = 2 * PAGE_ROWS + 321;
        let codes: Vec<u32> = (0..n as u32).map(|i| (i * 17) % 900).collect();
        let whole = ColumnSketch::build(&packed(codes.clone(), 900), 0);
        let pages: Vec<PackedCodes> =
            codes.chunks(PAGE_ROWS).map(|chunk| PackedCodes::pack(chunk, Width::U16)).collect();
        let paged = ColumnSketch::build_from_pages(900, pages.iter());
        assert_eq!(paged, whole);
    }

    #[test]
    fn sketch_is_width_invariant() {
        let codes: Vec<u32> = (0..1000u32).map(|i| (i * 31) % 200).collect();
        let base = packed(codes, 200);
        let a = ColumnSketch::build(&base, 0);
        for w in [Width::U16, Width::U32] {
            let b = ColumnSketch::build(&base.repacked(w).unwrap(), 0);
            assert_eq!(a, b, "width {w}");
        }
    }

    #[test]
    fn roundtrip_mixed_kinds() {
        let n = PAGE_ROWS + 77;
        let c0: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let c1: Vec<u32> = (0..n as u32).map(|i| (i * 13) % 1000).collect();
        let cols = [packed(c0, 7), packed(c1, 1000)];
        let sk = DatasetSketch::build(PageGrid::whole(n), cols.iter());
        assert_eq!(sk.column(0).unwrap().kind(), SketchKind::Compact);
        assert_eq!(sk.column(1).unwrap().kind(), SketchKind::Sparse);
        let bytes = sk.encode();
        assert_eq!(bytes.len(), sk.encoded_len());
        let back = DatasetSketch::decode(&bytes, 0).unwrap();
        assert_eq!(sk, back);
    }

    /// A slice's sketch has its table's pages: the first holds what its
    /// grid leads with, and it decodes only on that grid.
    #[test]
    fn a_leading_grid_sketches_the_tables_pages() {
        let (n, lead) = (PAGE_ROWS + 77, 30_000);
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i >= 1_000)).collect();
        let cols = [packed(codes, 2), packed((0..n as u32).map(|i| i % 300).collect(), 300)];
        let grid = PageGrid::new(n, lead);
        let sk =
            DatasetSketch::new(grid, cols.iter().map(|c| ColumnSketch::build(c, lead)).collect());
        assert_eq!((sk.num_pages(), sk.grid()), (2, grid));
        assert_eq!(sk.column(0).unwrap().page_count(0, 1), (PAGE_ROWS - lead - 1_000) as u64);
        assert_eq!(sk.column(0).unwrap().page_count(1, 1), (n - (PAGE_ROWS - lead)) as u64);
        let bytes = sk.encode();
        assert_eq!(DatasetSketch::decode(&bytes, lead).unwrap(), sk);
        let err = DatasetSketch::decode(&bytes, 0).unwrap_err().to_string();
        assert!(err.contains("row total mismatch"), "{err}");
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let sk = DatasetSketch::build(PageGrid::whole(0), std::iter::empty());
        let back = DatasetSketch::decode(&sk.encode(), 0).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_pages(), 0);
    }

    #[test]
    fn truncation_at_every_prefix_errors_cleanly() {
        let codes: Vec<u32> = (0..300u32).map(|i| i % 9).collect();
        let sk = DatasetSketch::build(PageGrid::whole(300), [packed(codes, 9)].iter());
        let bytes = sk.encode();
        for len in 0..bytes.len() {
            let r = DatasetSketch::decode(&bytes[..len], 0);
            assert!(r.is_err(), "truncation to {len} bytes must fail");
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_silently() {
        let codes: Vec<u32> = (0..500u32).map(|i| (i * 3) % 400).collect();
        let sk = DatasetSketch::build(PageGrid::whole(500), [packed(codes, 400)].iter());
        let bytes = sk.encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xFF;
            // Either a clean error or (never) the original — a flipped byte
            // must not produce a silently different sketch.
            if let Ok(decoded) = DatasetSketch::decode(&bad, 0) {
                assert_eq!(decoded, sk, "byte {pos}");
            }
        }
    }

    #[test]
    fn crc_guards_payload() {
        let sk = DatasetSketch::build(PageGrid::whole(10), [packed(vec![0; 10], 2)].iter());
        let mut bytes = sk.encode();
        let last = bytes.len() - 5;
        bytes[last] ^= 1;
        let err = DatasetSketch::decode(&bytes, 0).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }
}
