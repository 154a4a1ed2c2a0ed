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
//! a page never costs more than `min(support, PAGE_ROWS)` entries. Memory
//! holds the pages as they are encoded, plus each column's exact
//! whole-dataset counts, summed once when the sketch is built or decoded.
//!
//! A sketch is built by a column read: [`ColumnSketchBuilder`] is a
//! [`CodeVisitor`] that tallies the codes of the page being read, and
//! [`ColumnSketchBuilder::end_page`] closes the page.
//!
//! The on-disk encoding (see [`DatasetSketch::encode`]) carries its own
//! trailing CRC32 and validates every length field before allocating, so
//! a truncated or corrupted sketch section fails with a one-line
//! [`StoreError::Corrupt`] instead of a panic.

#![deny(missing_docs)]
#![warn(clippy::all)]

use swope_store::crc32::crc32;
use swope_store::page::{PageGrid, PAGE_ROWS};
use swope_store::{ByteReader, CodeRepr, CodeVisitor, ReadError, StoreError};

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
    /// Compact: `support` counts a page, page after page, as encoded.
    Dense(Vec<u32>),
    /// Sparse: per page, `(code, count)` sorted by code, zero counts
    /// omitted.
    Lists(Vec<Vec<(u32, u32)>>),
}

/// Per-page exact code histograms for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSketch {
    support: u32,
    num_pages: usize,
    pages: Pages,
    /// Every code's count over all pages.
    totals: Vec<u64>,
}

impl ColumnSketch {
    /// The column's support size.
    pub fn support(&self) -> u32 {
        self.support
    }

    /// The histogram layout in use.
    pub fn kind(&self) -> SketchKind {
        match self.pages {
            Pages::Dense(_) => SketchKind::Compact,
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
            Pages::Dense(counts) => u64::from(counts[page * self.support as usize + code as usize]),
            Pages::Lists(lists) => {
                let entries = &lists[page];
                entries
                    .binary_search_by_key(&code, |&(c, _)| c)
                    .map_or(0, |i| u64::from(entries[i].1))
            }
        }
    }

    /// Exact per-code counts over every page (`support` entries).
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }
}

/// Incremental [`ColumnSketch`] construction, one page at a time.
///
/// A column read hands the builder a page's codes, in as many slices as
/// it likes; [`ColumnSketchBuilder::end_page`] then appends the page's
/// histogram. Pages must arrive in order, each the positions its
/// column's [`PageGrid`] puts on it.
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
            SketchKind::Compact => Pages::Dense(Vec::new()),
            SketchKind::Sparse => Pages::Lists(Vec::new()),
        };
        let totals = vec![0; support as usize];
        Self {
            counts: vec![0u32; support as usize],
            sketch: ColumnSketch { support, num_pages: 0, pages, totals },
        }
    }

    /// Appends the histogram of the codes visited since the last page.
    pub fn end_page(&mut self) {
        let nonzero = self.counts.iter().enumerate().filter(|&(_, &v)| v > 0);
        match &mut self.sketch.pages {
            Pages::Dense(pages) => {
                pages.extend_from_slice(&self.counts);
                for (code, &count) in nonzero {
                    self.sketch.totals[code] += u64::from(count);
                }
                self.sketch.num_pages += 1;
            }
            Pages::Lists(_) => self.push_list(nonzero.map(|(code, &v)| (code as u32, v)).collect()),
        }
        self.counts.fill(0);
    }

    /// Appends a sparse page's sorted nonzero `(code, count)` entries.
    fn push_list(&mut self, entries: Vec<(u32, u32)>) {
        let Pages::Lists(lists) = &mut self.sketch.pages else {
            unreachable!("sparse pages are pushed onto a sparse sketch")
        };
        for &(code, count) in &entries {
            self.sketch.totals[code as usize] += u64::from(count);
        }
        lists.push(entries);
        self.sketch.num_pages += 1;
    }

    /// Finishes the sketch.
    pub fn finish(self) -> ColumnSketch {
        self.sketch
    }
}

/// Tallies the codes of the page being read.
impl CodeVisitor for ColumnSketchBuilder {
    fn codes<R: CodeRepr>(&mut self, codes: &[R]) {
        for &c in codes {
            self.counts[c.widen() as usize] += 1;
        }
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
                Pages::Dense(counts) => counts.len() * 4,
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
                Pages::Dense(counts) => {
                    counts.iter().for_each(|count| out.extend_from_slice(&count.to_le_bytes()))
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
                        let rows = column.counts.iter().map(|&v| u64::from(v)).sum();
                        column.end_page();
                        rows
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
    use swope_store::{for_packed, PackedCodes, Width};

    /// The sketch of `codes` on the pages of a grid that leads with
    /// `lead` positions, each page visited whole.
    fn sketch(codes: &[u32], support: u32, lead: usize) -> ColumnSketch {
        let grid = PageGrid::new(codes.len(), lead);
        let mut b = ColumnSketchBuilder::new(support);
        for page in 0..grid.count() {
            b.codes(&codes[grid.span(page)]);
            b.end_page();
        }
        b.finish()
    }

    /// The sketch of columns of `(codes, support)` on whole pages.
    fn dataset(rows: usize, columns: &[(Vec<u32>, u32)]) -> DatasetSketch {
        let columns = columns.iter().map(|(codes, support)| sketch(codes, *support, 0)).collect();
        DatasetSketch::new(PageGrid::whole(rows), columns)
    }

    #[test]
    fn kind_follows_support() {
        let small = sketch(&[0, 1, 2], 3, 0);
        assert_eq!(small.kind(), SketchKind::Compact);
        let wide = sketch(&[0, 300], 500, 0);
        assert_eq!(wide.kind(), SketchKind::Sparse);
    }

    #[test]
    fn page_counts_are_exact() {
        // Two full pages plus a partial third, a compact and a sparse
        // column.
        let n = 2 * PAGE_ROWS + 100;
        for support in [5u32, 700] {
            let codes: Vec<u32> = (0..n as u32).map(|i| i % support).collect();
            let sk = sketch(&codes, support, 0);
            assert_eq!(sk.num_pages(), 3);
            for page in 0..3 {
                let lo = page * PAGE_ROWS;
                let hi = ((page + 1) * PAGE_ROWS).min(n);
                for code in [0, 1, 4, support - 1] {
                    let expect = codes[lo..hi].iter().filter(|&&c| c == code).count() as u64;
                    assert_eq!(sk.page_count(page, code), expect, "page {page} code {code}");
                }
            }
            assert_eq!(sk.page_count(3, 0) + sk.page_count(0, support), 0, "out of range");
            // The totals are every page's counts added up.
            let mut totals = vec![0u64; support as usize];
            codes.iter().for_each(|&c| totals[c as usize] += 1);
            assert_eq!(sk.totals(), totals, "support {support}");
        }
    }

    #[test]
    fn a_page_visited_in_blocks_sketches_like_one_visited_whole() {
        // A paged column's read hands a wide page over in blocks: the
        // page's histogram must not depend on where they split.
        let n = 2 * PAGE_ROWS + 321;
        let codes: Vec<u32> = (0..n as u32).map(|i| (i * 17) % 900).collect();
        let whole = sketch(&codes, 900, 0);
        let grid = PageGrid::whole(n);
        let mut b = ColumnSketchBuilder::new(900);
        for page in 0..grid.count() {
            codes[grid.span(page)].chunks(8192).for_each(|block| b.codes(block));
            b.end_page();
        }
        assert_eq!(b.finish(), whole);
    }

    #[test]
    fn sketch_is_width_invariant() {
        let codes: Vec<u32> = (0..1000u32).map(|i| (i * 31) % 200).collect();
        let a = sketch(&codes, 200, 0);
        for w in [Width::U8, Width::U16, Width::U32] {
            let mut b = ColumnSketchBuilder::new(200);
            for_packed!(&PackedCodes::pack(&codes, w), |packed| b.codes(packed));
            b.end_page();
            assert_eq!(a, b.finish(), "width {w}");
        }
    }

    #[test]
    fn roundtrip_mixed_kinds() {
        let n = PAGE_ROWS + 77;
        let c0: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let c1: Vec<u32> = (0..n as u32).map(|i| (i * 13) % 1000).collect();
        let sk = dataset(n, &[(c0, 7), (c1, 1000)]);
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
        let wide: Vec<u32> = (0..n as u32).map(|i| i % 300).collect();
        let grid = PageGrid::new(n, lead);
        let sk = DatasetSketch::new(grid, vec![sketch(&codes, 2, lead), sketch(&wide, 300, lead)]);
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
        let sk = dataset(0, &[]);
        let back = DatasetSketch::decode(&sk.encode(), 0).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_pages(), 0);
    }

    #[test]
    fn truncation_at_every_prefix_errors_cleanly() {
        let codes: Vec<u32> = (0..300u32).map(|i| i % 9).collect();
        let sk = dataset(300, &[(codes, 9)]);
        let bytes = sk.encode();
        for len in 0..bytes.len() {
            let r = DatasetSketch::decode(&bytes[..len], 0);
            assert!(r.is_err(), "truncation to {len} bytes must fail");
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_silently() {
        let codes: Vec<u32> = (0..500u32).map(|i| (i * 3) % 400).collect();
        let sk = dataset(500, &[(codes, 400)]);
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
        let sk = dataset(10, &[(vec![0; 10], 2)]);
        let mut bytes = sk.encode();
        let last = bytes.len() - 5;
        bytes[last] ^= 1;
        let err = DatasetSketch::decode(&bytes, 0).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }
}
