//! A column served page-by-page, in place, out of a [`Mapping`], with
//! lazy first-touch CRC validation and cache-managed residency.
//!
//! Opening a paged column parses and validates only *structure*: the
//! page-stream header, the arithmetic that fixes every page's byte
//! offset (pages before the last are always full, so offsets are a pure
//! function of the page index), and each 8-byte page header's row
//! count. Payload bytes are not read or checksummed until a query
//! actually touches a row in that page — which is the whole point:
//! sampling loops touch a sublinear fraction of rows, so most pages of a
//! large snapshot are never faulted at all.
//!
//! The mapping is the only copy. A read borrows the page's
//! little-endian payload straight out of the mapping as a [`PageView`]
//! and decodes each code as it is used (`u8` directly, `u16`/`u32` by
//! `from_le_bytes`, so a payload at an odd file offset needs no
//! alignment). On first touch a page's CRC and `max code < support` are
//! verified once — a corrupt page fails right there with the same
//! `page {i}: checksum mismatch` message the eager decoder uses — and
//! the verdict survives eviction. What the [`PageCache`] adds is the
//! accounting that makes a byte budget mean something: a cold page is
//! admitted (evicting others if need be) before it is read, and an
//! evicted page's bytes are released to the OS.

use std::iter;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use swope_store::page::{self, read_u32, PageGrid, PAGE_HEADER_BYTES};
use swope_store::{crc32::crc32, for_buf, gather_stats, Code, CodeBuf, CodeRepr, CodeVisitor};
use swope_store::{StoreError, Width, BLOCK_ROWS};

use crate::cache::{PageCache, RESIDENT, VALIDATED};
use crate::mapping::Mapping;

/// One page's codes, borrowed in place from the mapping: the page's
/// little-endian payload and the width to read it at.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    payload: &'a [u8],
    width: Width,
}

impl<'a> PageView<'a> {
    /// Codes in the view.
    pub fn len(&self) -> usize {
        self.payload.len() / self.width.bytes()
    }

    /// Whether the view holds no codes.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The codes as stored: `len()` little-endian integers of the
    /// column's width, the exact bytes the page's CRC covers.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// The code at `row` of the view. Panics if out of range.
    pub fn code(&self, row: usize) -> Code {
        let at = row * self.width.bytes();
        match self.width {
            Width::U8 => self.payload[at] as Code,
            Width::U16 => u16::from_le_bytes(le_bytes(&self.payload[at..])) as Code,
            Width::U32 => u32::from_le_bytes(le_bytes(&self.payload[at..])),
        }
    }

    /// The sub-view of `rows`. Panics if out of range.
    pub fn slice(&self, rows: Range<usize>) -> PageView<'a> {
        let w = self.width.bytes();
        PageView { payload: &self.payload[rows.start * w..rows.end * w], width: self.width }
    }

    /// Calls `f` with every code, in stored order. The width is dispatched
    /// once, outside the loop.
    pub fn for_each(&self, mut f: impl FnMut(Code)) {
        match self.width {
            Width::U8 => self.payload.iter().for_each(|&b| f(b as Code)),
            Width::U16 => self
                .payload
                .chunks_exact(2)
                .for_each(|b| f(u16::from_le_bytes(le_bytes(b)) as Code)),
            Width::U32 => {
                self.payload.chunks_exact(4).for_each(|b| f(u32::from_le_bytes(le_bytes(b))))
            }
        }
    }

    /// The codes, decoded into `out` at their width, replacing its
    /// contents.
    pub fn decode_into(&self, out: &mut CodeBuf) {
        match self.width {
            Width::U8 => cleared(u8::buf(out)).extend_from_slice(self.payload),
            Width::U16 => u16::extend_from_le_bytes(self.payload, cleared(u16::buf(out))),
            Width::U32 => u32::extend_from_le_bytes(self.payload, cleared(u32::buf(out))),
        }
    }

    fn max_code(&self) -> Option<Code> {
        let mut max = None;
        self.for_each(|c| max = max.max(Some(c)));
        max
    }
}

/// `v`, emptied.
fn cleared<T>(v: &mut Vec<T>) -> &mut Vec<T> {
    v.clear();
    v
}

/// The first `W` bytes of `bytes`, by value.
#[inline(always)]
fn le_bytes<const W: usize>(bytes: &[u8]) -> [u8; W] {
    bytes[..W].try_into().expect("sliced to W bytes")
}

/// A read-only column whose pages are read in place from a [`Mapping`]
/// and accounted resident in a shared [`PageCache`] on demand.
pub struct PagedColumn {
    /// This column, for the cache's eviction heap: to evict a page the
    /// cache must reach its state and byte range, without keeping an
    /// unloaded dataset's mapping alive.
    me: Weak<PagedColumn>,
    mapping: Arc<dyn Mapping>,
    cache: Arc<PageCache>,
    /// Offset of the page-stream header within the mapping.
    payload_start: usize,
    width: Width,
    support: u32,
    /// Which positions each page holds.
    grid: PageGrid,
    /// Per page: the `cache::{VALIDATED, RESIDENT}` bits.
    flags: Vec<AtomicU8>,
    /// Per page: the cache's tick at its last touch. Empty on an
    /// unbounded cache, which never asks.
    stamps: Vec<AtomicU64>,
}

impl Drop for PagedColumn {
    /// Pages die with their column: whatever it still had resident is
    /// uncharged, or an unloaded dataset would eat the budget for good.
    /// Nothing can race this — an eviction in flight holds an `Arc`.
    fn drop(&mut self) {
        self.cache.uncharge(self.resident_bytes());
    }
}

impl std::fmt::Debug for PagedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedColumn")
            .field("rows", &self.grid.rows())
            .field("support", &self.support)
            .field("width", &self.width)
            .field("pages", &self.flags.len())
            .field("mapping", &self.mapping.kind())
            .finish()
    }
}

impl PagedColumn {
    /// Opens the column payload at `payload` (byte range within
    /// `mapping`) holding `grid`'s codes at `width`. Validates the page
    /// stream's structure ([`page::check_stream`]) — but no payload
    /// bytes — so a corrupt page surfaces on first touch, not here.
    ///
    /// Reading a header through an mmap'd file makes the kernel map the
    /// OS pages around it too, which for a narrow column is the whole
    /// column. Under a byte budget the column's range is therefore
    /// released again before returning, so opening a snapshot never
    /// holds more than one column of it resident.
    pub fn open(
        mapping: Arc<dyn Mapping>,
        cache: Arc<PageCache>,
        payload: Range<usize>,
        grid: PageGrid,
        support: u32,
        width: Width,
    ) -> Result<Arc<Self>, StoreError> {
        let stream = mapping
            .bytes()
            .get(payload.clone())
            .ok_or_else(|| StoreError::Corrupt("column payload out of file bounds".into()))?;
        let page_count = page::check_stream(stream, grid, width)?;
        let budgeted = cache.budget_bytes().is_some();
        let stamped = if budgeted { page_count } else { 0 };
        let column = Arc::new_cyclic(|me| Self {
            me: me.clone(),
            mapping,
            cache,
            payload_start: payload.start,
            width,
            support,
            grid,
            flags: (0..page_count).map(|_| AtomicU8::new(0)).collect(),
            stamps: (0..stamped).map(|_| AtomicU64::new(0)).collect(),
        });
        if budgeted {
            column.mapping.release(payload);
        }
        Ok(column)
    }

    /// This column as the eviction heap holds it.
    pub(crate) fn weak(&self) -> Weak<PagedColumn> {
        self.me.clone()
    }

    /// The state bits of `page`.
    pub(crate) fn flags(&self, page: usize) -> &AtomicU8 {
        &self.flags[page]
    }

    /// The tick of `page`'s last touch. Budgeted caches only.
    pub(crate) fn stamp(&self, page: usize) -> &AtomicU64 {
        &self.stamps[page]
    }

    fn header_offset(&self, page: usize) -> usize {
        self.payload_start + page::page_offset(self.grid, page, self.width)
    }

    /// The byte range of `page`'s payload within the mapping.
    pub(crate) fn payload_range(&self, page: usize) -> Range<usize> {
        let rows = self.grid.span(page).len();
        let start = self.header_offset(page) + PAGE_HEADER_BYTES;
        start..start + rows * self.width.bytes()
    }

    /// Hands `page`'s bytes back to the OS (the cache's eviction).
    pub(crate) fn release(&self, page: usize) {
        self.mapping.release(self.payload_range(page));
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        self.grid.rows()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.grid.rows() == 0
    }

    /// Which positions each page holds.
    pub fn grid(&self) -> PageGrid {
        self.grid
    }

    /// Dictionary support (codes are `0..support`).
    pub fn support(&self) -> u32 {
        self.support
    }

    /// On-disk storage width (the width reads decode at).
    pub fn width(&self) -> Width {
        self.width
    }

    /// Number of pages backing the column.
    pub fn num_pages(&self) -> usize {
        self.flags.len()
    }

    /// `"mmap"` or `"read"` — which byte-source facility backs this
    /// column.
    pub fn mapping_kind(&self) -> &'static str {
        self.mapping.kind()
    }

    /// Bytes the column would occupy fully decoded (the heap-mode cost).
    pub fn plain_bytes(&self) -> u64 {
        (self.len() * self.width.bytes()) as u64
    }

    /// Bytes of this column's pages the cache currently counts resident.
    pub fn resident_bytes(&self) -> u64 {
        (0..self.flags.len())
            .filter(|&page| self.flags[page].load(Ordering::Relaxed) & RESIDENT != 0)
            .map(|page| self.payload_range(page).len() as u64)
            .sum()
    }

    /// The codes of page `index`, in place. A cold page is admitted to
    /// the cache first (and, on its first touch ever, CRC- and
    /// support-checked); a resident one costs a flag load, and on a
    /// budgeted cache a stamp of the touch — no lock either way. The view
    /// borrows the mapping, not the cache: it stays valid, and keeps
    /// reading the same codes, even if the page is evicted meanwhile.
    pub fn page(&self, index: usize) -> Result<PageView<'_>, StoreError> {
        let seen = self.flags[index].load(Ordering::Relaxed);
        if seen & RESIDENT == 0 {
            self.fault(index, seen)?;
        } else if let Some(stamp) = self.stamps.get(index) {
            self.cache.touch(stamp);
        }
        let payload = &self.mapping.bytes()[self.payload_range(index)];
        Ok(PageView { payload, width: self.width })
    }

    /// The cold path of [`page`](Self::page): verify on first touch,
    /// then have the cache count the page resident. The checks are
    /// idempotent and read only immutable bytes, so they run outside
    /// any lock; two threads meeting on a fresh page both verify it.
    #[cold]
    fn fault(&self, index: usize, seen: u8) -> Result<(), StoreError> {
        let started = Instant::now();
        if seen & VALIDATED == 0 {
            let file = self.mapping.bytes();
            let stored = read_u32(file, self.header_offset(index) + 4);
            let view = PageView { payload: &file[self.payload_range(index)], width: self.width };
            self.cache.note_crc_validation();
            if crc32(view.payload) != stored {
                return Err(StoreError::Corrupt(format!("page {index}: checksum mismatch")));
            }
            if let Some(max) = view.max_code().filter(|&max| max >= self.support) {
                return Err(StoreError::Corrupt(format!(
                    "page {index}: code {max} out of range for support {}",
                    self.support
                )));
            }
            self.flags[index].fetch_or(VALIDATED, Ordering::Relaxed);
        }
        self.cache.admit(self, index, started);
        Ok(())
    }

    /// A single-position read paying one page fault at worst. Anything
    /// iterative wants [`gather`](Self::gather) (sampled positions) or
    /// [`read`](Self::read) (runs and scans).
    pub fn try_code(&self, row: usize) -> Result<Code, StoreError> {
        assert!(row < self.len(), "row {row} out of range for {} rows", self.len());
        let index = self.grid.page_of(row);
        Ok(self.page(index)?.code(row - self.grid.span(index).start))
    }

    /// Panicking [`try_code`](Self::try_code) for cold single-row reads.
    pub fn code(&self, row: usize) -> Code {
        self.try_code(row).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Gathers the codes at `positions` into `out` at the column's native
    /// width, replacing its contents: `out[i]` is the code at
    /// `positions[i]` — the paged twin of [`swope_store::gather`], booked
    /// into the same [`gather_stats`] counters.
    ///
    /// A page is looked up once per run of adjacent positions it holds,
    /// and the width is dispatched once per call. Any order is correct; a
    /// sample's list, drawn page by page, touches each page once. A
    /// corrupt page is an `Err` naming the page.
    pub fn gather(&self, positions: &[u32], out: &mut CodeBuf) -> Result<(), StoreError> {
        let start = gather_stats::enabled().then(Instant::now);
        let gathered = match self.width {
            Width::U8 => self.gather_with(positions, cleared(u8::buf(out)), |[b]: [u8; 1]| b),
            Width::U16 => self.gather_with(positions, cleared(u16::buf(out)), u16::from_le_bytes),
            Width::U32 => self.gather_with(positions, cleared(u32::buf(out)), u32::from_le_bytes),
        };
        if let Some(start) = start {
            gather_stats::record(positions.len(), start.elapsed().as_nanos() as u64);
        }
        gathered
    }

    /// [`gather`](Self::gather) widened to `u32` and appended to `out`,
    /// for a buffer that outlives the column's width (the MI target's
    /// codes, read by every candidate).
    pub fn gather_widen(&self, rows: &[u32], out: &mut Vec<Code>) -> Result<(), StoreError> {
        match self.width {
            Width::U8 => self.gather_with(rows, out, |[b]: [u8; 1]| b as Code),
            Width::U16 => self.gather_with(rows, out, |b| u16::from_le_bytes(b) as Code),
            Width::U32 => self.gather_with(rows, out, u32::from_le_bytes),
        }
    }

    /// The run walk under both gathers, appending to `out`: finds the page
    /// of the first unread position, decodes every adjacent position that
    /// page also holds from its `W`-byte little-endian codes in one pass,
    /// repeats.
    fn gather_with<const W: usize, T: Copy + Default>(
        &self,
        rows: &[u32],
        out: &mut Vec<T>,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<(), StoreError> {
        let from = out.len();
        out.resize(from + rows.len(), T::default());
        let out = &mut out[from..];
        let mut done = 0;
        while let Some(&first) = rows.get(done) {
            let first = first as usize;
            assert!(first < self.len(), "row {first} out of range for {} rows", self.len());
            let index = self.grid.page_of(first);
            let base = self.grid.span(index).start;
            let payload = self.page(index)?.payload;
            let held = payload.len() / W;
            // A row below `base` wraps to a huge offset, so the one
            // comparison ends the run on either side.
            let mut run = 0;
            for (slot, &r) in out[done..].iter_mut().zip(&rows[done..]) {
                let at = (r as usize).wrapping_sub(base);
                if at >= held {
                    break;
                }
                *slot = decode(le_bytes(&payload[at * W..]));
                run += 1;
            }
            assert!(run > 0, "page {index} does not hold the row that named it");
            done += run;
        }
        Ok(())
    }

    /// Hands the codes of each run of positions to `visitor`, in order,
    /// one page slice at a time: a `u8` slice as it is stored, a `u16`
    /// or `u32` one decoded into `buf` at most [`BLOCK_ROWS`] codes at a
    /// time. A full scan admits one page at a time, so it stays within
    /// budget; a corrupt page is an `Err` naming the page. Out of line,
    /// so a caller's heap path compiles as if this did not exist.
    #[inline(never)]
    pub fn read(
        &self,
        runs: impl IntoIterator<Item = Range<u32>>,
        buf: &mut CodeBuf,
        visitor: &mut impl CodeVisitor,
    ) -> Result<(), StoreError> {
        for run in runs {
            let (mut at, end) = (run.start as usize, run.end as usize);
            while at < end {
                let index = self.grid.page_of(at);
                let span = self.grid.span(index);
                let stop = end.min(span.end);
                let view = self.page(index)?.slice(at - span.start..stop - span.start);
                match self.width {
                    Width::U8 => visitor.codes(view.payload),
                    width => {
                        for block in view.payload.chunks(BLOCK_ROWS * width.bytes()) {
                            PageView { payload: block, width }.decode_into(buf);
                            for_buf!(&*buf, |codes| visitor.codes(codes));
                        }
                    }
                }
                at = stop;
            }
        }
        Ok(())
    }

    /// The whole column widened to `u32` — a materializing full scan;
    /// only for cold paths (equality checks, snapshot rewrite).
    pub fn to_codes(&self) -> Result<Vec<Code>, StoreError> {
        let mut out = Vec::with_capacity(self.len());
        self.read(iter::once(0..self.len() as u32), &mut CodeBuf::new(), &mut out)?;
        Ok(out)
    }

    /// Occurrences of every code, one full scan, one page at a time.
    pub fn value_counts(&self) -> Result<Vec<u64>, StoreError> {
        let mut counts = vec![0u64; self.support as usize];
        for index in 0..self.num_pages() {
            self.page(index)?.for_each(|c| counts[c as usize] += 1);
        }
        Ok(counts)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mapping::HeapMapping;
    use std::sync::Mutex;
    use swope_store::page::{encode_pages, PAGE_ROWS, STREAM_HEADER_BYTES};
    use swope_store::PackedCodes;

    /// A heap-backed mapping that logs every range it is asked to
    /// release.
    pub(crate) struct CountingMapping {
        bytes: Vec<u8>,
        released: Mutex<Vec<Range<usize>>>,
    }

    impl CountingMapping {
        /// The ranges released since the last call, in order.
        pub(crate) fn released(&self) -> Vec<Range<usize>> {
            std::mem::take(&mut *self.released.lock().unwrap())
        }
    }

    impl Mapping for CountingMapping {
        fn bytes(&self) -> &[u8] {
            &self.bytes
        }
        fn kind(&self) -> &'static str {
            "read"
        }
        fn release(&self, range: Range<usize>) {
            self.released.lock().unwrap().push(range);
        }
    }

    pub(crate) fn column_bytes(rows: usize, support: u32) -> (Vec<u8>, Vec<Code>) {
        let codes: Vec<Code> =
            (0..rows as u32).map(|i| i.wrapping_mul(2654435761) % support).collect();
        let packed = PackedCodes::pack(&codes, Width::for_support(support));
        (encode_pages(&packed, PageGrid::whole(rows)), codes)
    }

    /// `bytes` opened as one column at the narrowest width for `support`,
    /// and the mapping under it.
    pub(crate) fn open_on(
        bytes: Vec<u8>,
        rows: usize,
        support: u32,
        cache: Arc<PageCache>,
    ) -> Result<(Arc<PagedColumn>, Arc<CountingMapping>), StoreError> {
        let len = bytes.len();
        let mapping = Arc::new(CountingMapping { bytes, released: Mutex::default() });
        let width = Width::for_support(support);
        PagedColumn::open(mapping.clone(), cache, 0..len, PageGrid::whole(rows), support, width)
            .map(|col| (col, mapping))
    }

    fn open(
        bytes: Vec<u8>,
        rows: usize,
        support: u32,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedColumn>, StoreError> {
        open_on(bytes, rows, support, cache).map(|(col, _)| col)
    }

    /// The longest slice a read handed over.
    #[derive(Default)]
    struct Longest(usize);

    impl CodeVisitor for Longest {
        fn codes<R: CodeRepr>(&mut self, codes: &[R]) {
            self.0 = self.0.max(codes.len());
        }
    }

    #[test]
    fn reads_match_eager_decode_across_pages() {
        let rows = 2 * PAGE_ROWS + 1234;
        for support in [100u32, 300, 70_000] {
            let (bytes, codes) = column_bytes(rows, support);
            let col = open(bytes, rows, support, Arc::new(PageCache::unbounded())).unwrap();
            assert_eq!(col.num_pages(), 3);
            for (i, &want) in codes.iter().enumerate().step_by(977) {
                assert_eq!(col.code(i), want, "row {i}");
            }
            assert_eq!(col.to_codes().unwrap(), codes);
            // Runs that cross page boundaries, read in place: a `u8` page
            // slice whole, a wider one in blocks.
            let mut buf = CodeBuf::new();
            for run in [0..1, 7..7, PAGE_ROWS - 5..PAGE_ROWS + 5, 10..rows - 10, rows - 1..rows] {
                let mut got = Vec::new();
                let positions = run.start as u32..run.end as u32;
                col.read(iter::once(positions), &mut buf, &mut got).unwrap();
                assert_eq!(got, codes[run.clone()], "support {support}, {run:?}");
            }
            let mut longest = Longest::default();
            col.read(iter::once(0..rows as u32), &mut buf, &mut longest).unwrap();
            let most = if col.width() == Width::U8 { PAGE_ROWS } else { BLOCK_ROWS };
            assert_eq!(longest.0, most, "support {support}");
        }
    }

    /// A column that leads with a short first page reads every position
    /// where its grid puts it: one at a time, gathered and scanned.
    #[test]
    fn a_leading_grid_reads_every_position_in_place() {
        let (rows, lead) = (2 * PAGE_ROWS + 99, 40_000);
        let grid = PageGrid::new(rows, lead);
        let codes: Vec<Code> = (0..rows as u32).map(|i| i.wrapping_mul(2654435761) % 300).collect();
        let bytes = encode_pages(&PackedCodes::pack(&codes, Width::U16), grid);
        let len = bytes.len();
        let mapping = Arc::new(HeapMapping::from(bytes));
        let cache = Arc::new(PageCache::unbounded());
        let col = PagedColumn::open(mapping, cache, 0..len, grid, 300, Width::U16).unwrap();
        assert_eq!(col.num_pages(), 3);
        for at in [0, PAGE_ROWS - lead - 1, PAGE_ROWS - lead, 2 * PAGE_ROWS - lead, rows - 1] {
            assert_eq!(col.code(at), codes[at], "position {at}");
        }
        let positions: Vec<u32> = (0..rows as u32).step_by(331).collect();
        let mut got = Vec::new();
        col.gather_widen(&positions, &mut got).unwrap();
        assert_eq!(got, positions.iter().map(|&p| codes[p as usize]).collect::<Vec<_>>());
        let mut scanned = Vec::new();
        let across = PAGE_ROWS - lead - 7..2 * PAGE_ROWS - lead + 7;
        let positions = across.start as u32..across.end as u32;
        col.read(iter::once(positions), &mut CodeBuf::new(), &mut scanned).unwrap();
        assert_eq!(scanned, codes[across]);
        assert_eq!(col.to_codes().unwrap(), codes);
    }

    #[test]
    fn open_touches_no_payload_and_first_touch_validates_crc() {
        let rows = 3 * PAGE_ROWS;
        let (mut bytes, _) = column_bytes(rows, 100);
        // Corrupt one payload byte in page 1.
        let off = STREAM_HEADER_BYTES + 2 * PAGE_HEADER_BYTES + PAGE_ROWS + 17;
        bytes[off] ^= 0xFF;
        let cache = Arc::new(PageCache::unbounded());
        let col = open(bytes, rows, 100, cache.clone()).unwrap(); // open succeeds
        assert_eq!(cache.snapshot().crc_validations, 0);
        // Pages 0 and 2 fault fine.
        assert!(col.try_code(0).is_ok());
        assert!(col.try_code(2 * PAGE_ROWS + 5).is_ok());
        // Page 1 fails on first touch, naming itself.
        let err = col.try_code(PAGE_ROWS + 100).unwrap_err();
        assert_eq!(err.to_string(), "corrupt store data: page 1: checksum mismatch");
        assert_eq!(cache.snapshot().crc_validations, 3);
        // A page that failed is never admitted.
        assert_eq!(cache.snapshot().faults, 2);
        // Touching an already-validated page again skips the CRC pass.
        assert!(col.try_code(1).is_ok());
        assert_eq!(cache.snapshot().crc_validations, 3);
    }

    #[test]
    fn corrupt_header_row_count_fails_at_open() {
        let rows = PAGE_ROWS + 10;
        let (mut bytes, _) = column_bytes(rows, 100);
        let off = STREAM_HEADER_BYTES; // page 0's rows field
        bytes[off..off + 4].copy_from_slice(&7u32.to_le_bytes());
        let err = open(bytes, rows, 100, Arc::new(PageCache::unbounded())).unwrap_err();
        assert!(err.to_string().contains("page 0: invalid row count 7"), "{err}");
    }

    #[test]
    fn budget_eviction_keeps_reads_identical() {
        let rows = 4 * PAGE_ROWS;
        let support = 50_000; // u16 pages of 128 KiB
        let (bytes, codes) = column_bytes(rows, support);
        // Budget below two pages: every page-crossing read evicts.
        let cache = Arc::new(PageCache::new(Some((PAGE_ROWS * 2 - 1000) as u64)));
        let col = open(bytes, rows, support, cache.clone()).unwrap();
        for pass in 0..3 {
            for (i, &want) in codes.iter().enumerate().step_by(4999) {
                assert_eq!(col.code(i), want, "pass {pass} row {i}");
            }
        }
        let snap = cache.snapshot();
        assert!(snap.evictions > 0, "budget never forced an eviction");
        // Each page is checked once, however often it is refetched.
        assert_eq!(snap.crc_validations, 4);
        assert!(snap.faults > 4, "{} faults", snap.faults);
        // u16 pages: one is larger than the budget, so residency is
        // exactly the one-page overshoot allowance and never two.
        assert_eq!(snap.peak_resident_bytes, (PAGE_ROWS * 2) as u64);
    }

    #[test]
    fn a_budgeted_open_releases_the_column_and_an_unbounded_one_does_not() {
        let rows = 2 * PAGE_ROWS;
        let (bytes, _) = column_bytes(rows, 100);
        let len = bytes.len();
        for (budget, want) in [(Some(1 << 20), Some(0..len)), (None, None)] {
            let cache = Arc::new(PageCache::new(budget));
            let (col, mapping) = open_on(bytes.clone(), rows, 100, cache).unwrap();
            assert_eq!(mapping.released(), Vec::from_iter(want), "budget {budget:?}");
            assert_eq!(col.resident_bytes(), 0);
        }
    }

    #[test]
    fn out_of_range_codes_fail_on_touch() {
        let rows = 100;
        let codes: Vec<Code> = vec![90; rows];
        let packed = PackedCodes::pack(&codes, Width::U8);
        let bytes = encode_pages(&packed, PageGrid::whole(packed.len()));
        // Declare a support smaller than the stored codes.
        let col = open(bytes, rows, 50, Arc::new(PageCache::unbounded())).unwrap();
        let err = col.try_code(0).unwrap_err();
        assert!(err.to_string().contains("code 90 out of range"), "{err}");
    }

    #[test]
    fn value_counts_and_scan_visit_every_row_once() {
        let rows = PAGE_ROWS + 777;
        let (bytes, codes) = column_bytes(rows, 32);
        let col = open(bytes, rows, 32, Arc::new(PageCache::new(Some(1)))).unwrap();
        let counts = col.value_counts().unwrap();
        let mut want = vec![0u64; 32];
        for &c in &codes {
            want[c as usize] += 1;
        }
        assert_eq!(counts, want);
        let mut seen = Vec::new();
        col.read(iter::once(10..rows as u32 - 10), &mut CodeBuf::new(), &mut seen).unwrap();
        // The range crosses into the second page: one view per page, of
        // exactly the codes in the range.
        assert_eq!(seen, codes[10..rows - 10]);
    }

    #[test]
    fn page_views_slice_and_index_like_the_codes_they_borrow() {
        for support in [200u32, 40_000, 90_000] {
            let rows = PAGE_ROWS + 50;
            let (bytes, codes) = column_bytes(rows, support);
            let col = open(bytes, rows, support, Arc::new(PageCache::unbounded())).unwrap();
            let tail = col.page(1).unwrap();
            assert_eq!((tail.len(), tail.is_empty()), (50, false));
            assert_eq!(tail.payload().len(), 50 * col.width().bytes());
            assert_eq!(tail.code(49), codes[PAGE_ROWS + 49]);
            let mid = tail.slice(10..20);
            let mut got = Vec::new();
            mid.for_each(|c| got.push(c));
            assert_eq!(got, codes[PAGE_ROWS + 10..PAGE_ROWS + 20]);
            let mut decoded = CodeBuf::new();
            mid.decode_into(&mut decoded);
            let decoded: Vec<Code> =
                swope_store::for_buf!(&decoded, |c| c.iter().map(|&c| c.widen()).collect());
            assert_eq!(got, decoded, "{}", col.width());
            assert!(tail.slice(7..7).is_empty());
        }
    }

    #[test]
    fn heap_mapping_backed_file_round_trips() {
        let rows = PAGE_ROWS / 2;
        let (bytes, codes) = column_bytes(rows, 70_000);
        let path = std::env::temp_dir().join(format!("swope-pager-col-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapping: Arc<dyn Mapping> = Arc::new(HeapMapping::open(&path).unwrap());
        let col = PagedColumn::open(
            mapping,
            Arc::new(PageCache::unbounded()),
            0..bytes.len(),
            PageGrid::whole(rows),
            70_000,
            Width::U32,
        )
        .unwrap();
        assert_eq!(col.to_codes().unwrap(), codes);
        std::fs::remove_file(&path).ok();
    }
}
