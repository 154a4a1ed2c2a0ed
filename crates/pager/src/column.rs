//! A column served page-by-page out of a [`Mapping`], with lazy
//! first-touch CRC validation and cache-managed residency.
//!
//! Opening a paged column parses and validates only *structure*: the
//! page-stream header, the arithmetic that fixes every page's byte
//! offset (pages before the last are always full, so offsets are a pure
//! function of the page index), and each 8-byte page header's row
//! count. Payload bytes are not read, checksummed, or decoded until a
//! query actually touches a row in that page — which is the whole point:
//! sampling loops touch a sublinear fraction of rows, so most pages of a
//! large snapshot are never faulted at all.
//!
//! On first touch a page's CRC is verified once (a corrupt page fails
//! right there with the same `page {i}: checksum mismatch` message the
//! eager decoder uses), its codes are decoded through the width-generic
//! [`CodeRepr`] path into a [`PackedCodes`], and the decoded bytes are
//! admitted to the [`PageCache`]. Refaults of an evicted page skip the
//! CRC re-check (the `validated` bit survives eviction) and, when the
//! page was kept compressed, skip the mapping entirely.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use swope_store::page::{PAGE_HEADER_BYTES, STREAM_HEADER_BYTES};
use swope_store::rle::{self, PageEncoding};
use swope_store::{
    crc32::crc32, for_packed, gather_stats, Code, CodeBuf, CodeRepr, PackedCodes, StoreError, Width,
};

use crate::cache::{PageCache, PageSlot, SlotState};
use crate::mapping::Mapping;

/// A read-only column whose pages live in a [`Mapping`] and fault into
/// a shared [`PageCache`] on demand.
pub struct PagedColumn {
    mapping: Arc<dyn Mapping>,
    cache: Arc<PageCache>,
    /// Offset of the page-stream header within the mapping.
    payload_start: usize,
    width: Width,
    support: u32,
    rows: usize,
    page_rows: usize,
    slots: Vec<Arc<PageSlot>>,
}

impl std::fmt::Debug for PagedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedColumn")
            .field("rows", &self.rows)
            .field("support", &self.support)
            .field("width", &self.width)
            .field("pages", &self.slots.len())
            .field("mapping", &self.mapping.kind())
            .finish()
    }
}

impl PagedColumn {
    /// Opens the column payload at `payload` (byte range within
    /// `mapping`) holding `rows` codes of `width`. Validates the page
    /// stream's structure and every page header's row count — but no
    /// payload bytes — so a corrupt page surfaces on first touch, not
    /// here. `picks` carries the per-page eviction encoding chosen from
    /// the sketch histogram (ignored unless one pick per page).
    pub fn open(
        mapping: Arc<dyn Mapping>,
        cache: Arc<PageCache>,
        payload: Range<usize>,
        rows: usize,
        support: u32,
        width: Width,
        picks: Option<Vec<PageEncoding>>,
    ) -> Result<Self, StoreError> {
        let file = mapping.bytes();
        if payload.start > payload.end || payload.end > file.len() {
            return Err(StoreError::Corrupt("column payload out of file bounds".into()));
        }
        let mut buf = &file[payload.clone()];
        let payload_len = buf.len();
        let page_rows = get_u32(&mut buf)? as usize;
        let page_count = get_u32(&mut buf)? as usize;
        if page_rows == 0 && rows > 0 {
            return Err(StoreError::Corrupt("page size of zero rows".into()));
        }
        let expect_pages = if page_rows == 0 { 0 } else { rows.div_ceil(page_rows) };
        if page_count != expect_pages {
            return Err(StoreError::Corrupt(format!(
                "page count {page_count} disagrees with {rows} rows at {page_rows} rows/page"
            )));
        }
        let need = STREAM_HEADER_BYTES as u64
            + (page_count as u64) * (PAGE_HEADER_BYTES as u64)
            + (rows as u64) * (width.bytes() as u64);
        if payload_len as u64 != need {
            return Err(StoreError::Corrupt(format!(
                "column payload is {payload_len} bytes, expected {need}"
            )));
        }
        // Every page before the last is full, so page offsets are pure
        // arithmetic — but only if the headers agree. Check the 8-byte
        // headers now (payloads stay untouched).
        for page in 0..page_count {
            let expect = (rows - page * page_rows).min(page_rows);
            let off = header_offset(payload.start, page, page_rows, width);
            let got = read_u32(file, off) as usize;
            if got != expect {
                return Err(StoreError::Corrupt(format!("page {page}: invalid row count {got}")));
            }
        }
        let picks = picks.filter(|p| p.len() == page_count);
        let slots = (0..page_count)
            .map(|i| {
                let pick = picks.as_ref().map_or(PageEncoding::Plain, |p| p[i]);
                Arc::new(PageSlot::new(pick))
            })
            .collect();
        Ok(Self {
            mapping,
            cache,
            payload_start: payload.start,
            width,
            support,
            rows,
            page_rows,
            slots,
        })
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Dictionary support (codes are `0..support`).
    pub fn support(&self) -> u32 {
        self.support
    }

    /// On-disk (and decoded) storage width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// Number of pages backing the column.
    pub fn num_pages(&self) -> usize {
        self.slots.len()
    }

    /// Rows per full page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// `"mmap"` or `"read"` — which byte-source facility backs this
    /// column.
    pub fn mapping_kind(&self) -> &'static str {
        self.mapping.kind()
    }

    /// Bytes the column would occupy fully decoded (the heap-mode cost).
    pub fn plain_bytes(&self) -> u64 {
        (self.rows * self.width.bytes()) as u64
    }

    /// Bytes of this column currently resident (hot + compressed tiers).
    pub fn resident_bytes(&self) -> u64 {
        let mut total = 0u64;
        for slot in &self.slots {
            match &*slot.state.lock().expect("slot lock") {
                SlotState::Cold => {}
                SlotState::Hot { bytes, .. } => total += bytes,
                SlotState::Compressed { page } => total += page.bytes_len() as u64,
            }
        }
        total
    }

    /// Faults page `index` resident and returns its decoded codes. The
    /// returned `Arc` pins the page against eviction while held.
    pub fn page(&self, index: usize) -> Result<Arc<PackedCodes>, StoreError> {
        let slot = &self.slots[index];
        slot.refbit.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut st = slot.state.lock().expect("slot lock");
        match &*st {
            SlotState::Hot { page, .. } => return Ok(page.clone()),
            SlotState::Compressed { page } => {
                let start = Instant::now();
                let decoded = rle::decompress(page)
                    .map_err(|e| StoreError::Corrupt(format!("page {index}: {e}")))?;
                let clen = page.bytes_len() as u64;
                let bytes = decoded.bytes() as u64;
                let decoded = Arc::new(decoded);
                self.cache.note_decompression(start.elapsed());
                self.cache.promote_compressed(slot, clen, bytes);
                *st = SlotState::Hot { page: decoded.clone(), bytes };
                return Ok(decoded);
            }
            SlotState::Cold => {}
        }
        // Cold: decode from the mapping, CRC-checking on first touch.
        let start = Instant::now();
        let file = self.mapping.bytes();
        let off = header_offset(self.payload_start, index, self.page_rows, self.width);
        let rows = read_u32(file, off) as usize;
        let crc = read_u32(file, off + 4);
        let payload =
            &file[off + PAGE_HEADER_BYTES..off + PAGE_HEADER_BYTES + rows * self.width.bytes()];
        if !slot.validated.load(std::sync::atomic::Ordering::Relaxed) {
            self.cache.note_crc_validation();
            if crc32(payload) != crc {
                return Err(StoreError::Corrupt(format!("page {index}: checksum mismatch")));
            }
            slot.validated.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        let decoded = decode_payload(payload, rows, self.width);
        if let Some(max) = decoded.max_code() {
            if max >= self.support {
                return Err(StoreError::Corrupt(format!(
                    "page {index}: code {max} out of range for support {}",
                    self.support
                )));
            }
        }
        let bytes = decoded.bytes() as u64;
        let decoded = Arc::new(decoded);
        self.cache.register(slot);
        self.cache.note_fault(start.elapsed());
        self.cache.admit(slot, bytes);
        *st = SlotState::Hot { page: decoded.clone(), bytes };
        Ok(decoded)
    }

    /// A single-row read paying one page fault at worst. Anything
    /// iterative wants [`gather`](Self::gather) (sampled rows) or
    /// [`try_for_each_page`](Self::try_for_each_page) (scans).
    pub fn try_code(&self, row: usize) -> Result<Code, StoreError> {
        assert!(row < self.rows, "row {row} out of range for {} rows", self.rows);
        let page = self.page(row / self.page_rows)?;
        Ok(page.code(row % self.page_rows))
    }

    /// Panicking [`try_code`](Self::try_code) for cold single-row reads.
    pub fn code(&self, row: usize) -> Code {
        self.try_code(row).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Gathers `rows` into `out` at the column's native width, replacing
    /// its contents: `out[i]` is the code at `rows[i]` — the paged twin
    /// of [`swope_store::gather`], booked into the same
    /// [`gather_stats`] counters.
    ///
    /// A page is pinned once per run of adjacent rows it holds, one page
    /// at a time, and the width is dispatched once per call. Any row
    /// order is correct; a list reordered by [`PageGrouper`] pins every
    /// touched page exactly once, which is what makes a shuffled sample
    /// read at heap speed. A corrupt page is an `Err` naming the page.
    ///
    /// [`PageGrouper`]: crate::PageGrouper
    pub fn gather(&self, rows: &[u32], out: &mut CodeBuf) -> Result<(), StoreError> {
        let start = gather_stats::enabled().then(Instant::now);
        let gathered = match self.width {
            Width::U8 => self.gather_with(rows, u8::buf(out), |c: u8| c),
            Width::U16 => self.gather_with(rows, u16::buf(out), |c: u16| c),
            Width::U32 => self.gather_with(rows, u32::buf(out), |c: u32| c),
        };
        if let Some(start) = start {
            gather_stats::record(rows.len(), start.elapsed().as_nanos() as u64);
        }
        gathered
    }

    /// [`gather`](Self::gather) widened to `u32` — the paged analogue of
    /// `PackedCodes::gather_widen`, for buffers shared across columns of
    /// different widths (MI target codes, the batch engine's blocks).
    pub fn gather_widen(&self, rows: &[u32], out: &mut Vec<Code>) -> Result<(), StoreError> {
        match self.width {
            Width::U8 => self.gather_with(rows, out, u8::widen),
            Width::U16 => self.gather_with(rows, out, u16::widen),
            Width::U32 => self.gather_with(rows, out, u32::widen),
        }
    }

    /// The run walk under both gathers: pins the page of the first
    /// unread row, copies every adjacent row that page also holds in one
    /// pass, releases it, repeats.
    fn gather_with<R: CodeRepr, T: Copy + Default>(
        &self,
        rows: &[u32],
        out: &mut Vec<T>,
        map: impl Fn(R) -> T,
    ) -> Result<(), StoreError> {
        out.clear();
        out.resize(rows.len(), T::default());
        let mut done = 0;
        while let Some(&first) = rows.get(done) {
            let first = first as usize;
            assert!(first < self.rows, "row {first} out of range for {} rows", self.rows);
            let index = first / self.page_rows;
            let base = index * self.page_rows;
            let page = self.page(index)?;
            let codes = R::unpack(&page).expect("pages decode at the column's width");
            // A row below `base` wraps to a huge offset, so the one
            // bounds check of `get` ends the run on either side.
            let mut run = 0;
            for (slot, &r) in out[done..].iter_mut().zip(&rows[done..]) {
                let Some(&c) = codes.get((r as usize).wrapping_sub(base)) else { break };
                *slot = map(c);
                run += 1;
            }
            assert!(run > 0, "page {index} does not hold the row that named it");
            done += run;
        }
        Ok(())
    }

    /// Runs `f` over every page overlapping `rows`, in order, passing
    /// the page's first row and its decoded codes. The visit holds one
    /// page resident at a time, so a full scan stays within budget.
    pub fn try_for_each_page<F>(&self, rows: Range<usize>, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(usize, &PackedCodes),
    {
        if rows.start >= rows.end {
            return Ok(());
        }
        let first = rows.start / self.page_rows;
        let last = (rows.end - 1) / self.page_rows;
        for index in first..=last {
            let page = self.page(index)?;
            f(index * self.page_rows, &page);
        }
        Ok(())
    }

    /// The whole column widened to `u32` — a materializing full scan;
    /// only for cold paths (equality checks, snapshot rewrite).
    pub fn to_codes(&self) -> Result<Vec<Code>, StoreError> {
        let mut out = Vec::with_capacity(self.rows);
        self.try_for_each_page(0..self.rows, |_, page| out.extend(page.to_codes()))?;
        Ok(out)
    }

    /// Occurrences of every code, one full scan, one page resident at a
    /// time.
    pub fn value_counts(&self) -> Result<Vec<u64>, StoreError> {
        let mut counts = vec![0u64; self.support as usize];
        self.try_for_each_page(0..self.rows, |_, page| {
            for_packed!(page, |codes| {
                for &c in codes.iter() {
                    counts[c.widen() as usize] += 1;
                }
            })
        })?;
        Ok(counts)
    }
}

fn header_offset(payload_start: usize, page: usize, page_rows: usize, width: Width) -> usize {
    payload_start
        + STREAM_HEADER_BYTES
        + page * PAGE_HEADER_BYTES
        + page * page_rows * width.bytes()
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, StoreError> {
    if buf.len() < 4 {
        return Err(StoreError::Corrupt("truncated page stream".into()));
    }
    let (head, tail) = buf.split_at(4);
    *buf = tail;
    Ok(u32::from_le_bytes(head.try_into().expect("split at 4")))
}

fn decode_payload(payload: &[u8], rows: usize, width: Width) -> PackedCodes {
    let mut out = match width {
        Width::U8 => PackedCodes::U8(Vec::with_capacity(rows)),
        Width::U16 => PackedCodes::U16(Vec::with_capacity(rows)),
        Width::U32 => PackedCodes::U32(Vec::with_capacity(rows)),
    };
    match &mut out {
        PackedCodes::U8(v) => CodeRepr::extend_from_le_bytes(payload, v),
        PackedCodes::U16(v) => CodeRepr::extend_from_le_bytes(payload, v),
        PackedCodes::U32(v) => CodeRepr::extend_from_le_bytes(payload, v),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::HeapMapping;
    use swope_store::page::{encode_pages, PAGE_ROWS};

    struct VecMapping(Vec<u8>);
    impl Mapping for VecMapping {
        fn bytes(&self) -> &[u8] {
            &self.0
        }
        fn kind(&self) -> &'static str {
            "read"
        }
    }

    fn column_bytes(rows: usize, support: u32) -> (Vec<u8>, Vec<Code>) {
        let codes: Vec<Code> =
            (0..rows as u32).map(|i| i.wrapping_mul(2654435761) % support).collect();
        let packed = PackedCodes::pack(&codes, Width::for_support(support));
        (encode_pages(&packed), codes)
    }

    fn open(
        bytes: Vec<u8>,
        rows: usize,
        support: u32,
        cache: Arc<PageCache>,
    ) -> Result<PagedColumn, StoreError> {
        let len = bytes.len();
        PagedColumn::open(
            Arc::new(VecMapping(bytes)),
            cache,
            0..len,
            rows,
            support,
            Width::for_support(support),
            None,
        )
    }

    #[test]
    fn reads_match_eager_decode_across_pages() {
        let rows = 2 * PAGE_ROWS + 1234;
        let (bytes, codes) = column_bytes(rows, 300);
        let col = open(bytes, rows, 300, Arc::new(PageCache::unbounded())).unwrap();
        assert_eq!(col.num_pages(), 3);
        for (i, &want) in codes.iter().enumerate().step_by(977) {
            assert_eq!(col.code(i), want, "row {i}");
        }
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
        // Refault of an already-validated page skips the CRC pass.
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
        // u16 pages. No read holds a page across the next one's fault,
        // so residency never passes the one-page overshoot allowance.
        let page_bytes = (PAGE_ROWS * 2) as u64;
        assert!(
            snap.peak_resident_bytes <= page_bytes + snap.compressed_bytes,
            "peak {} over overshoot allowance",
            snap.peak_resident_bytes
        );
    }

    #[test]
    fn out_of_range_codes_fail_on_touch() {
        let rows = 100;
        let codes: Vec<Code> = vec![90; rows];
        let packed = PackedCodes::pack(&codes, Width::U8);
        let bytes = encode_pages(&packed);
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
        let mut seen = 0usize;
        col.try_for_each_page(10..rows - 10, |first, page| {
            assert_eq!(first % PAGE_ROWS, 0);
            seen += page.len();
        })
        .unwrap();
        // The range overlaps both pages, so both are visited in full.
        assert_eq!(seen, rows);
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
            rows,
            70_000,
            Width::U32,
            None,
        )
        .unwrap();
        assert_eq!(col.to_codes().unwrap(), codes);
        std::fs::remove_file(&path).ok();
    }
}
