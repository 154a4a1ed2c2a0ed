use std::ops::Range;
use std::sync::Arc;

use swope_pager::PagedColumn;
use swope_sampling::PageLayout;
use swope_store::{for_packed, gather, CodeBuf, CodeRepr, CodeVisitor, PackedColumn};
use swope_store::{StoreError, Width};

use crate::{Code, ColumnarError};

/// A dictionary-encoded categorical column.
///
/// Logically one code per row with the invariant that every code is
/// `< support()`. Codes are dense: support equals the number of *possible*
/// distinct codes (typically the number actually observed, when built via
/// [`crate::DatasetBuilder`]).
///
/// Physical storage has two representations, which hold the same bytes:
///
/// * **Heap** — [`swope_store::PackedColumn`], the whole column decoded
///   at the narrowest width its support allows (`u8` up to support 256,
///   `u16` up to 65536, `u32` beyond).
/// * **Paged** — [`swope_pager::PagedColumn`], codes left in a mapped
///   snapshot and read there, page-by-page, under a byte-budget cache.
///   `snapshot::open` at `Residency::Paged` produces this.
///
/// Both keep the codes in one [`PageLayout`]: within each 65 536-row
/// page the codes sit in a fixed, seeded shuffle, so a sample reads a
/// whole page's draws as contiguous runs (`swope_sampling::PagePrefix`).
/// A column of its own is in the layout of its row count; a slice of a
/// larger table's rows stays in the table's ([`PageLayout::slice`]). A
/// v3 or v4 snapshot's pages are stored in that order, so a heap load
/// decodes them as they are ([`Column::from_layout_order`]) and a paged
/// column reads them in place; [`Column::from_packed`] and
/// [`Column::from_packed_in`] lay out codes that arrive in row order
/// (every in-memory constructor, and a v2 heap load).
///
/// Every logical accessor — [`Column::code`], [`Column::to_codes`],
/// equality — answers in row order on both, through the layout. Hot
/// loops read by *position*, where the layout stores a row, and never
/// see the residency: [`Column::read`], [`Column::gather`] and
/// [`Column::gather_widen`] dispatch once per call and run
/// width-monomorphized on either representation. Both decode the same
/// bytes, so counts over the same rows are bitwise identical.
#[derive(Debug, Clone)]
pub struct Column {
    repr: Repr,
    /// The order both representations keep the codes in.
    layout: Arc<PageLayout>,
}

#[derive(Debug, Clone)]
enum Repr {
    Heap(PackedColumn),
    Paged(Arc<PagedColumn>),
}

impl Column {
    /// Creates a column from raw codes, validating `code < support` for all.
    pub fn new(codes: Vec<Code>, support: u32) -> Result<Self, ColumnarError> {
        match PackedColumn::new(codes, support) {
            Ok(packed) => Ok(Self::from_packed(packed)),
            Err(StoreError::CodeOutOfRange { code, support }) => {
                Err(ColumnarError::CodeOutOfRange { attr: 0, code, support })
            }
            Err(e) => Err(ColumnarError::Snapshot(e.to_string())),
        }
    }

    /// Creates a column without validating codes.
    ///
    /// The caller must guarantee `codes[i] < support` for all `i`; violating
    /// this breaks counter indexing downstream (it will panic, not corrupt
    /// memory — counters use checked indexing in debug builds and sized
    /// allocations in release).
    pub fn new_unchecked(codes: Vec<Code>, support: u32) -> Self {
        Self::from_packed(PackedColumn::new_unchecked(codes, support))
    }

    /// Wraps an already-validated packed column, codes in row order: it
    /// reorders the codes in place, a page at a time, into the layout of
    /// their row count.
    pub fn from_packed(packed: PackedColumn) -> Self {
        let layout = PageLayout::of(packed.len());
        Self::from_packed_in(packed, layout)
    }

    /// [`Column::from_packed`] into `layout`, whose row count must be the
    /// column's: how a slice keeps its table's layout.
    pub fn from_packed_in(mut packed: PackedColumn, layout: Arc<PageLayout>) -> Self {
        packed.reorder(|codes| for_packed!(codes, |codes| layout.store(codes)));
        Self { repr: Repr::Heap(packed), layout }
    }

    /// Wraps an already-validated packed column whose codes are in
    /// `layout` already — a v3 or v4 snapshot's pages, decoded as they
    /// are stored.
    pub fn from_layout_order(packed: PackedColumn, layout: Arc<PageLayout>) -> Self {
        assert_eq!(packed.len(), layout.num_rows(), "one code per laid-out row");
        Self { layout, repr: Repr::Heap(packed) }
    }

    /// Wraps a pager-backed column, its pages in `layout`'s order (the
    /// out-of-core loader's path).
    pub fn from_paged(paged: Arc<PagedColumn>, layout: Arc<PageLayout>) -> Self {
        assert_eq!(paged.grid(), layout.grid(), "pages on the layout's grid");
        Self { layout, repr: Repr::Paged(paged) }
    }

    /// The same logical column re-packed at a forced (wider) `width`.
    ///
    /// Used by width-invariance tests and the store bench to compare the
    /// byte traffic of identical data at `u8`/`u16`/`u32`; errors if the
    /// width cannot hold the support. A paged column materializes to heap
    /// storage here — re-widening is a test/bench tool, not a hot path.
    /// The layout stays.
    pub fn with_width(&self, width: Width) -> Result<Self, ColumnarError> {
        PackedColumn::with_width(self.to_codes(), self.support(), width)
            .map(|packed| Self::from_packed_in(packed, self.layout.clone()))
            .map_err(|e| ColumnarError::Snapshot(e.to_string()))
    }

    /// The layout the column stores its codes in.
    #[inline]
    pub fn layout(&self) -> &Arc<PageLayout> {
        &self.layout
    }

    /// The pager-backed storage, when this column is paged.
    #[inline]
    pub fn paged(&self) -> Option<&Arc<PagedColumn>> {
        match &self.repr {
            Repr::Heap(_) => None,
            Repr::Paged(paged) => Some(paged),
        }
    }

    /// Whether the column is pager-backed (out-of-core).
    #[inline]
    pub fn is_paged(&self) -> bool {
        matches!(self.repr, Repr::Paged(_))
    }

    /// The storage width the codes are packed at.
    #[inline]
    pub fn width(&self) -> Width {
        match &self.repr {
            Repr::Heap(packed) => packed.width(),
            Repr::Paged(paged) => paged.width(),
        }
    }

    /// Bytes the column's codes currently occupy in memory: the full
    /// packed size for heap columns, the bytes of the mapped pages the
    /// cache counts resident for paged columns.
    #[inline]
    pub fn bytes_in_memory(&self) -> usize {
        match &self.repr {
            Repr::Heap(packed) => packed.bytes_in_memory(),
            Repr::Paged(paged) => paged.resident_bytes() as usize,
        }
    }

    /// The per-row codes in row order, widened into a fresh vector (cold
    /// paths only: exact baselines, concatenation, format conversion).
    /// For a paged column this is a full materializing scan.
    pub fn to_codes(&self) -> Vec<Code> {
        let mut codes = self.stored_codes();
        self.layout.restore(&mut codes);
        codes
    }

    /// The codes in layout order, widened into a fresh vector.
    pub fn stored_codes(&self) -> Vec<Code> {
        let mut codes = Vec::with_capacity(self.len());
        self.read(std::iter::once(0..self.len() as u32), &mut CodeBuf::new(), &mut codes);
        codes
    }

    /// Hands the codes of each run of positions to `visitor`, in order
    /// and in place: slices of the packed vector on the heap, page
    /// slices paged (`u16` and `u32` ones decoded into `buf` a block at
    /// a time).
    ///
    /// # Panics
    ///
    /// If a run is out of range, or a paged column meets a corrupt page:
    /// the store's one-line `page N: checksum mismatch`, which the
    /// executor or the server's dispatch guard turns into a query error.
    #[inline]
    pub fn read<V: CodeVisitor>(
        &self,
        runs: impl IntoIterator<Item = Range<u32>>,
        buf: &mut CodeBuf,
        visitor: &mut V,
    ) {
        match &self.repr {
            Repr::Heap(packed) => for_packed!(packed.codes(), |stored| {
                for run in runs {
                    visitor.codes(&stored[run.start as usize..run.end as usize]);
                }
            }),
            Repr::Paged(paged) => paged.read(runs, buf, visitor).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Stages the codes at `list` into `buf` at the column's width,
    /// replacing its contents, booked in [`swope_store::gather_stats`].
    /// Panics as [`Column::read`] does.
    #[inline]
    pub fn gather(&self, list: &[u32], buf: &mut CodeBuf) {
        match &self.repr {
            Repr::Heap(packed) => {
                for_packed!(packed.codes(), |stored| gather(stored, list, CodeRepr::buf(buf)))
            }
            Repr::Paged(paged) => paged.gather(list, buf).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Appends the codes at `list`, widened, to `out` (the MI target's).
    /// Panics as [`Column::read`] does.
    #[inline]
    pub fn gather_widen(&self, list: &[u32], out: &mut Vec<Code>) {
        match &self.repr {
            Repr::Heap(packed) => for_packed!(packed.codes(), |stored| {
                out.extend(list.iter().map(|&p| stored[p as usize].widen()))
            }),
            Repr::Paged(paged) => paged.gather_widen(list, out).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// The support size `u_alpha` (number of possible distinct codes).
    #[inline]
    pub fn support(&self) -> u32 {
        match &self.repr {
            Repr::Heap(packed) => packed.support(),
            Repr::Paged(paged) => paged.support(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Heap(packed) => packed.len(),
            Repr::Paged(paged) => paged.len(),
        }
    }

    /// Whether the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code at `row`. Panics if out of range (or, for a paged
    /// column, on a corrupt page at first touch).
    #[inline]
    pub fn code(&self, row: usize) -> Code {
        let position = self.layout.position_of(row as u32) as usize;
        match &self.repr {
            Repr::Heap(packed) => packed.code(position),
            Repr::Paged(paged) => paged.code(position),
        }
    }

    /// Counts occurrences of each code over all rows.
    ///
    /// The result has length `support()`; entry `i` is `n_i` in the paper's
    /// notation. A heap column counts in storage order, a paged column
    /// one resident page at a time, so the count stays within the cache
    /// budget.
    pub fn value_counts(&self) -> Vec<u64> {
        match &self.repr {
            Repr::Heap(packed) => packed.value_counts(),
            Repr::Paged(paged) => paged.value_counts().unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Number of codes that actually occur at least once.
    pub fn observed_distinct(&self) -> usize {
        self.value_counts().iter().filter(|&&n| n > 0).count()
    }
}

impl PartialEq for Column {
    /// Logical equality: same support and the same code sequence in row
    /// order, regardless of representation (heap vs paged), storage width
    /// or layout. Two columns of one layout compare their stored orders
    /// directly; any other comparison that is not heap against heap
    /// materializes both sides — equality is a test/assertion tool, not
    /// a hot path.
    fn eq(&self, other: &Self) -> bool {
        if self.support() != other.support() || self.len() != other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            _ if self.layout != other.layout => self.to_codes() == other.to_codes(),
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            _ => self.stored_codes() == other.stored_codes(),
        }
    }
}

impl Eq for Column {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_codes() {
        assert!(Column::new(vec![0, 1, 2], 3).is_ok());
        assert!(matches!(
            Column::new(vec![0, 3], 3),
            Err(ColumnarError::CodeOutOfRange { code: 3, .. })
        ));
    }

    #[test]
    fn value_counts_match_manual_tally() {
        let col = Column::new(vec![0, 1, 1, 2, 1], 3).unwrap();
        assert_eq!(col.value_counts(), vec![1, 3, 1]);
        assert_eq!(col.observed_distinct(), 3);
    }

    #[test]
    fn support_can_exceed_observed() {
        // A column may declare support 5 while only codes {0,1} occur; this
        // happens after row subsetting. Counts must still be sized to support.
        let col = Column::new(vec![0, 1, 0], 5).unwrap();
        assert_eq!(col.value_counts(), vec![2, 1, 0, 0, 0]);
        assert_eq!(col.observed_distinct(), 2);
    }

    #[test]
    fn empty_column() {
        let col = Column::new(vec![], 4).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.value_counts(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn packs_at_narrowest_width_for_support() {
        assert_eq!(Column::new(vec![0, 255], 256).unwrap().width(), Width::U8);
        assert_eq!(Column::new(vec![0, 256], 257).unwrap().width(), Width::U16);
        assert_eq!(Column::new(vec![0, 65536], 65537).unwrap().width(), Width::U32);
        let col = Column::new(vec![0, 1, 2, 3], 4).unwrap();
        assert_eq!(col.bytes_in_memory(), 4);
    }

    #[test]
    fn with_width_preserves_logical_content_and_equality() {
        let col = Column::new(vec![0, 7, 3, 7], 8).unwrap();
        for width in [Width::U8, Width::U16, Width::U32] {
            let re = col.with_width(width).unwrap();
            assert_eq!(re.width(), width);
            assert_eq!(re, col, "columns compare logically across widths");
            assert_eq!(re.to_codes(), col.to_codes());
        }
        assert!(Column::new(vec![0], 300).unwrap().with_width(Width::U8).is_err());
    }

    #[test]
    fn heap_columns_report_heap_storage() {
        let col = Column::new(vec![0, 1], 2).unwrap();
        assert!(!col.is_paged());
        assert!(col.paged().is_none());
    }
}
