//! Property tests for the page-grouped gather: whatever the row list,
//! `PagedColumn::gather` must return exactly what per-row `try_code`
//! returns, at every width, grouped or not, with or without eviction
//! going on underneath — and must fail, not panic, on a corrupt page.

use std::sync::Arc;

use swope_pager::{Mapping, PageCache, PageGrouper, PagedColumn};
use swope_sampling::rng::Xoshiro256pp;
use swope_store::page::{encode_pages, PAGE_HEADER_BYTES, PAGE_ROWS, STREAM_HEADER_BYTES};
use swope_store::{Code, CodeBuf, PackedCodes, Width};

/// More than `swope_core::state::INGEST_BLOCK_ROWS` (8192).
const LONG_LIST: usize = 20_000;

struct VecMapping(Vec<u8>);

impl Mapping for VecMapping {
    fn bytes(&self) -> &[u8] {
        &self.0
    }
    fn kind(&self) -> &'static str {
        "read"
    }
}

/// Two full pages and a short third.
const ROWS: usize = 2 * PAGE_ROWS + 4_321;

fn column(support: u32, width: Width, cache: Arc<PageCache>, seed: u64) -> (PagedColumn, Vec<u8>) {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let codes: Vec<Code> = (0..ROWS).map(|_| r.next_below(support as u64) as u32).collect();
    let bytes = encode_pages(&PackedCodes::pack(&codes, width));
    (open(bytes.clone(), support, width, cache), bytes)
}

fn open(bytes: Vec<u8>, support: u32, width: Width, cache: Arc<PageCache>) -> PagedColumn {
    let len = bytes.len();
    PagedColumn::open(Arc::new(VecMapping(bytes)), cache, 0..len, ROWS, support, width, None)
        .unwrap()
}

fn widened(buf: &CodeBuf) -> Vec<Code> {
    match buf {
        CodeBuf::U8(v) => v.iter().map(|&c| c as Code).collect(),
        CodeBuf::U16(v) => v.iter().map(|&c| c as Code).collect(),
        CodeBuf::U32(v) => v.clone(),
    }
}

/// The row lists the issue names: duplicates, empty, one page, the
/// short last page, and longer than an ingest block.
fn row_lists(r: &mut Xoshiro256pp) -> Vec<(&'static str, Vec<u32>)> {
    let draw = |r: &mut Xoshiro256pp, n: usize, lo: usize, hi: usize| -> Vec<u32> {
        (0..n).map(|_| (lo as u64 + r.next_below((hi - lo) as u64)) as u32).collect()
    };
    let mut dups = draw(r, 500, 0, ROWS);
    dups.extend_from_within(..250);
    dups.extend([7, 7, 7, (ROWS - 1) as u32, (ROWS - 1) as u32]);
    vec![
        ("empty", Vec::new()),
        ("duplicates", dups),
        ("single page", draw(r, 3_000, PAGE_ROWS, 2 * PAGE_ROWS)),
        ("short last page", draw(r, 3_000, 2 * PAGE_ROWS, ROWS)),
        ("one row", vec![(ROWS - 1) as u32]),
        ("page edges", vec![0, 65_535, 65_536, 131_071, 131_072, (ROWS - 1) as u32]),
        ("long shuffled", draw(r, LONG_LIST, 0, ROWS)),
    ]
}

#[test]
fn gather_equals_per_row_reads_at_every_width_grouped_or_not() {
    let mut r = Xoshiro256pp::seed_from_u64(0x6A7E);
    for (support, width) in [(200u32, Width::U8), (40_000, Width::U16), (90_000, Width::U32)] {
        let (col, _) = column(support, width, Arc::new(PageCache::unbounded()), support as u64);
        let mut buf = CodeBuf::new();
        let mut wide = Vec::new();
        let mut grouper = PageGrouper::new(Some(col.page_rows()));
        for (label, rows) in row_lists(&mut r) {
            let want: Vec<Code> =
                rows.iter().map(|&row| col.try_code(row as usize).unwrap()).collect();
            col.gather(&rows, &mut buf).unwrap();
            assert_eq!(widened(&buf), want, "{width} {label}");
            col.gather_widen(&rows, &mut wide).unwrap();
            assert_eq!(wide, want, "{width} {label} widened");

            // Grouped: the same multiset, out[i] still the code of rows[i].
            let grouped = grouper.group(&rows).to_vec();
            let want: Vec<Code> =
                grouped.iter().map(|&row| col.try_code(row as usize).unwrap()).collect();
            col.gather(&grouped, &mut buf).unwrap();
            assert_eq!(widened(&buf), want, "{width} {label} grouped");
            let pages: Vec<u32> = grouped.iter().map(|&row| row / PAGE_ROWS as u32).collect();
            assert!(pages.windows(2).all(|w| w[0] <= w[1]), "{label}: pages not ascending");
        }
        // The scratch ended on the column's width.
        assert_eq!(
            std::mem::discriminant(&buf),
            std::mem::discriminant(&match width {
                Width::U8 => CodeBuf::U8(Vec::new()),
                Width::U16 => CodeBuf::U16(Vec::new()),
                Width::U32 => CodeBuf::U32(Vec::new()),
            })
        );
    }
}

#[test]
fn gather_under_a_budget_that_evicts_mid_gather_stays_within_it() {
    // u16 pages are 128 KiB; the budget holds one and a half, so every
    // page switch inside a gather evicts the page just released.
    let budget = (PAGE_ROWS * 3) as u64;
    let cache = Arc::new(PageCache::new(Some(budget)));
    let (col, _) = column(40_000, Width::U16, Arc::clone(&cache), 11);
    let (reference, _) = column(40_000, Width::U16, Arc::new(PageCache::unbounded()), 11);
    let mut r = Xoshiro256pp::seed_from_u64(0xB0D6);
    let mut grouper = PageGrouper::new(Some(col.page_rows()));
    let (mut got, mut want) = (CodeBuf::new(), CodeBuf::new());
    for _ in 0..4 {
        let rows: Vec<u32> = (0..LONG_LIST).map(|_| r.next_below(ROWS as u64) as u32).collect();
        let rows = grouper.group(&rows);
        col.gather(rows, &mut got).unwrap();
        reference.gather(rows, &mut want).unwrap();
        assert_eq!(got, want);
    }
    let snap = cache.snapshot();
    assert!(snap.evictions > 0, "budget never forced an eviction");
    assert!(
        snap.peak_resident_bytes <= budget,
        "peak {} over budget {budget}: more than one page pinned at a time",
        snap.peak_resident_bytes
    );
    // Grouped: four gathers × three pages, each pinned (and so faulted)
    // at most once per gather.
    assert!(snap.faults <= 12, "{} faults for 4 grouped gathers over 3 pages", snap.faults);
}

#[test]
fn corrupt_page_is_an_error_naming_the_page() {
    let (_, mut bytes) = column(200, Width::U8, Arc::new(PageCache::unbounded()), 3);
    // One payload byte of page 1.
    bytes[STREAM_HEADER_BYTES + 2 * PAGE_HEADER_BYTES + PAGE_ROWS + 99] ^= 0x01;
    let col = open(bytes, 200, Width::U8, Arc::new(PageCache::unbounded()));
    let mut buf = CodeBuf::new();
    // Rows off the bad page gather fine.
    col.gather(&[5, 70, (2 * PAGE_ROWS + 1) as u32], &mut buf).unwrap();
    let err = col.gather(&[5, (PAGE_ROWS + 3) as u32, 9], &mut buf).unwrap_err();
    assert_eq!(err.to_string(), "corrupt store data: page 1: checksum mismatch");
    let err = col.gather_widen(&[(PAGE_ROWS + 3) as u32], &mut Vec::new()).unwrap_err();
    assert!(err.to_string().contains("page 1: checksum mismatch"), "{err}");
}

#[test]
fn incompressible_page_is_examined_once_however_often_it_is_evicted() {
    // Uniform full-range u8 codes: neither RLE nor palette reaches half.
    // A budget of one page makes every page switch evict.
    let cache = Arc::new(PageCache::new(Some(PAGE_ROWS as u64)));
    let (col, _) = column(256, Width::U8, Arc::clone(&cache), 5);
    for _ in 0..5 {
        for page in 0..col.num_pages() {
            col.try_code(page * PAGE_ROWS).unwrap();
        }
    }
    let snap = cache.snapshot();
    assert!(snap.evictions >= 12, "only {} evictions", snap.evictions);
    assert_eq!(snap.compressed_pages, 0);
    assert_eq!(
        snap.compressions,
        col.num_pages() as u64,
        "each page's verdict is memoised after its first eviction"
    );
    assert!(snap.evict_nanos > 0);
}

#[test]
fn compressible_page_round_trips_through_the_compressed_tier_with_timing() {
    // Three distinct codes: the run-count fallback says no, so without a
    // sketch pick the page drops cold — give it the palette pick.
    let mut r = Xoshiro256pp::seed_from_u64(9);
    let codes: Vec<Code> = (0..ROWS).map(|_| r.next_below(3) as u32).collect();
    let bytes = encode_pages(&PackedCodes::pack(&codes, Width::U8));
    let len = bytes.len();
    let cache = Arc::new(PageCache::new(Some(PAGE_ROWS as u64 + 40_000)));
    let picks = vec![swope_store::rle::PageEncoding::Palette; 3];
    let col = PagedColumn::open(
        Arc::new(VecMapping(bytes)),
        Arc::clone(&cache),
        0..len,
        ROWS,
        3,
        Width::U8,
        Some(picks),
    )
    .unwrap();
    let rows: Vec<u32> = (0..ROWS as u32).step_by(13).collect();
    let mut buf = CodeBuf::new();
    for _ in 0..3 {
        col.gather(&rows, &mut buf).unwrap();
        let want: Vec<Code> = rows.iter().map(|&row| codes[row as usize]).collect();
        assert_eq!(widened(&buf), want);
    }
    let snap = cache.snapshot();
    assert!(snap.decompressions > 0, "compressed tier never served a refetch");
    assert!(snap.decompress_nanos > 0);
    assert!(snap.compressions >= snap.decompressions);
}
