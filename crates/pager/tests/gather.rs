//! Property tests for the paged gather: whatever the position list,
//! `PagedColumn::gather` must return exactly what per-row `try_code`
//! returns, at every width, grouped by page or not (a sample's list is
//! drawn page by page), at any file offset, with or
//! without eviction going on underneath (from the same thread or from
//! others) — and must fail, not panic, on a corrupt page.

use std::sync::Arc;

use swope_pager::{Mapping, PageCache, PagedColumn};
use swope_sampling::rng::Xoshiro256pp;
use swope_store::page::{
    encode_pages, PageGrid, PAGE_HEADER_BYTES, PAGE_ROWS, STREAM_HEADER_BYTES,
};
use swope_store::{Code, CodeBuf, PackedCodes, Width};

/// More than `swope_core::count::INGEST_BLOCK_ROWS` (8192).
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

/// A column of seeded random codes below `support`, its page stream
/// `pad` bytes into the mapping, and the codes it holds.
fn column(
    pad: usize,
    support: u32,
    width: Width,
    cache: Arc<PageCache>,
    seed: u64,
) -> (Arc<PagedColumn>, Vec<Code>) {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let codes: Vec<Code> = (0..ROWS).map(|_| r.next_below(support as u64) as u32).collect();
    let mut bytes = vec![0xAB; pad];
    bytes.extend(encode_pages(&PackedCodes::pack(&codes, width), PageGrid::whole(ROWS)));
    (open(pad, bytes, support, width, cache), codes)
}

fn open(
    pad: usize,
    bytes: Vec<u8>,
    support: u32,
    width: Width,
    cache: Arc<PageCache>,
) -> Arc<PagedColumn> {
    let len = bytes.len();
    PagedColumn::open(
        Arc::new(VecMapping(bytes)),
        cache,
        pad..len,
        PageGrid::whole(ROWS),
        support,
        width,
    )
    .unwrap()
}

fn widened(buf: &CodeBuf) -> Vec<Code> {
    match buf {
        CodeBuf::U8(v) => v.iter().map(|&c| c as Code).collect(),
        CodeBuf::U16(v) => v.iter().map(|&c| c as Code).collect(),
        CodeBuf::U32(v) => v.clone(),
    }
}

/// `rows` in ascending page order, each page's rows in list order: the
/// shape of a sample drawn page by page.
fn by_page(rows: &[u32]) -> Vec<u32> {
    let mut grouped = rows.to_vec();
    grouped.sort_by_key(|&row| row / PAGE_ROWS as u32);
    grouped
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
    // Each width twice: at the front of the mapping under an unbounded
    // cache, and three odd bytes in — every u16/u32 code unaligned —
    // under a 1 KiB budget, which holds no page at all, so each
    // admission overshoots alone and evicts its predecessor.
    let widths = [(200u32, Width::U8), (40_000, Width::U16), (90_000, Width::U32)];
    for ((support, width), (pad, budget)) in
        widths.into_iter().flat_map(|w| [(w, (0, None)), (w, (3, Some(1024)))])
    {
        let cache = Arc::new(PageCache::new(budget));
        let (col, codes) = column(pad, support, width, Arc::clone(&cache), support as u64);
        let mut buf = CodeBuf::new();
        let mut wide = Vec::new();
        for (label, rows) in row_lists(&mut r) {
            let want: Vec<Code> =
                rows.iter().map(|&row| col.try_code(row as usize).unwrap()).collect();
            assert!(rows.iter().zip(&want).all(|(&row, &c)| c == codes[row as usize]));
            col.gather(&rows, &mut buf).unwrap();
            assert_eq!(widened(&buf), want, "{width} +{pad} {label}");
            wide.clear();
            col.gather_widen(&rows, &mut wide).unwrap();
            assert_eq!(wide, want, "{width} +{pad} {label} widened");

            // Grouped: the same multiset, out[i] still the code of rows[i].
            let grouped = by_page(&rows);
            let want: Vec<Code> = grouped.iter().map(|&row| codes[row as usize]).collect();
            col.gather(&grouped, &mut buf).unwrap();
            assert_eq!(widened(&buf), want, "{width} +{pad} {label} grouped");
            let pages: Vec<u32> = grouped.iter().map(|&row| row / PAGE_ROWS as u32).collect();
            assert!(pages.windows(2).all(|w| w[0] <= w[1]), "{label}: pages not ascending");
        }
        assert_eq!(col.to_codes().unwrap(), codes, "{width} +{pad}");
        // The scratch ended on the column's width.
        assert_eq!(
            std::mem::discriminant(&buf),
            std::mem::discriminant(&match width {
                Width::U8 => CodeBuf::U8(Vec::new()),
                Width::U16 => CodeBuf::U16(Vec::new()),
                Width::U32 => CodeBuf::U32(Vec::new()),
            })
        );
        if budget.is_some() {
            let snap = cache.snapshot();
            assert!(snap.evictions > 0);
            // Never more than the one over-budget page.
            assert_eq!(snap.peak_resident_bytes, (PAGE_ROWS * width.bytes()) as u64, "{width}");
        }
    }
}

#[test]
fn gather_under_a_budget_that_evicts_mid_gather_stays_within_it() {
    // u16 pages are 128 KiB; the budget holds one and a half, so every
    // page switch inside a gather evicts the page just left.
    let budget = (PAGE_ROWS * 3) as u64;
    let cache = Arc::new(PageCache::new(Some(budget)));
    let (col, _) = column(0, 40_000, Width::U16, Arc::clone(&cache), 11);
    let (reference, _) = column(0, 40_000, Width::U16, Arc::new(PageCache::unbounded()), 11);
    let mut r = Xoshiro256pp::seed_from_u64(0xB0D6);
    let (mut got, mut want) = (CodeBuf::new(), CodeBuf::new());
    for _ in 0..4 {
        let rows: Vec<u32> = (0..LONG_LIST).map(|_| r.next_below(ROWS as u64) as u32).collect();
        let rows = by_page(&rows);
        col.gather(&rows, &mut got).unwrap();
        reference.gather(&rows, &mut want).unwrap();
        assert_eq!(got, want);
    }
    let snap = cache.snapshot();
    assert!(snap.evictions > 0, "budget never forced an eviction");
    assert!(
        snap.peak_resident_bytes <= budget,
        "peak {} over budget {budget}: admission charged before it evicted",
        snap.peak_resident_bytes
    );
    // Grouped: four gathers × three pages, each met (and so faulted) at
    // most once per gather.
    assert!(snap.faults <= 12, "{} faults for 4 grouped gathers over 3 pages", snap.faults);
}

#[test]
fn corrupt_page_is_an_error_naming_the_page() {
    let mut bytes =
        encode_pages(&PackedCodes::pack(&vec![5; ROWS], Width::U8), PageGrid::whole(ROWS));
    // One payload byte of page 1.
    bytes[STREAM_HEADER_BYTES + 2 * PAGE_HEADER_BYTES + PAGE_ROWS + 99] ^= 0x01;
    let col = open(0, bytes, 200, Width::U8, Arc::new(PageCache::unbounded()));
    let mut buf = CodeBuf::new();
    // Rows off the bad page gather fine.
    col.gather(&[5, 70, (2 * PAGE_ROWS + 1) as u32], &mut buf).unwrap();
    let err = col.gather(&[5, (PAGE_ROWS + 3) as u32, 9], &mut buf).unwrap_err();
    assert_eq!(err.to_string(), "corrupt store data: page 1: checksum mismatch");
    let err = col.gather_widen(&[(PAGE_ROWS + 3) as u32], &mut Vec::new()).unwrap_err();
    assert!(err.to_string().contains("page 1: checksum mismatch"), "{err}");
}

#[test]
fn a_page_is_crc_checked_once_however_often_it_is_evicted() {
    // A budget of one page makes every page switch evict; the verdict
    // of the first-touch check is remembered across evictions.
    let cache = Arc::new(PageCache::new(Some(PAGE_ROWS as u64)));
    let (col, _) = column(0, 256, Width::U8, Arc::clone(&cache), 5);
    for _ in 0..5 {
        for page in 0..col.num_pages() {
            col.try_code(page * PAGE_ROWS).unwrap();
        }
    }
    let snap = cache.snapshot();
    assert!(snap.evictions >= 12, "only {} evictions", snap.evictions);
    assert_eq!(snap.faults, 15, "every page switch is a cold admission");
    assert_eq!(snap.crc_validations, col.num_pages() as u64);
    assert_eq!(snap.decompressions, 0);
    assert!(snap.evict_nanos > 0);
}

#[test]
fn gathers_racing_the_eviction_sweep_from_other_threads_read_the_heap_codes() {
    // Three widths under one budget smaller than two of the narrowest
    // pages: every admission evicts, four gathering threads evict each
    // other's pages mid-read, and a fifth runs the sweep flat out. No
    // lock or pin protects a reader — the bytes it borrows are immutable.
    let cache = Arc::new(PageCache::new(Some(2 * PAGE_ROWS as u64 - 1)));
    let specs = [(200u32, Width::U8), (40_000, Width::U16), (90_000, Width::U32)];
    let columns: Vec<(Arc<PagedColumn>, Vec<Code>)> = specs
        .iter()
        .map(|&(support, width)| column(1, support, width, Arc::clone(&cache), support as u64))
        .collect();
    let start = std::sync::Barrier::new(5);
    std::thread::scope(|scope| {
        let gatherers: Vec<_> = (0..4u64)
            .map(|thread| {
                let (columns, start) = (&columns, &start);
                scope.spawn(move || {
                    let mut r = Xoshiro256pp::seed_from_u64(0xACE + thread);
                    let (mut buf, mut wide) = (CodeBuf::new(), Vec::new());
                    start.wait();
                    for round in 0..12 {
                        let rows: Vec<u32> =
                            (0..3_000).map(|_| r.next_below(ROWS as u64) as u32).collect();
                        // Shuffled on even rounds, page-grouped on odd ones.
                        let rows = if round % 2 == 0 { rows } else { by_page(&rows) };
                        for (col, heap) in columns {
                            let want: Vec<Code> =
                                rows.iter().map(|&row| heap[row as usize]).collect();
                            col.gather(&rows, &mut buf).unwrap();
                            assert_eq!(widened(&buf), want, "thread {thread} round {round}");
                            wide.clear();
                            col.gather_widen(&rows, &mut wide).unwrap();
                            assert_eq!(wide, want, "thread {thread} round {round} widened");
                        }
                    }
                })
            })
            .collect();
        // The fifth thread is this one: the sweep, until the gathers end
        // (a failed one has ended too, and the scope re-raises its panic).
        start.wait();
        while gatherers.iter().any(|g| !g.is_finished()) {
            cache.trim();
        }
    });
    let snap = cache.snapshot();
    assert!(snap.evictions > 100, "only {} evictions", snap.evictions);
    // Each page verified at least once; at most once per thread that
    // met it fresh.
    assert!((9..=36).contains(&snap.crc_validations), "{}", snap.crc_validations);
    // The accounting survived the races: what the cache says is resident
    // is what the columns say, and a trim brings it under the budget.
    cache.trim();
    let resident: u64 = columns.iter().map(|(col, _)| col.resident_bytes()).sum();
    assert_eq!(cache.snapshot().resident_bytes, resident);
    assert!(resident < 2 * PAGE_ROWS as u64);
}
