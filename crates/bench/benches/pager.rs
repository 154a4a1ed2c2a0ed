//! Pager benchmark: what out-of-core costs and what the budget holds.
//!
//! Four questions, one JSON. First, cold fault latency: admitting a
//! 64Ki-row page of the mapped snapshot on its first touch (CRC and
//! support check included), measured both as a scan median and as the
//! pager's own `fault_nanos / faults` average. Second, residency under a
//! byte budget: a dataset four times the configured budget is scanned
//! repeatedly, and the peak resident gauge must stay at or under the
//! budget while evictions churn; opening it must not leave the file
//! resident (`paged_open_rss_delta_bytes`). Third, what the budget costs
//! a page that comes back: `evict_ns_avg` (the sweep, `madvise`
//! included) and `refault_ns_avg` (touching a page the sweep released —
//! admission plus the kernel's minor fault). Fourth, the read the
//! adaptive loops actually do: a *shuffled* sample gathered block by
//! block from every column, warm paged vs heap
//! (`gather_paged_over_heap`) — the sequential scans above cannot see a
//! per-row page-switch cost, which is how one hid here.
//! Results persist to `results/BENCH_pager.json`; the CI pager-smoke
//! step runs this with `SWOPE_MICRO_MS=1` and validates the fields,
//! the budget invariant and the (machine-independent) gather ratio, not
//! the wall-clock numbers.

use std::sync::Arc;

use swope_bench::micro::{black_box, Group};
use swope_bench::rss_bytes;
use swope_columnar::{
    for_packed, gather, snapshot, stats, CodeBuf, CodeRepr, ColumnStorage, Dataset, PageCache,
    Residency,
};
use swope_core::state::INGEST_BLOCK_ROWS;
use swope_obs::json::ObjectWriter;
use swope_sampling::PrefixShuffle;

/// Four full 64Ki-row pages per column — no partial tail, so every page
/// has identical plain bytes.
const ROWS: usize = 4 * 65536;

/// All three `tiny` columns pack to u8 (supports 9/23/7), giving
/// 64 KiB pages.
const COLS: usize = 3;

fn scan_all(ds: &Dataset) {
    for attr in 0..ds.num_attrs() {
        black_box(ds.column(attr).value_counts());
    }
}

/// Rows in the shuffled sample: several ingest blocks, every page hit.
const SAMPLE: usize = 40_000;

/// Columns of the dataset the shuffled gather runs over.
const GATHER_COLS: usize = 16;

/// Gathers `rows` from every column block by block, the way an
/// iteration of an adaptive loop does: the list is page-grouped once
/// (the identity on a heap dataset) and shared by all columns.
fn gather_all(ds: &Dataset, rows: &[u32], buf: &mut CodeBuf) {
    let mut grouper = ds.page_grouper();
    let rows = grouper.group(rows);
    for attr in 0..ds.num_attrs() {
        for block in rows.chunks(INGEST_BLOCK_ROWS) {
            match ds.column(attr).storage() {
                ColumnStorage::Heap(packed) => {
                    for_packed!(packed.codes(), |codes| { gather_block(codes, block, buf) })
                }
                ColumnStorage::Paged(paged) => paged.gather(block, buf).expect("warm page"),
            }
            black_box(buf.len());
        }
    }
}

fn gather_block<R: CodeRepr>(codes: &[R], block: &[u32], buf: &mut CodeBuf) {
    gather(codes, block, R::buf(buf));
}

/// Growth of this process's RSS since `before`, in bytes; `-1` where
/// there is no `/proc` to read it from.
fn rss_delta(before: Option<u64>) -> f64 {
    match (before, rss_bytes()) {
        (Some(before), Some(after)) => after.saturating_sub(before) as f64,
        _ => -1.0,
    }
}

fn main() {
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, COLS), 0x7A6E);
    let path = std::env::temp_dir().join(format!("swope-bench-pager-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).expect("writing bench snapshot");
    let plain = stats::bytes_in_memory(&ds) as u64;
    // The acceptance shape: dataset is 4x the budget, so a full scan can
    // keep at most a quarter of its pages hot.
    let budget = plain / 4;

    let mut g = Group::new("pager");

    // Cold fault path: a fresh unbounded cache per pass, so every page
    // of every column faults and CRC-validates exactly once.
    let open_cold =
        || snapshot::open(&path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap().0;
    let cold_scan_ns = g.bench_with_setup("cold_scan_all_columns", open_cold, |paged| {
        scan_all(&paged);
        black_box(())
    });

    // Same scan against the eagerly decoded heap dataset — the pager's
    // overhead on warm data is the gap between this and a re-scan below.
    let heap_scan_ns = g.bench("heap_scan_all_columns", || {
        scan_all(&ds);
        black_box(())
    });

    // Warm paged scan: pages stay resident in an unbounded cache, so
    // this prices the page lookup and the in-place decode alone.
    let (warm, _) =
        snapshot::open(&path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    scan_all(&warm);
    let warm_scan_ns = g.bench("warm_scan_all_columns", || {
        scan_all(&warm);
        black_box(())
    });

    drop(warm);

    // The sampled read: the same shuffled rows out of heap and warm
    // paged columns. Machine-independent as a ratio. A query gathers an
    // iteration's rows from every live column and groups them once, so
    // this runs over a dataset of a (modest) realistic width.
    let wide = swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, GATHER_COLS), 0x7A6F);
    let wide_path = path.with_extension("wide.swop");
    snapshot::write_file(&wide, &wide_path).expect("writing gather snapshot");
    let (warm, _) =
        snapshot::open(&wide_path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    scan_all(&warm);
    let sample = PrefixShuffle::new(ROWS, 0x5A3F).grow_to(SAMPLE).to_vec();
    let mut buf = CodeBuf::new();
    let gather_heap_ns = g.bench("gather_shuffled_heap", || gather_all(&wide, &sample, &mut buf));
    let gather_paged_ns =
        g.bench("gather_shuffled_warm_paged", || gather_all(&warm, &sample, &mut buf));
    drop(warm);
    std::fs::remove_file(&wide_path).ok();

    // Instrumented cold pass for the pager's own per-fault average and
    // the paged resident footprint vs the eager heap load.
    let rss_before = rss_bytes();
    let cache = Arc::new(PageCache::unbounded());
    let (paged, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    scan_all(&paged);
    let cold = cache.snapshot();
    let paged_rss_delta = rss_delta(rss_before);
    drop(paged);
    let fault_ns = cold.fault_nanos as f64 / cold.faults.max(1) as f64;

    let rss_before = rss_bytes();
    let heap_copy = snapshot::open(&path, Residency::Heap).unwrap().0;
    let heap_rss_delta = rss_delta(rss_before);
    drop(heap_copy);

    // Budget mode: repeated full scans through a quarter-size cache, so
    // eviction churns and every pass re-admits pages the last released.
    let rss_before = rss_bytes();
    let cache_b = Arc::new(PageCache::new(Some(budget)));
    let (paged_b, _) = snapshot::open(&path, Residency::Paged(&cache_b)).unwrap();
    let open_rss_delta = rss_delta(rss_before);
    let budget_scan_ns = g.bench("budget_scan_with_eviction", || {
        scan_all(&paged_b);
        black_box(())
    });
    let snap = cache_b.snapshot();
    assert!(snap.evictions > 0, "quarter-size budget never evicted");
    assert!(
        snap.peak_resident_bytes <= budget,
        "peak resident {} exceeded budget {budget}",
        snap.peak_resident_bytes
    );
    let evict_ns_avg = snap.evict_nanos as f64 / snap.evictions as f64;
    drop(paged_b);

    // Release, then touch again: under a one-page budget each first-row
    // read admits its page and releases the previous one, so a round
    // over a column's (already validated) pages is one refault apiece.
    let cache_r = Arc::new(PageCache::new(Some(65536)));
    let (paged_r, _) = snapshot::open(&path, Residency::Paged(&cache_r)).unwrap();
    scan_all(&paged_r);
    let column = paged_r.column(0);
    let pages = ROWS / 65536;
    let round_ns = g.bench("refault_round_one_page_budget", || {
        for page in 0..pages {
            black_box(column.code(page * 65536));
        }
    });
    let refault_ns_avg = round_ns / pages as f64;
    drop(paged_r);

    let mut w = ObjectWriter::new();
    w.str_field("bench", "pager")
        .usize_field("rows", ROWS)
        .usize_field("cols", COLS)
        .u64_field("dataset_plain_bytes", plain)
        .u64_field("budget_bytes", budget)
        .f64_field("cold_scan_ns", cold_scan_ns)
        .f64_field("warm_scan_ns", warm_scan_ns)
        .f64_field("heap_scan_ns", heap_scan_ns)
        .f64_field("budget_scan_ns", budget_scan_ns)
        .f64_field("fault_ns_avg", fault_ns)
        .usize_field("gather_cols", GATHER_COLS)
        .usize_field("gather_rows", SAMPLE)
        .f64_field("gather_heap_ns", gather_heap_ns)
        .f64_field("gather_paged_ns", gather_paged_ns)
        .f64_field("gather_paged_over_heap", gather_paged_ns / gather_heap_ns)
        .f64_field("evict_ns_avg", evict_ns_avg)
        .f64_field("refault_ns_avg", refault_ns_avg)
        .u64_field("cold_faults", cold.faults)
        .u64_field("cold_crc_validations", cold.crc_validations)
        .u64_field("budget_faults", snap.faults)
        .u64_field("budget_evictions", snap.evictions)
        .u64_field("peak_resident_bytes", snap.peak_resident_bytes)
        .u64_field("resident_bytes", snap.resident_bytes)
        .f64_field("paged_open_rss_delta_bytes", open_rss_delta)
        .f64_field("paged_cold_rss_delta_bytes", paged_rss_delta)
        .f64_field("heap_load_rss_delta_bytes", heap_rss_delta);
    let json = w.finish();

    std::fs::remove_file(&path).ok();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_pager.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_pager.json");
    println!("\nwrote {out}");
    println!("{json}");
}
