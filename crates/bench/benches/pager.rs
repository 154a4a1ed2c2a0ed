//! Pager benchmark: what out-of-core costs and what the budget holds.
//!
//! Five questions, one JSON. First, cold fault latency: admitting a
//! 64Ki-row page of the mapped snapshot on its first touch (CRC and
//! support check included), measured both as a scan median and as the
//! pager's own `fault_nanos / faults` average. Second, residency under a
//! byte budget: a dataset four times the configured budget is scanned
//! repeatedly, and the peak resident gauge must stay at or under the
//! budget while evictions churn; opening it must not leave the file
//! resident (`paged_open_rss_delta_bytes`). Third, what the budget costs
//! a page that comes back: `evict_ns_avg` (the victim search, `madvise`
//! included) and `refault_ns_avg` (touching a page eviction released —
//! admission plus the kernel's minor fault). Fourth, the read the
//! adaptive loops actually do: a page-prefix sample's delta counted from
//! every column of a warm paged dataset, in place from its pages as the
//! count path does (`paged_runs_in_place_over_rows`), against the path a
//! snapshot in row order needed — the delta's positions mapped to rows,
//! grouped by page and gathered a block at a time — rebuilt here. The
//! two alternate for a fixed number of rounds and the fastest of each is
//! kept. Fifth, what the eviction policy saves the adaptive loop: a fixed
//! list of hot-window and cold range queries run through
//! `swope_core::run` on one thread over a budgeted snapshot, and the
//! pages it faults a query (`hotcold_faults_per_query`) — a count, the
//! same on every machine.
//! Results persist to `results/BENCH_pager.json`; the CI pager-smoke
//! step runs this with `SWOPE_MICRO_MS=1` and validates the fields,
//! the budget invariant, the (machine-independent) count ratio and the
//! fault count against the recorded one, not the wall-clock numbers.

use std::sync::Arc;
use std::time::Instant;

use swope_bench::micro::{black_box, Group};
use swope_bench::rss_bytes;
use swope_columnar::{snapshot, stats, Dataset, PageCache, Positions, Residency, PAGE_ROWS};
use swope_core::{count_candidate, CountScratch, CountState, PairCountState};
use swope_core::{run, Executor, NoopObserver, Rule, Scope, Shape, SwopeConfig};
use swope_obs::json::ObjectWriter;
use swope_sampling::{PageLayout, PageMembers, PagePrefix};

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

/// Rows in the sampled delta: several ingest blocks, every page hit.
const SAMPLE: usize = 40_000;

/// Columns of the dataset the delta is counted from.
const COUNT_COLS: usize = 16;

/// Rounds of the count comparison: a fixed number, not governed by
/// `SWOPE_MICRO_MS`, so the CI smoke measures what a default run does.
const COUNT_ROUNDS: usize = 31;

/// Counts `delta` from every column of `ds`, the way an iteration of an
/// adaptive loop does.
fn count_all(ds: &Dataset, delta: Positions<'_>, out: &mut CountState, scratch: &mut Count) {
    for attr in 0..ds.num_attrs() {
        let Count { kernels, pairs } = scratch;
        count_candidate(ds.column(attr), delta, None, out, pairs, kernels);
        black_box(out.total());
        out.clear();
    }
}

/// The count scratch both paths share.
#[derive(Default)]
struct Count {
    kernels: CountScratch,
    pairs: PairCountState,
}

/// What a delta cost before it was counted while a snapshot kept its
/// pages in row order: its positions mapped to rows
/// (`PageLayout::rows_of`), then the rows grouped by page once for every
/// column (a stable counting sort, as the grouper did) — a list each
/// column then gathered a block at a time. The codes at those rows are
/// other rows' in a v3 file, but the bytes touched and the work done
/// are the same.
#[derive(Default)]
struct ByRows {
    rows: Vec<u32>,
    grouped: Vec<u32>,
    next: Vec<usize>,
}

impl ByRows {
    fn group(&mut self, ds: &Dataset, delta: Positions<'_>) -> Positions<'_> {
        let Self { rows, grouped, next } = self;
        rows.clear();
        ds.layout().rows_of(delta, rows);
        let page = |r: u32| r as usize / PAGE_ROWS;
        next.clear();
        next.resize(ds.num_rows().div_ceil(PAGE_ROWS) + 1, 0);
        rows.iter().for_each(|&r| next[page(r) + 1] += 1);
        for p in 1..next.len() {
            next[p] += next[p - 1];
        }
        grouped.clear();
        grouped.resize(rows.len(), 0);
        for &r in rows.iter() {
            grouped[next[page(r)]] = r;
            next[page(r)] += 1;
        }
        Positions::from(&grouped[..])
    }
}

/// The fastest of [`COUNT_ROUNDS`] alternating rounds of each path over
/// one page-prefix delta of [`SAMPLE`] rows, in ns: (in place, by rows).
fn bench_count(ds: &Dataset) -> (f64, f64) {
    let members = PageMembers::range(&PageLayout::of(ds.num_rows()), 0..ds.num_rows());
    let mut sampler = PagePrefix::new(members, 0x5A3F);
    let delta = sampler.grow_to(SAMPLE);
    assert!(!delta.runs.is_empty(), "a full-scope sample draws whole pages as runs");
    let support = (0..ds.num_attrs()).map(|attr| ds.support(attr)).max().unwrap_or(1);
    let mut out = CountState::new(support);
    let (mut scratch, mut rows) = (Count::default(), ByRows::default());
    let (mut in_place, mut by_rows) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..COUNT_ROUNDS {
        let started = Instant::now();
        count_all(ds, rows.group(ds, delta), &mut out, &mut scratch);
        by_rows = by_rows.min(started.elapsed().as_nanos() as f64);
        let started = Instant::now();
        count_all(ds, delta, &mut out, &mut scratch);
        in_place = in_place.min(started.elapsed().as_nanos() as f64);
    }
    println!(
        "pager/count_{SAMPLE}_rows_{}_cols  by rows {:.1} µs  in place {:.1} µs  (fastest of {COUNT_ROUNDS})",
        ds.num_attrs(),
        by_rows / 1e3,
        in_place / 1e3
    );
    (in_place, by_rows)
}

/// Pages a column of the hot/cold snapshot.
const HOTCOLD_PAGES: usize = 8;

/// Columns of the hot/cold snapshot, all u8.
const HOTCOLD_COLS: usize = 16;

/// Queries in the hot/cold list.
const HOTCOLD_QUERIES: usize = 40;

/// The hot/cold list: three ranges inside a hot window (rows 30–45 % of
/// the table, which outgrows a quarter-size budget by a little) to one
/// range of 5–25 % of the rows anywhere, alternating top-k and filter —
/// `paged_hotcold`'s shape at a size a smoke run affords.
fn hotcold_queries(rows: usize) -> Vec<(Shape, Scope)> {
    let (hot_lo, hot_hi) = (rows * 30 / 100, rows * 45 / 100);
    let span = hot_hi - hot_lo;
    (0..HOTCOLD_QUERIES)
        .map(|i| {
            let (len, start) = match i % 4 {
                3 => {
                    let len = rows * (5 + i % 21) / 100;
                    (len, (rows - len) * (i * 7 % 32) / 32)
                }
                _ => {
                    let len = span * (25 + i * 3 % 76) / 100;
                    (len, hot_lo + (span - len) * (i * 5 % 32) / 32)
                }
            };
            let rule = match i % 2 {
                0 => Rule::TopK { k: 1 + i % 10 },
                _ => Rule::Filter { eta: 1.5 + (i % 9) as f64 / 2.0 },
            };
            (Shape::entropy(rule), Scope::range(start, start + len))
        })
        .collect()
}

/// Pages the hot/cold list faults a query on a fresh quarter-size cache,
/// counted on one thread of its own (a thread keeps its counter, and
/// with it the order of its next count, from query to query).
fn hotcold_faults_per_query() -> f64 {
    let rows = HOTCOLD_PAGES * PAGE_ROWS;
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(rows, HOTCOLD_COLS), 0x7A70);
    let path =
        std::env::temp_dir().join(format!("swope-bench-hotcold-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).expect("writing hot/cold snapshot");
    let budget = stats::bytes_in_memory(&ds) as u64 / 4;
    let cache = Arc::new(PageCache::new(Some(budget)));
    let (paged, sketch) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, (shape, scope)) in hotcold_queries(rows).iter().enumerate() {
                let cfg = SwopeConfig::with_epsilon(0.2).with_seed(0x40 + i as u64);
                let exec = Executor::sequential();
                run(&paged, shape, scope, sketch.as_ref(), &cfg, &mut NoopObserver, &exec)
                    .expect("hot/cold query");
            }
        });
    });
    std::fs::remove_file(&path).ok();
    let faults = cache.snapshot().faults as f64 / HOTCOLD_QUERIES as f64;
    println!("pager/hotcold_faults_per_query  {faults:.3}  ({HOTCOLD_QUERIES} queries)");
    faults
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

    // The sampled read: one page-prefix delta counted from every column
    // of a warm paged dataset of a (modest) realistic width, in place
    // and by rows. Machine-independent as a ratio.
    let wide = swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, COUNT_COLS), 0x7A6F);
    let wide_path = path.with_extension("wide.swop");
    snapshot::write_file(&wide, &wide_path).expect("writing count snapshot");
    let (warm, _) =
        snapshot::open(&wide_path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    scan_all(&warm);
    let (in_place_ns, by_rows_ns) = bench_count(&warm);
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

    let hotcold_faults = hotcold_faults_per_query();

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
        .usize_field("count_cols", COUNT_COLS)
        .usize_field("count_rows", SAMPLE)
        .f64_field("paged_runs_in_place_ns", in_place_ns)
        .f64_field("paged_rows_staged_ns", by_rows_ns)
        .f64_field("paged_runs_in_place_over_rows", in_place_ns / by_rows_ns)
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
        .f64_field("heap_load_rss_delta_bytes", heap_rss_delta)
        .usize_field("hotcold_queries", HOTCOLD_QUERIES)
        .f64_field("hotcold_faults_per_query", hotcold_faults);
    let json = w.finish();

    std::fs::remove_file(&path).ok();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_pager.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_pager.json");
    println!("\nwrote {out}");
    println!("{json}");
}
