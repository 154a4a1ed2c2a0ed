//! How many pages a budgeted snapshot faults under the adaptive loop's
//! access, pinned. Every doubling re-reads every live column's sampled
//! pages, so a query whose pages outgrow the budget is a cyclic scan;
//! the counter reverses its column order on every other doubling so
//! each scan starts on the pages the last one touched last, and the
//! cache keeps the least recently touched ones out. The count is a
//! property of that pair: it moves if the cache stops evicting by
//! recency or the counter stops alternating, and it moves no answer
//! (`pager_invariance.rs`), so the only thing this test can see is the
//! work the pager does.

use std::sync::Arc;

use swope_columnar::{snapshot, stats, PageCache, Residency, PAGE_ROWS};
use swope_core::{run, Executor, NoopObserver, Rule, Scope, Shape, SwopeConfig};

/// Six pages a column.
const ROWS: usize = 6 * PAGE_ROWS;

/// Twelve u8 columns: 72 pages of 64 KiB.
const COLS: usize = 12;

/// Faults the query list below takes on a fresh cache of a quarter of
/// the snapshot's bytes, recorded with least-recently-touched eviction
/// and alternating column order. The other three pairings read: CLOCK
/// (second-chance) eviction 1 090 in one order and 686 alternating,
/// least-recently-touched in one order 1 119.
const FAULTS: u64 = 521;

/// Ranges inside a hot window (rows 30–45 % of the table: two pages a
/// column, 24 in all against a budget of 21) with one range anywhere
/// after every three, alternating top-k and filter — the shape of the
/// paged hot/cold benchmark, at a size a test can run.
fn queries() -> Vec<(Shape, Scope)> {
    let (hot_lo, hot_hi) = (ROWS * 30 / 100, ROWS * 45 / 100);
    let span = hot_hi - hot_lo;
    (0..16)
        .map(|i| {
            let scope = match i % 4 {
                3 => {
                    let len = ROWS * (5 + 5 * (i / 4)) / 100;
                    let start = (ROWS - len) * (i * 7 % 16) / 16;
                    Scope::range(start, start + len)
                }
                _ => {
                    let len = span * (40 + 4 * i) / 100;
                    let start = hot_lo + (span - len) * (i * 5 % 16) / 16;
                    Scope::range(start, start + len)
                }
            };
            let rule = match i % 2 {
                0 => Rule::TopK { k: 1 + i % 5 },
                _ => Rule::Filter { eta: 1.0 + i as f64 / 8.0 },
            };
            (Shape::entropy(rule), scope)
        })
        .collect()
}

#[test]
fn a_hot_cold_query_list_faults_a_pinned_number_of_pages() {
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, COLS), 0x7A6E);
    let path = std::env::temp_dir().join(format!("swope-pager-faults-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).unwrap();
    let budget = stats::bytes_in_memory(&ds) as u64 / 4;
    let cache = Arc::new(PageCache::new(Some(budget)));
    let (paged, sketch) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    // A thread of its own: a thread keeps its counter from query to
    // query, and with it which way the next count runs.
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, (shape, scope)) in queries().iter().enumerate() {
                let cfg = SwopeConfig::with_epsilon(0.2).with_seed(100 + i as u64);
                let exec = Executor::sequential();
                run(&paged, shape, scope, sketch.as_ref(), &cfg, &mut NoopObserver, &exec).unwrap();
            }
        });
    });
    let snap = cache.snapshot();
    std::fs::remove_file(&path).ok();
    assert!(snap.peak_resident_bytes <= budget);
    assert_eq!(snap.faults, FAULTS, "{snap:?}");
}
