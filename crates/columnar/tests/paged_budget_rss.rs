//! The byte budget is real: under `PageCache::new(Some(B))` the mapped
//! snapshot's share of this process's resident set — `RssFile` of
//! `/proc/self/status`, which counts exactly the file pages a mapping
//! has faulted in — stays near `B` after open and after reading the
//! whole file, where an unbounded cache leaves the whole file resident.
//!
//! One test, in a file (so a process) of its own: `RssFile` is
//! process-wide and any other test mapping a file would move it.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use swope_columnar::{snapshot, Column, Dataset, Field, PageCache, Residency, Schema};

/// Bytes of file-backed pages mapped into this process, if the kernel
/// reports them.
fn rss_file_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("RssFile:"))?;
    Some(kb.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()? * 1024)
}

#[test]
fn a_budgeted_snapshot_keeps_its_share_of_rss_near_the_budget() {
    let Some(_) = rss_file_bytes() else { return };
    // 1Mi rows of four u8, two u16 and one u32 column: 12 MiB of pages,
    // six times the budget.
    const ROWS: u32 = 1 << 20;
    const BUDGET: u64 = 2 << 20;
    let supports = [200u32, 9, 250, 31, 40_000, 1_000, 90_000];
    let fields = supports.iter().enumerate().map(|(i, &s)| Field::new(format!("c{i}"), s));
    // Few distinct codes spread over each support, so the sketch stays
    // small and the file is its pages.
    let columns = supports.iter().map(|&s| {
        let codes = (0..ROWS).map(|i| i.wrapping_mul(2654435761) % 7 * (s / 7)).collect();
        Column::new(codes, s).unwrap()
    });
    let ds = Dataset::new(Schema::new(fields.collect()), columns.collect()).unwrap();
    let path =
        std::env::temp_dir().join(format!("swope-paged-budget-rss-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(file_len >= 4 * BUDGET);

    let mapped_since = |base: u64| rss_file_bytes().unwrap().saturating_sub(base);
    let scan = |paged: &Dataset| {
        for attr in 0..ds.num_attrs() {
            assert_eq!(paged.column(attr).value_counts(), ds.column(attr).value_counts());
        }
    };

    let base = rss_file_bytes().unwrap();
    let cache = Arc::new(PageCache::new(Some(BUDGET)));
    let (paged, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    let after_open = mapped_since(base);
    scan(&paged);
    let after_scan = mapped_since(base);
    // Strided single-row reads: the access a sampler makes, every page
    // of every column met out of order.
    for attr in 0..ds.num_attrs() {
        for row in (0..ROWS as usize).step_by(40_009) {
            assert_eq!(paged.column(attr).code(row), ds.column(attr).code(row));
        }
    }
    let after_reads = mapped_since(base);
    let snap = cache.snapshot();
    eprintln!("open {after_open} scan {after_scan} reads {after_reads} file {file_len} {snap:?}");
    assert!(snap.peak_resident_bytes <= BUDGET);
    for (when, mapped) in [("open", after_open), ("scan", after_scan), ("reads", after_reads)] {
        assert!(mapped <= BUDGET * 3 / 2, "after {when}: {mapped} bytes of the file are resident");
    }
    drop(paged);

    // The control: the same reads under an unbounded cache release
    // nothing, so the measurement above does see mapped pages.
    let base = rss_file_bytes().unwrap();
    let (paged, _) =
        snapshot::open(&path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    scan(&paged);
    let unbounded = mapped_since(base);
    assert!(unbounded >= file_len * 9 / 10, "{unbounded} of {file_len} bytes resident");
    drop(paged);
    std::fs::remove_file(&path).ok();
}
