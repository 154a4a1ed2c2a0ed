//! A count that unwinds leaves nothing behind on its thread.
//!
//! The count path keeps its buffers warm across queries: the kernels'
//! scratch (block buffers, lane and dense tables) is the counting
//! thread's, and a count source's [`Counter`] is the thread's spare,
//! borrowed through [`Counter::warm`]. Both are only clean because a
//! call that returns leaves its tables zeroed and its deltas parked. A
//! call that panics half way — a corrupt page, a position past the
//! column — leaves them half filled, so neither may go back to the
//! thread then: the next count on the thread must be bitwise the count
//! a fresh thread makes.
//!
//! Each case counts a list of more than [`INGEST_BLOCK_ROWS`] positions
//! whose last block fails, so its first block is already in the tables
//! when the panic unwinds; catches it; then counts good positions on the
//! same thread and on a new one and compares every histogram and joint
//! delta:
//!
//! * entropy on the heap, the last position past the column: the
//!   marginal lane table is dirty;
//! * MI on a paged copy whose candidate column has a corrupt last page
//!   (a position past the column would fail the target's gather first,
//!   before any table is touched): the candidate's lane table and the
//!   dense joint table are dirty, and the target's histogram and lanes
//!   are compared too;
//! * the same with a candidate too wide for the dense table, whose
//!   joint delta — part of the counter, not of the scratch — holds the
//!   first block's pairs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use swope_columnar::{snapshot, Column, Dataset, Field, PageCache, Positions, Residency, Schema};
use swope_core::count::INGEST_BLOCK_ROWS;
use swope_core::shard::Counter;
use swope_core::{CountRequest, Executor, ShardCounts};
use swope_sampling::rng::Xoshiro256pp;

/// Three pages: the target (8 codes), a candidate whose pairs with it
/// take the dense table (16 codes, 128 cells), one whose pairs do not
/// (3 000 codes, 24 000 cells), then the dense one again, last, so a
/// corrupt last page can be put in either kind.
fn dataset() -> Dataset {
    let n = 2 * 65_536 + 5_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x0DD5);
    let supports = [8u32, 16, 3_000, 16];
    let columns = supports.map(|u| {
        Column::new((0..n).map(|_| rng.next_below(u64::from(u)) as u32).collect(), u).unwrap()
    });
    let fields = supports.iter().enumerate().map(|(a, &u)| Field::new(format!("c{a}"), u));
    Dataset::new(Schema::new(fields.collect()), columns.to_vec()).unwrap()
}

/// Positions on the first two pages: two blocks and a bit, none on the
/// last page.
fn good_positions() -> Vec<u32> {
    (0..INGEST_BLOCK_ROWS as u32 + 900).map(|i| i * 13 % 131_072).collect()
}

/// Counts `list` for `req` on a counter borrowed from the calling
/// thread, handing it back when done.
fn count(ds: &Dataset, list: &[u32], req: &CountRequest) -> ShardCounts {
    let mut counts = ShardCounts::default();
    let mut counter = Counter::warm();
    counter.count(ds, Positions::from(list), req, &mut counts, &Executor::sequential());
    counts
}

/// Counts `bad` for `req` on this thread and checks that it panics with
/// `message`; then checks that this thread's next count of the good
/// positions is a fresh thread's.
fn unwinds_clean(ds: &Dataset, bad: &[u32], req: &CountRequest, message: &str, case: &str) {
    let good = good_positions();
    let failed = catch_unwind(AssertUnwindSafe(|| count(ds, bad, req)));
    let payload = failed.expect_err("the bad count must panic");
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(text.contains(message), "{case}: panicked with {text:?}");

    let warm = count(ds, &good, req);
    let fresh = std::thread::scope(|s| s.spawn(|| count(ds, &good, req)).join().unwrap());
    assert_eq!(warm, fresh, "{case}: the count after the panic");
    // And again, on the buffers that count left.
    assert_eq!(count(ds, &good, req), fresh, "{case}: the count after that");
}

/// Writes `ds` as a snapshot, flips the last byte of column `attr`'s
/// final page payload, and opens it paged.
fn paged_with_corrupt_last_page(ds: &Dataset, attr: usize, path: &Path) -> Dataset {
    snapshot::write_file(ds, path).unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    // The section table follows the 12-byte header, 24 bytes an entry
    // (kind u32, attr u32, offset u64, len u64), the schema's first and
    // then one a column in attribute order.
    let entry = 12 + (1 + attr) * 24;
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let end = field(entry + 8) + field(entry + 16);
    bytes[end - 1] ^= 1;
    std::fs::write(path, bytes).unwrap();
    let cache = Arc::new(PageCache::unbounded());
    snapshot::open(path, Residency::Paged(&cache)).unwrap().0
}

#[test]
fn a_count_that_unwinds_leaves_its_thread_clean() {
    let ds = dataset();
    // Warm this thread first, so a dirty buffer would be reused, not
    // replaced.
    let entropy = CountRequest { target: None, live: vec![1, 2, 3] };
    count(&ds, &good_positions(), &entropy);

    let mut past_the_column = good_positions();
    past_the_column.push(ds.num_rows() as u32);
    unwinds_clean(&ds, &past_the_column, &entropy, "out of bounds", "entropy, heap");

    // A position on the last page, which is corrupt in one column only.
    let mut on_the_last_page = good_positions();
    on_the_last_page.push(2 * 65_536 + 17);
    let dir = std::env::temp_dir();
    for (attr, live, case) in
        [(3, vec![3, 1], "MI, dense joint"), (2, vec![2, 1], "MI, joint as runs")]
    {
        let path = dir.join(format!("swope-warm-unwind-{}-{attr}.swop", std::process::id()));
        let paged = paged_with_corrupt_last_page(&ds, attr, &path);
        let mi = CountRequest { target: Some(0), live };
        count(&paged, &good_positions(), &mi);
        unwinds_clean(&paged, &on_the_last_page, &mi, "checksum mismatch", case);
        let _ = std::fs::remove_file(path);
    }
}
