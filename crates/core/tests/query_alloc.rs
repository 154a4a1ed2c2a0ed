//! Per-query allocation audit: a query does not rebuild its count body.
//!
//! A count source borrows the thread's spare `Counter`
//! (`swope_core::shard::Counter::warm`) and hands it back when the query
//! ends, and the kernels' scratch is the thread's, so the histograms,
//! joint deltas, lane tables and block buffers the first query on a
//! thread grows serve every later one. Three identical `entropy_top_k`
//! queries over `h` attributes on one thread must therefore show:
//!
//! * the 2nd and 3rd allocate equally often (nothing grows after the
//!   first);
//! * each allocates at least `h` times fewer than the 1st — at least one
//!   allocation saved per attribute, the histogram the 1st query had to
//!   build for it. What every query still allocates (its states, sampler
//!   and answer) is the same each time.
//!
//! This binary installs a counting global allocator, as
//! `ingest_alloc.rs` does, and holds a single test for the same reason:
//! a neighbour test would count its allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swope_columnar::{Column, Dataset, Field, Schema};
use swope_core::{entropy_top_k, SwopeConfig};
use swope_sampling::rng::Xoshiro256pp;

/// Counts every allocation and reallocation, as `ingest_alloc.rs` does.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic increment, which neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn a_query_reuses_the_count_body_the_last_one_grew() {
    // Supports of both widths and of every lane shape; two pages, so the
    // sample draws runs from each.
    let n = 100_000usize;
    let supports = [2u32, 16, 64, 300, 1000, 3, 40, 200, 700, 5, 90, 1500];
    let h = supports.len() as u64;
    let mut rng = Xoshiro256pp::seed_from_u64(0xA110C);
    let columns = supports.map(|u| {
        Column::new((0..n).map(|_| rng.next_below(u64::from(u)) as u32).collect(), u).unwrap()
    });
    let fields = supports.iter().enumerate().map(|(a, &u)| Field::new(format!("c{a}"), u));
    let ds = Dataset::new(Schema::new(fields.collect()), columns.to_vec()).unwrap();
    let config = SwopeConfig::with_epsilon(0.05).with_seed(3);

    let query = || {
        let before = ALLOCS.load(Ordering::Relaxed);
        let answer = entropy_top_k(&ds, 3, &config).unwrap();
        (ALLOCS.load(Ordering::Relaxed) - before, answer)
    };
    let (first, want) = query();
    let (second, got) = query();
    assert_eq!(got, want);
    let (third, got) = query();
    assert_eq!(got, want);
    assert!(want.stats.iterations > 1, "the queries must double at least once");

    assert_eq!(second, third, "a warm query allocated more than the one before it");
    assert!(
        first >= second + h,
        "the 1st query allocated {first} times, the 2nd {second}: fewer than {h} saved"
    );
}
