//! Steady-state allocation audit for the count path.
//!
//! The execution layer's claim is that once a query's buffers reach
//! their high-water mark, iterating allocates nothing per candidate.
//! Two halves check it:
//!
//! * the kernels every count source runs (`count_target` /
//!   `count_candidate` over reused deltas): block buffers are capped at
//!   [`swope_core::count::INGEST_BLOCK_ROWS`] and reused, the marginal
//!   kernel's lane tables and the joint kernel's dense pair table are
//!   sized by the first delta that takes them, and the MI target buffer
//!   only regrows past its largest delta. The same holds over paged
//!   columns, whose gather adds page lookups but no allocation once the
//!   pages are resident;
//! * `LocalShardSource`, the counter of in-process shards and cluster
//!   peers: an `advance` + `recycle` cycle counts into the histograms and
//!   joint deltas the last one handed back, so it allocates as often
//!   with one live candidate as with three.
//!
//! This binary installs a counting global allocator and asserts exactly
//! that. It holds a single test on purpose: the harness is per-process,
//! and a concurrently running neighbour test would count its own
//! allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swope_columnar::{snapshot, Column, Dataset, Field, PageCache, Residency, Schema};
use swope_core::{
    count_candidate, count_target, CountRequest, CountScratch, CountState, Executor,
    LocalShardSource, PairCountState, ShardTransport, SwopeConfig, TargetBuf,
};
use swope_sampling::rng::Xoshiro256pp;

/// Counts every allocation and reallocation; frees are not interesting
/// here (a steady-state loop that frees must have allocated first).
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
fn staged_ingest_allocates_nothing_in_steady_state() {
    // Three 64Ki-row pages, so the paged case crosses page boundaries.
    let n = 3 * 65_536usize;
    let mut r = Xoshiro256pp::seed_from_u64(0x5170);
    let make = |support: u32, r: &mut Xoshiro256pp| -> Vec<u32> {
        (0..n).map(|_| r.next_below(support as u64) as u32).collect()
    };
    let ds = Dataset::new(
        Schema::new(vec![Field::new("cand", 8), Field::new("target", 4)]),
        vec![Column::new(make(8, &mut r), 8).unwrap(), Column::new(make(4, &mut r), 4).unwrap()],
    )
    .unwrap();
    let rows: Vec<u32> = {
        let mut rows: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates so the gather sees sampler-like random row order.
        for i in (1..n).rev() {
            rows.swap(i, r.next_below(i as u64 + 1) as usize);
        }
        rows
    };
    audit("heap", &ds, &rows);

    // The same columns out-of-core: the paged gather and its in-place
    // reads must be just as allocation-free once every page is resident
    // (an unbounded cache never evicts, so no steady-state delta faults).
    let path = std::env::temp_dir().join(format!("swope-ingest-alloc-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).unwrap();
    let (paged, _) =
        snapshot::open(&path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    assert!(paged.column(0).is_paged());
    audit("paged", &paged, &rows);
    let _ = std::fs::remove_file(path);

    recycled_shards_allocate_alike();
}

fn audit(label: &str, ds: &Dataset, rows: &[u32]) {
    let cand = ds.column(0);
    let target = ds.column(1);
    // Deltas emptied after every count, one scratch across attributes.
    let (mut t_counts, mut counts) =
        (CountState::new(ds.support(1)), CountState::new(ds.support(0)));
    let (mut t_buf, mut pairs) = (TargetBuf::new(), PairCountState::new());
    let mut scratch = CountScratch::new();

    let mut ingest = |delta: &[u32]| {
        count_target(target, delta, &mut t_counts, &mut t_buf);
        let paired = Some(t_buf.target());
        count_candidate(cand, delta, paired, &mut counts, &mut pairs, &mut scratch);
        count_candidate(cand, delta, None, &mut counts, &mut pairs, &mut scratch);
        assert_eq!(counts.total(), 2 * delta.len() as u64);
        assert_eq!(pairs.total(), t_counts.total());
        t_counts.clear();
        counts.clear();
        pairs.clear();
    };

    // Warm-up: the first delta grows every buffer to its high-water mark
    // (block buffers cap at INGEST_BLOCK_ROWS, lane and dense tables at
    // their support's size — 20 000 rows over supports 8 and 4 take both
    // — and the target buffer sizes to the largest delta), touches every
    // page, and observes every (target, cand) pair so the counters'
    // structures are fully built.
    ingest(&rows[..20_000]);

    // Steady state: more ingests of never-larger deltas (sizes chosen to
    // land both on and off block boundaries, the 9-row tail below the
    // lane and dense thresholds) must not allocate at all.
    let before = ALLOCS.load(Ordering::Relaxed);
    for delta in rows[20_000..].chunks(7_321) {
        ingest(delta);
    }
    ingest(&rows[..9]);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "{label}: steady-state ingest performed allocations");
}

/// Allocations of the MI `advance` + `recycle` cycles after two warm-up
/// cycles, over 2 in-process shards, against target 0 with `live`
/// candidates.
fn cycle_allocations(live: Vec<usize>) -> u64 {
    let n = 60_000usize;
    let mut r = Xoshiro256pp::seed_from_u64(0x2EC7);
    let columns = [4u32, 8, 8, 8].map(|u| {
        Column::new((0..n).map(|_| r.next_below(u64::from(u)) as u32).collect(), u).unwrap()
    });
    let fields = (0..columns.len()).map(|a| Field::new(format!("c{a}"), columns[a].support()));
    let ds = Dataset::new(Schema::new(fields.collect()), columns.to_vec()).unwrap();
    let exec = Executor::sequential();
    let mut source = LocalShardSource::new(&ds, 2, &SwopeConfig::default(), &exec).unwrap();
    let req = CountRequest { target: Some(0), live };
    // The warm-up deltas are the largest, so every row list, target
    // buffer, scratch and joint delta has reached its size; each later
    // delta (1 000 rows, ≈ 500 a shard) still takes the lane and dense
    // tables.
    let mut cycle = |m: usize| {
        let counts = source.advance(m, &req).unwrap();
        let total: u64 = counts.iter().flat_map(|c| &c.joints).map(|j| j.total()).sum();
        source.recycle(counts);
        total
    };
    cycle(20_000);
    cycle(30_000);
    let before = ALLOCS.load(Ordering::Relaxed);
    for m in (31_000..=36_000).step_by(1_000) {
        assert_eq!(cycle(m), 1_000 * req.live.len() as u64);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn recycled_shards_allocate_alike() {
    let one = cycle_allocations(vec![1]);
    let three = cycle_allocations(vec![1, 2, 3]);
    assert_eq!(one, three, "recycled shards allocate per candidate: {one} vs {three}");
}
