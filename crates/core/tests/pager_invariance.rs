//! Determinism property for the out-of-core pager: every adaptive loop
//! must return bitwise-identical results whether the dataset lives on
//! the heap, is memory-mapped page-by-page, or is paged under a byte
//! budget small enough to force continuous eviction.
//!
//! The pager changes only where code bytes live between touches. Every
//! paged read path (page-grouped gather, `gather_widen`, per-page
//! predicate scans) reads the exact same codes the heap's packed slices
//! hold. The six loops' gathers see an iteration's rows regrouped by
//! page, but every one of their ingests drains an order-independent
//! integer histogram, so the `(counter, joint)` update sequence — and
//! therefore every float — is identical. This is the acceptance bar
//! for `swope-pager`: heap / mmap / budget-evicting modes × widths
//! {u8,u16,u32} × exec threads {1,8}, across all six loops and the
//! scoped and sharded entry points.

#[macro_use]
mod common;

use std::sync::Arc;

use common::{comparators_against, plain, scoped, shapes_against, sharded};
use swope_columnar::{
    snapshot, Column, Dataset, DatasetSketch, Field, HeapMapping, PageCache, Residency, Schema,
    Width,
};
use swope_core::{Executor, Scope, Shape, SwopeConfig};
use swope_sampling::rng::Xoshiro256pp;

const THREADS: [usize; 2] = [1, 8];

/// Rows: two full 64Ki pages plus a partial third, so page boundaries
/// and the tail page are both exercised.
const ROWS: usize = 150_000;

/// Tight enough that the u32 column alone (4 pages, 256 KiB each)
/// cannot stay resident, loose enough that the pinned page plus one
/// neighbour always fit: eviction churns on every scan.
const BUDGET: u64 = 600_000;

/// Supports spanning all three packed widths, with skew on the narrow
/// columns (so RLE/palette demotion picks actually fire) and a small
/// target for the MI loops.
fn dataset(seed: u64) -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let mut make = |support: u32, skew: bool| -> Vec<u32> {
        (0..ROWS)
            .map(|_| {
                let c = r.next_below(support as u64) as u32;
                if skew && r.next_below(4) != 0 {
                    c % 3
                } else {
                    c
                }
            })
            .collect()
    };
    let specs: [(&str, u32, bool); 4] =
        [("target", 5, true), ("narrow", 40, true), ("mid", 2_000, false), ("wide", 70_000, false)];
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (name, support, skew) in specs {
        let codes = make(support, skew);
        fields.push(Field::new(name, support));
        columns.push(Column::new(codes, support).unwrap());
    }
    Dataset::new(Schema::new(fields), columns).unwrap()
}

fn temp_snapshot(ds: &Dataset, name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("swope-pager-inv-{}-{name}", std::process::id()));
    snapshot::write_file(ds, &path).unwrap();
    path
}

fn config(seed: u64, threads: usize) -> SwopeConfig {
    SwopeConfig::with_epsilon(0.2).with_seed(seed).with_threads(threads)
}

struct Mode {
    label: &'static str,
    dataset: Dataset,
    sketch: Option<DatasetSketch>,
    cache: Option<Arc<PageCache>>,
}

/// The one dataset in its three storage modes. The paged modes read the
/// same snapshot file the heap mode decoded eagerly.
fn modes(seed: u64) -> (Vec<Mode>, std::path::PathBuf) {
    let ds = dataset(seed);
    assert_eq!(ds.column(1).width(), Width::U8);
    assert_eq!(ds.column(2).width(), Width::U16);
    assert_eq!(ds.column(3).width(), Width::U32);
    let path = temp_snapshot(&ds, &format!("{seed}.swop"));
    let (heap, heap_sketch) = snapshot::open(&path, Residency::Heap).unwrap();
    let mut out = vec![Mode { label: "heap", dataset: heap, sketch: heap_sketch, cache: None }];
    for (label, budget) in [("mmap", None), ("budget", Some(BUDGET))] {
        let cache = Arc::new(PageCache::new(budget));
        let (paged, sketch) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
        for attr in 0..paged.num_attrs() {
            assert!(paged.column(attr).is_paged(), "{label} column {attr} should be paged");
        }
        out.push(Mode { label, dataset: paged, sketch, cache: Some(cache) });
    }
    // The read fallback — the whole file on the heap, where releasing an
    // evicted page is a no-op — under the same budget.
    let cache = Arc::new(PageCache::new(Some(BUDGET)));
    let mapping = Arc::new(HeapMapping::open(&path).unwrap());
    let (paged, sketch) = snapshot::open_on(mapping, Residency::Paged(&cache)).unwrap();
    out.push(Mode { label: "read", dataset: paged, sketch, cache: Some(cache) });
    (out, path)
}

/// Runs `query` on every mode × thread count and asserts each result is
/// identical to the heap single-thread baseline. The budget mode must
/// actually have evicted (otherwise it degenerates to the mmap mode and
/// proves nothing) and must fit its configured budget after a trim —
/// concurrent gathers (8 exec threads, and the sharded test's 4 shards)
/// pin pages past the budget while they run, and only the next
/// admission or an explicit `trim()` reclaims the overshoot.
fn assert_pager_invariant<R: PartialEq + std::fmt::Debug>(
    seed: u64,
    query: impl Fn(&Mode, &SwopeConfig) -> R,
) {
    let (modes, path) = modes(seed);
    let baseline = query(&modes[0], &config(seed, 1));
    for mode in &modes {
        for t in THREADS {
            assert_eq!(
                query(mode, &config(seed, t)),
                baseline,
                "mode = {}, threads = {t}",
                mode.label
            );
        }
        if let Some(cache) = &mode.cache {
            let snap = cache.snapshot();
            assert!(snap.faults > 0, "{}: queries should fault pages in", mode.label);
            if let Some(budget) = snap.budget_bytes {
                assert!(snap.evictions > 0, "budget mode never evicted");
                cache.trim();
                let resident = cache.snapshot().resident_bytes;
                assert!(
                    resident <= budget,
                    "trimmed steady-state resident {resident} exceeds budget {budget}"
                );
            } else {
                assert_eq!(snap.evictions, 0, "unbounded cache must not evict");
            }
        }
    }
    let _ = std::fs::remove_file(path);
}

/// A scope that exercises both the range clamp and the sketch-guided
/// predicate scan (the skewed narrow column makes some pages skippable).
fn scope() -> Scope {
    Scope::range(10_000, 140_000).with_predicate(1, 2)
}

/// The shared shape list against this dataset's small target column.
fn shapes() -> [Shape; 6] {
    shapes_against(0)
}

/// `shapes()[i]` over the whole dataset.
fn assert_shape_pager_invariant(i: usize, seed: u64) {
    let shape = shapes()[i];
    assert_pager_invariant(seed, |m, cfg| plain(&m.dataset, &shape, cfg));
}

shape_tests!(assert_shape_pager_invariant {
    entropy_top_k_is_pager_invariant(0, 31);
    entropy_filter_is_pager_invariant(1, 32);
    mi_top_k_is_pager_invariant(2, 33);
    mi_filter_is_pager_invariant(3, 34);
    entropy_profile_is_pager_invariant(4, 35);
    mi_profile_is_pager_invariant(5, 36);
});

/// EntropyRank, EntropyFilter and their MI lifts run on the same loop,
/// so through the same page-grouped gather.
#[test]
fn comparators_are_pager_invariant() {
    assert_pager_invariant(41, |m, cfg| {
        comparators_against(0).map(|shape| plain(&m.dataset, &shape, cfg))
    });
}

#[test]
fn scoped_queries_are_pager_invariant() {
    assert_pager_invariant(37, |m, cfg| {
        shapes().map(|shape| scoped(&m.dataset, &shape, &scope(), m.sketch.as_ref(), cfg))
    });
}

/// A range with one whole page and 44 464 fringe rows.
const FRINGE_RANGE: (usize, usize) = (30_000, 140_000);

/// The same whole page with 9 464 fringe rows.
const COVERING_RANGE: (usize, usize) = (60_000, 135_000);

/// The scope shapes the combined scope above never reaches. A pure
/// predicate materializes its members by scanning *every* page the
/// sketch cannot rule out — per-page slices of a paged column. A pure
/// range reads its whole pages and its two fringe pages, whatever share
/// of it they hold, and a sketch changes nothing about it: both ranges
/// answer alike wherever the columns live, on any thread count, and with
/// or without a sketch. Entropy and MI shapes, threads 1/8.
#[test]
fn predicate_and_range_scopes_are_pager_invariant() {
    // Entropy top-k, MI top-k, MI filter.
    let picked = [0, 2, 3].map(|i| shapes()[i]);
    let ranges = [FRINGE_RANGE, COVERING_RANGE].map(|(start, end)| Scope::range(start, end));
    assert_pager_invariant(40, |m, cfg| {
        let sk = m.sketch.as_ref();
        [Scope::all().with_predicate(1, 2), ranges[0].clone(), ranges[1].clone()]
            .map(|scope| picked.map(|shape| scoped(&m.dataset, &shape, &scope, sk, cfg)))
    });
    // Neither range's answer depends on the sketch.
    let ds = dataset(40);
    let sk = common::sketch_of(&ds);
    let cfg = config(40, 1);
    let [fringe, covering] =
        ranges.map(|scope| [Some(&sk), None].map(|sk| scoped(&ds, &picked[0], &scope, sk, &cfg)));
    assert_eq!(fringe[0], fringe[1]);
    assert_eq!(covering[0], covering[1]);
}

/// Flips one byte in the last column's final page payload (the byte
/// just before the sketch section, located via the section table:
/// 12-byte header, then 24-byte entries of kind/attr u32 + offset/len
/// u64 with the sketch entry last).
fn corrupt_last_page(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let entry = 12 + (count - 1) * 24;
    let sketch_off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    bytes[sketch_off - 1] ^= 1;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn untouched_corrupt_pages_do_not_fail_scoped_sampling_queries() {
    let seed = 39;
    let ds = dataset(seed);
    let path = temp_snapshot(&ds, "corrupt.swop");
    corrupt_last_page(&path);

    // Eager load validates every CRC up front and refuses the file.
    assert!(snapshot::open(&path, Residency::Heap).is_err());

    // Paged open defers CRCs to first touch, so a scope confined to the
    // first two pages (rows < 100k never reach the final page starting
    // at row 131072) samples normally — and answers exactly what the
    // pristine in-memory dataset does.
    let (paged, sketch) =
        snapshot::open(&path, Residency::Paged(&Arc::new(PageCache::unbounded()))).unwrap();
    let scope = Scope::range(0, 100_000);
    let cfg = config(seed, 1);
    let got = scoped(&paged, &shapes()[0], &scope, sketch.as_ref(), &cfg);
    let want = scoped(&ds, &shapes()[0], &scope, sketch.as_ref(), &cfg);
    assert_eq!(got, want, "corruption outside the scope must be invisible");

    // Touching the bad page is a one-line error naming its index.
    let last = paged.num_attrs() - 1;
    let err = paged.column(last).paged().unwrap().value_counts().unwrap_err();
    assert_eq!(err.to_string(), "corrupt store data: page 2: checksum mismatch");
    let _ = std::fs::remove_file(path);
}

#[test]
fn sharded_queries_are_pager_invariant() {
    assert_pager_invariant(38, |m, cfg| {
        let exec = Executor::new(cfg.threads);
        shapes().map(|shape| sharded(&m.dataset, &shape, 4, cfg, &exec))
    });
}
