//! A slice — a `swope split` half, one ascending run of a table's rows —
//! stores its rows in its table's layout (snapshot v4), and its queries
//! draw their samples where it stores them: each page of its grid is its
//! table's page restricted to its rows, a uniform order of them. Its
//! answers agree on the heap, paged, paged under a one-page budget and
//! in in-process shards, with and without its sketch, over the whole
//! slice, a range across its page boundaries and a predicate. Every
//! unscoped draw is a run counted in place, so an entropy query over it
//! gathers no row. That a slice answers as a one-peer coordinator over
//! it does is checked where a peer can serve it, in
//! `crates/cluster/tests/halves.rs`.

#[macro_use]
mod common;

use std::sync::Arc;

use common::{scoped, sharded, sketch_of};
use swope_columnar::{snapshot, Dataset, PageCache, Residency, PAGE_ROWS};
use swope_core::{gather_stats, Executor, Rule, Scope, Shape, SwopeConfig};

/// Rows 40 000 into page 1 of a 3-page-and-a-bit table, to its end: the
/// slice's grid leads with 40 000 slots.
fn slice() -> Dataset {
    let table = common::staggered_dataset(0x5_11CE, 3 * PAGE_ROWS + 1_234);
    let rows: Vec<usize> = (PAGE_ROWS + 40_000..table.num_rows()).collect();
    let slice = table.take_rows(&rows);
    assert_eq!(slice.frame(), (table.num_rows(), PAGE_ROWS + 40_000));
    slice
}

#[test]
fn a_slice_answers_alike_on_heap_and_paged_and_counts_its_draws_in_place() {
    let ds = slice();
    let path = std::env::temp_dir().join(format!("swope-slice-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).unwrap();
    let open = |budget: Option<u64>| {
        let cache = Arc::new(PageCache::new(budget));
        snapshot::open(&path, Residency::Paged(&cache)).unwrap()
    };
    // Unbounded, and one u8 page: every other page touched evicts.
    let (paged, paged_sketch) = open(None);
    let (tight, _) = open(Some(PAGE_ROWS as u64));
    let (heap, heap_sketch) = snapshot::open(&path, Residency::Heap).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((heap.frame(), paged.frame()), (ds.frame(), ds.frame()));
    let sketch = heap_sketch.expect("the writer emits a sketch");
    assert_eq!(paged_sketch.as_ref(), Some(&sketch));
    assert_eq!(sketch, sketch_of(&ds));
    let n = ds.num_rows();
    let scopes = [
        Scope::all(),
        Scope::range(5_000, n - 7_000),
        Scope::all().with_predicate(1, 1),
        Scope::range(20_000, n - 20_000).with_predicate(3, 2),
    ];
    let shapes = [Shape::entropy(Rule::TopK { k: 3 }), Shape::mi(5, Rule::TopK { k: 2 })];
    let cfg = SwopeConfig::with_epsilon(0.2).with_seed(0x51CE);
    for (shape, scope) in shapes.iter().flat_map(|s| scopes.iter().map(move |sc| (s, sc))) {
        for sk in [None, Some(&sketch)] {
            let want = scoped(&ds, shape, scope, sk, &cfg);
            for (name, copy) in [("heap", &heap), ("paged", &paged), ("one page", &tight)] {
                assert_eq!(
                    scoped(copy, shape, scope, sk, &cfg),
                    want,
                    "{name} {shape:?} {scope:?}"
                );
            }
        }
        // In-process shards draw the one sample the slice draws.
        if *scope == Scope::all() {
            let want = scoped(&ds, shape, scope, None, &cfg);
            let exec = Executor::sequential();
            assert_eq!(sharded(&ds, shape, 3, &cfg, &exec), want, "shards {shape:?}");
        }
    }
    // An unscoped entropy query gathers the codes of listed positions
    // only: over the slice, on the heap and paged, none.
    gather_stats::set_enabled(true);
    for copy in [&heap, &paged] {
        let before = gather_stats::snapshot();
        scoped(copy, &shapes[0], &Scope::all(), None, &cfg);
        assert_eq!(gather_stats::snapshot().since(before).rows, 0, "a draw was listed");
    }
    gather_stats::set_enabled(false);
}
