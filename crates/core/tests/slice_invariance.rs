//! A slice — a `swope split` half, one ascending run of a table's rows —
//! stores its rows in its table's layout (snapshot v4), but answers every
//! query as the same rows loaded on their own do: its queries draw their
//! samples in its own row count's layout and read its storage through
//! the layout it keeps. This holds on the heap, paged, and paged under a
//! one-page budget, with and without its sketch, over the whole slice, a
//! range across its page boundaries and a predicate.

#[macro_use]
mod common;

use std::sync::Arc;

use common::{scoped, sketch_of};
use swope_columnar::{snapshot, Column, Dataset, PageCache, Residency, PAGE_ROWS};
use swope_core::{Rule, Scope, Shape, SwopeConfig};

/// Rows 40 000 into page 1 of a 3-page-and-a-bit table, to its end: the
/// slice's grid leads with 40 000 slots.
fn slice() -> Dataset {
    let table = common::staggered_dataset(0x5_11CE, 3 * PAGE_ROWS + 1_234);
    let rows: Vec<usize> = (PAGE_ROWS + 40_000..table.num_rows()).collect();
    let slice = table.take_rows(&rows);
    assert_eq!(slice.frame(), (table.num_rows(), PAGE_ROWS + 40_000));
    slice
}

/// The slice's rows as a dataset of their own.
fn own(ds: &Dataset) -> Dataset {
    let columns = (0..ds.num_attrs())
        .map(|a| Column::new(ds.column(a).to_codes(), ds.support(a)).unwrap())
        .collect();
    Dataset::new(ds.schema().clone(), columns).unwrap()
}

#[test]
fn a_slice_answers_alike_on_heap_and_paged_and_as_its_rows_alone() {
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
    let alone = own(&ds);
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
            // A predicate's sketch prunes the slice's own pages, which are
            // not its rows' pages alone; with no sketch, or none to use,
            // the rows alone give the same bytes.
            if scope.predicate.is_none() || sk.is_none() {
                let own_sketch = sk.map(|_| sketch_of(&alone));
                let alone = scoped(&alone, shape, scope, own_sketch.as_ref(), &cfg);
                assert_eq!(alone, want, "alone {shape:?} {scope:?} {}", sk.is_some());
            }
        }
    }
}
