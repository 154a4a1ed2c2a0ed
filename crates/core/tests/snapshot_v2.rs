//! A v2 snapshot — pages in row order, no layout seed — still answers.
//! Opened on the heap it is laid out as it is decoded; opened paged it
//! is rewritten as v3 once, in memory. Either way it answers every query
//! `pager_invariance.rs` asks — the six shapes and the comparators over
//! the whole dataset, the six over a range with a predicate, the six on
//! four in-process shards — with the bytes its v3 rewrite answers with.

#[macro_use]
mod common;
#[path = "../../columnar/tests/support/snapshot_v2.rs"]
mod snapshot_v2;

use std::sync::Arc;

use common::{comparators_against, plain, scoped, shapes_against, sharded};
use swope_columnar::{
    snapshot, Column, Dataset, DatasetSketch, Field, PageCache, Residency, Schema, Width,
};
use swope_core::{Answer, Executor, Scope, SwopeConfig};
use swope_sampling::rng::Xoshiro256pp;

/// Two full pages and a partial third, as `pager_invariance.rs` has.
const ROWS: usize = 150_000;

/// A small target, and a candidate at each width; the two narrow columns
/// skewed to three codes, as `pager_invariance.rs` has them.
fn dataset(seed: u64) -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let specs = [("target", 5u32, true), ("narrow", 40, true), ("mid", 2_000, false)];
    let specs = specs.into_iter().chain([("wide", 70_000, false)]);
    let (mut fields, mut columns) = (Vec::new(), Vec::new());
    for (name, support, skew) in specs {
        let mut code = || match r.next_below(u64::from(support)) as u32 {
            c if skew && r.next_below(4) != 0 => c % 3,
            c => c,
        };
        fields.push(Field::new(name, support));
        columns.push(Column::new((0..ROWS).map(|_| code()).collect(), support).unwrap());
    }
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// Everything `pager_invariance.rs` asks of one dataset.
fn answers(ds: &Dataset, sketch: Option<&DatasetSketch>) -> Vec<Answer> {
    let cfg = SwopeConfig::with_epsilon(0.2).with_seed(52).with_threads(1);
    let scope = Scope::range(10_000, 140_000).with_predicate(1, 2);
    let exec = Executor::new(1);
    let shapes = shapes_against(0);
    let mut out: Vec<Answer> = shapes.iter().map(|shape| plain(ds, shape, &cfg)).collect();
    out.extend(comparators_against(0).iter().map(|shape| plain(ds, shape, &cfg)));
    out.extend(shapes.iter().map(|shape| scoped(ds, shape, &scope, sketch, &cfg)));
    out.extend(shapes.iter().map(|shape| sharded(ds, shape, 4, &cfg, &exec)));
    out
}

#[test]
fn a_v2_snapshot_answers_what_its_v3_rewrite_answers() {
    let ds = dataset(52);
    assert_eq!([1, 2, 3].map(|a| ds.column(a).width()), [Width::U8, Width::U16, Width::U32]);
    let dir = std::env::temp_dir();
    let v3_path = dir.join(format!("swope-v2-answers-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &v3_path).unwrap();
    let v2_path = v3_path.with_extension("v2.swop");
    std::fs::write(&v2_path, snapshot_v2::v2_of(&std::fs::read(&v3_path).unwrap())).unwrap();

    let (v3, v3_sketch) = snapshot::open(&v3_path, Residency::Heap).unwrap();
    let want = answers(&v3, v3_sketch.as_ref());
    let mut opened = vec![("heap", snapshot::open(&v2_path, Residency::Heap).unwrap())];
    // Paged, the v3 rewrite is read from memory, where a budget changes
    // nothing but the accounting (`pager_invariance.rs`'s "read" mode).
    let cache = Arc::new(PageCache::unbounded());
    opened.push(("mmap", snapshot::open(&v2_path, Residency::Paged(&cache)).unwrap()));
    for (label, (v2, sketch)) in &opened {
        assert_eq!(v2, &v3, "{label}: the v2 file holds the v3 rewrite's rows");
        assert_eq!(sketch, &v3_sketch, "{label}");
        assert_eq!(v2.column(3).is_paged(), *label != "heap");
        assert!(answers(v2, sketch.as_ref()) == want, "{label}: a v2 answer moved");
    }
    std::fs::remove_file(&v3_path).ok();
    std::fs::remove_file(&v2_path).ok();
}
