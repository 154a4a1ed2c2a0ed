//! Shared by the invariance suites (here, in `tests/tests/` and in
//! `crates/cluster/tests/`, which include this file by path): the one
//! list of query shapes every suite iterates, the dataset those
//! parameters were chosen for, and the two ways to run a shape.
#![allow(dead_code, unused_macros)]

use swope_columnar::{Column, Dataset, DatasetSketch, Field, Schema, Width};
use swope_core::{
    run, run_sharded, Answer, Executor, LocalShardSource, NoopObserver, Rule, Scope, Shape,
    SwopeConfig,
};
use swope_sampling::rng::Xoshiro256pp;

/// One `#[test]` per line, `name(args);` calling `$check(args)`: how a
/// suite gives each entry of [`all_shapes`] a test of its own name
/// without a hand-written body per shape.
macro_rules! shape_tests {
    ($check:ident { $($name:ident($($arg:expr),*);)* }) => {
        $(
            #[test]
            fn $name() {
                $check($($arg),*)
            }
        )*
    };
}

/// Every query shape, in the order the suites number their seeds. The
/// parameters fit [`staggered_dataset`] (six attributes, target the
/// widest) and any dataset of at least six.
pub fn all_shapes() -> [Shape; 6] {
    shapes_against(5)
}

/// [`all_shapes`] with the MI shapes aimed at `target`, for datasets of
/// four or five attributes.
pub fn shapes_against(target: usize) -> [Shape; 6] {
    [
        Shape::entropy(Rule::TopK { k: 3 }),
        Shape::entropy(Rule::Filter { eta: 1.0 }),
        Shape::mi(target, Rule::TopK { k: 3 }),
        Shape::mi(target, Rule::Filter { eta: 0.1 }),
        Shape::entropy(Rule::Profile { floor: 0.05 }),
        Shape::mi(target, Rule::Profile { floor: 0.05 }),
    ]
}

/// The paper's comparators — EntropyRank, EntropyFilter and their MI
/// lifts against `target` — which run on the same loop under an
/// exact-separation rule. The suites that list them index them after
/// [`shapes_against`]'s six.
pub fn comparators_against(target: usize) -> [Shape; 4] {
    [
        Shape::entropy(Rule::Rank { k: 3 }),
        Shape::entropy(Rule::FilterExact { eta: 1.0 }),
        Shape::mi(target, Rule::Rank { k: 3 }),
        Shape::mi(target, Rule::FilterExact { eta: 0.1 }),
    ]
}

/// Columns with wildly different supports and skews: a constant column,
/// heavily skewed small supports, and near-uniform wide ones. Their
/// confidence intervals close at very different sample sizes, so the
/// live-candidate set shrinks iteration by iteration. Supports stay
/// ≤ 200 so every column can be repacked at all three widths.
pub fn staggered_dataset(seed: u64, n: usize) -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &support) in [1u32, 2, 3, 8, 40, 200].iter().enumerate() {
        let skew = i % 2 == 0;
        let codes: Vec<u32> = (0..n)
            .map(|_| {
                let c = r.next_below(support as u64) as u32;
                // Every odd column stays as drawn (near-uniform); even
                // columns collapse most draws to 0 for a skewed marginal.
                if skew && r.next_below(4) != 0 {
                    0
                } else {
                    c
                }
            })
            .collect();
        fields.push(Field::new(format!("a{i}"), support));
        columns.push(Column::new(codes, support).unwrap());
    }
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// The suites' query config: ε = 0.2 at `seed` on `threads` workers.
pub fn config(seed: u64, threads: usize) -> SwopeConfig {
    SwopeConfig::with_epsilon(0.2).with_seed(seed).with_threads(threads)
}

/// The same logical dataset with every column forced to `width`.
pub fn repacked(ds: &Dataset, width: Width) -> Dataset {
    let columns = (0..ds.num_attrs())
        .map(|a| ds.column(a).with_width(width).expect("supports fit every width"))
        .collect();
    Dataset::new(ds.schema().clone(), columns).unwrap()
}

/// The partition sketch a snapshot of `ds` would carry.
pub fn sketch_of(ds: &Dataset) -> DatasetSketch {
    swope_columnar::snapshot::build_sketch(ds)
}

/// `shape` over the whole of `ds`: unobserved, on `cfg.threads` workers.
pub fn plain(ds: &Dataset, shape: &Shape, cfg: &SwopeConfig) -> Answer {
    scoped(ds, shape, &Scope::all(), None, cfg)
}

/// `shape` over `scope` of `ds`: unobserved, on `cfg.threads` workers.
pub fn scoped(
    ds: &Dataset,
    shape: &Shape,
    scope: &Scope,
    sketch: Option<&DatasetSketch>,
    cfg: &SwopeConfig,
) -> Answer {
    run(ds, shape, scope, sketch, cfg, &mut NoopObserver, &Executor::new(cfg.threads)).unwrap()
}

/// `shape` over `shards` in-process row shards of `ds`, counted on `exec`.
pub fn sharded(
    ds: &Dataset,
    shape: &Shape,
    shards: usize,
    cfg: &SwopeConfig,
    exec: &Executor,
) -> Answer {
    let mut source = LocalShardSource::new(ds, shards, cfg, exec).unwrap();
    run_sharded(&mut source, shape, cfg, &mut NoopObserver, exec).unwrap()
}
