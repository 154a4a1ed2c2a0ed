//! Pinned answers: six shapes × five count sources, each result folded
//! into a 64-bit digest and compared with a constant.
//!
//! Every invariance suite compares path A with path B *in the same
//! build*, and every path runs through one driver — a wrong `p′` divisor
//! or λ factor there would leave all of them green. These constants were
//! recorded by running this file's dataset, shapes, scopes and digest
//! against the **parent of the commit that introduced the driver**
//! (a8b1de1, through its `entropy_top_k` / `*_scoped` / `*_sharded`
//! entry points); the calls were then ported to `run` / `run_sharded`.
//! A digest covers every score (`attr`, the bits of `estimate`, `lower`,
//! `upper`, `retired_iteration`), `sample_size`, `iterations`,
//! `rows_scanned`, `converged_early` and the whole `IterationTrace`.
//!
//! A mismatch means an answer moved. Re-record (the failure prints the
//! table) only for a change that is *meant* to move answers.
//!
//! Every cell of those two tables runs without a sketch, or over a scope
//! short of the whole dataset, so none of them reads exact marginals; the
//! third table, [`MARGINALS`], pins the MI queries that do.

mod common;

use std::sync::Arc;

use common::{scoped, sharded, sketch_of};
use swope_columnar::{
    snapshot, Column, Dataset, DatasetSketch, Field, PageCache, Residency, Schema, PAGE_ROWS,
};
use swope_core::{
    run_sharded, Answer, Executor, LocalShardSource, NoopObserver, Rule, Scope, Shape, SwopeConfig,
};
use swope_sampling::rng::Xoshiro256pp;

/// Three full sketch pages and a ragged tail.
const ROWS: usize = 3 * PAGE_ROWS + 1_234;
const SEED: u64 = 0x9127;

/// Page-cache budget of the paged source: a quarter of the columns'
/// bytes, so the queries evict while they run.
const BUDGET: u64 = 300_000;

const SOURCES: [&str; 5] = ["heap", "covering range", "predicate", "3 shards", "paged range"];

/// `PINNED[shape][source]`, recorded on the parent commit. The three
/// entropy cells of "paged range" were re-recorded when ranges with
/// fewer than two covered rows a fringe row stopped running the hybrid
/// sampler (that range has one covered page and 92 072 fringe rows): they
/// are what the parent of *that* commit answered for the same range with
/// `sketch = None`. The "heap" and "3 shards" columns were re-recorded
/// when full-scope queries began sampling page prefixes (`docs/THEORY.md`
/// § "Page-prefix sampling"), in a commit of their own; the three scoped
/// columns did not move. The three scoped columns — "covering range",
/// "predicate" and "paged range" — were re-recorded, in a commit of their
/// own, when ranges and predicates began drawing page prefixes over each
/// page's member slots instead of a prefix shuffle of their rows (and a
/// hybrid range its fringe the same way): the sample is another uniform
/// one, so the bytes moved; the "heap" and "3 shards" columns did not.
/// The three entropy cells of "covering range" (then "hybrid range")
/// were re-recorded, in a commit of their own, when the hybrid path was
/// deleted: its two whole pages are now read, not synthesised from the
/// sketch, so it answers as the same range with `sketch = None` does.
/// Its MI cells, which always read their rows, did not move.
#[rustfmt::skip]
const PINNED: [[u64; 5]; 6] = [
    [0x4d56e337af4e2c0e, 0x176f344bcf42e5eb, 0x8af1fccc14e92e8a, 0x4d56e337af4e2c0e, 0x92a348b58846416f],
    [0xb0e2a50df8be0362, 0x2eacf2ca777c477d, 0x6efb3f218d428c63, 0xb0e2a50df8be0362, 0x5e6397775c9bbafc],
    [0x90dee0b9197682ff, 0x56b48492a81c18bf, 0x996ef1988c6a1099, 0x90dee0b9197682ff, 0xc67912ff2b8287fe],
    [0x430214f046e5e7cd, 0x5c1ce13cedfca65a, 0xc209d6d552b729b2, 0x430214f046e5e7cd, 0x3bc10e1cf4bbc9e4],
    [0xcdffd4049dcfec2f, 0xb6db2e362ff76594, 0x1d9fbf00f2baf8cb, 0xcdffd4049dcfec2f, 0x7fdd08b8f11ec8bd],
    [0xc15df28317a4fc35, 0x5ab19abaf8600f92, 0x4e13f215860bfb6d, 0xc15df28317a4fc35, 0x6f5a0cfa4d80009c],
];

/// `COMPARATORS[query][source]` for [`comparators`] over the heap dataset
/// and over the whole paged copy: what `swope-baselines`' own doubling
/// loops answered at c73d446, the parent of the commit that made
/// EntropyRank and EntropyFilter rules of the driver (recorded through
/// `entropy_rank_top_k`, `entropy_filter_exact_sampling`, `mi_rank_top_k`
/// and `mi_filter_exact_sampling`, which passed unedited on the driver
/// before the calls were ported to `run`). Those loops stamped no
/// retirement iteration and kept no trace, so these digests leave both
/// out ([`outcome_digest`]). Both columns are full scopes, re-recorded
/// with [`PINNED`]'s when full-scope queries began sampling page
/// prefixes.
#[rustfmt::skip]
const COMPARATORS: [[u64; 2]; 4] = [
    [0x2c38a78e840a9b8c, 0x2c38a78e840a9b8c],
    [0x88b3b4019d67b7a9, 0x88b3b4019d67b7a9],
    [0x7272f9a2b027d616, 0x7272f9a2b027d616],
    [0x3a00172a2b1b05de, 0x3a00172a2b1b05de],
];

/// Parameters under which most cells stop early on [`dataset`] (a stop
/// rule with the wrong width would stop elsewhere) and a few run to the
/// whole scope (the `m = n` branches).
fn shapes() -> [Shape; 6] {
    [
        Shape::entropy(Rule::TopK { k: 3 }),
        Shape::entropy(Rule::Filter { eta: 3.0 }),
        Shape::entropy(Rule::Profile { floor: 0.05 }),
        Shape::mi(0, Rule::TopK { k: 2 }),
        Shape::mi(0, Rule::Filter { eta: 1.0 }),
        Shape::mi(0, Rule::Profile { floor: 0.8 }),
    ]
}

/// A uniform 8-value target, three copies of it through 5 %, 12 % and
/// 50 % noise, a skewed binary column (the predicate) and two
/// independent wide columns.
fn dataset() -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(SEED);
    let target: Vec<u32> = (0..ROWS).map(|_| r.next_below(8) as u32).collect();
    let mut columns = vec![("t".to_owned(), 8u32, target.clone())];
    for (i, noise_pct) in [5u64, 12, 50].into_iter().enumerate() {
        let codes = target
            .iter()
            .map(|&t| if r.next_below(100) < noise_pct { r.next_below(8) as u32 } else { t })
            .collect();
        columns.push((format!("c{i}"), 8, codes));
    }
    columns.push(("flag".into(), 2, (0..ROWS).map(|_| (r.next_below(8) == 0) as u32).collect()));
    for support in [40u32, 200] {
        let codes = (0..ROWS).map(|_| r.next_below(support as u64) as u32).collect();
        columns.push((format!("w{support}"), support, codes));
    }
    let fields = columns.iter().map(|(name, u, _)| Field::new(name.clone(), *u)).collect();
    let columns = columns.into_iter().map(|(_, u, codes)| Column::new(codes, u).unwrap()).collect();
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(a: &Answer) -> u64 {
    fold(a, true)
}

/// [`digest`] without `retired_iteration` and the trace.
fn outcome_digest(a: &Answer) -> u64 {
    fold(a, false)
}

fn fold(a: &Answer, lifecycle: bool) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(a.scores.len() as u64);
    for s in &a.scores {
        h.word(s.attr as u64);
        h.word(s.estimate.to_bits());
        h.word(s.lower.to_bits());
        h.word(s.upper.to_bits());
        if lifecycle {
            h.word(s.retired_iteration as u64);
        }
    }
    h.word(a.stats.sample_size as u64);
    h.word(a.stats.iterations as u64);
    h.word(a.stats.rows_scanned);
    h.word(a.stats.converged_early as u64);
    if lifecycle {
        for t in &a.stats.trace {
            h.word(t.iteration as u64);
            h.word(t.sample_size as u64);
            h.word(t.candidates as u64);
            h.word(t.lambda.to_bits());
            h.word(t.retired as u64);
        }
    }
    h.0
}

/// `ds` written to a snapshot and opened paged under [`BUDGET`].
fn paged_copy(
    ds: &Dataset,
    tag: &str,
) -> (std::path::PathBuf, Arc<PageCache>, Dataset, Option<DatasetSketch>) {
    let path = std::env::temp_dir().join(format!("swope-pinned-{tag}-{}.swop", std::process::id()));
    snapshot::write_file(ds, &path).unwrap();
    let cache = Arc::new(PageCache::new(Some(BUDGET)));
    let (paged, sketch) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    assert!(paged.column(0).is_paged());
    (path, cache, paged, sketch)
}

#[test]
fn answers_match_the_digests_recorded_on_the_parent() {
    let ds = dataset();
    let sketch = sketch_of(&ds);
    let (path, cache, paged, paged_sketch) = paged_copy(&ds, "shapes");

    // Whole pages plus a fringe on both sides; a row list; a range of
    // the paged copy that ends inside its last full page.
    let covering = Scope::range(PAGE_ROWS - 500, 2 * PAGE_ROWS + 700);
    let predicate = Scope::all().with_predicate(4, 1);
    let paged_range = Scope::range(30_000, 3 * PAGE_ROWS - 9_000);
    let exec = Executor::sequential();
    let mut got = [[0u64; 5]; 6];
    for (row, shape) in got.iter_mut().zip(shapes()) {
        // `p_f` stays at its default, 1/n of each source's population.
        let epsilon = if shape.target.is_some() { 0.5 } else { 0.15 };
        let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(SEED);
        *row = [
            scoped(&ds, &shape, &Scope::all(), None, &cfg),
            scoped(&ds, &shape, &covering, Some(&sketch), &cfg),
            scoped(&ds, &shape, &predicate, Some(&sketch), &cfg),
            sharded(&ds, &shape, 3, &cfg, &exec),
            scoped(&paged, &shape, &paged_range, paged_sketch.as_ref(), &cfg),
        ]
        .map(|answer| digest(&answer));
    }
    assert!(cache.snapshot().evictions > 0, "the paged source never evicted");
    let _ = std::fs::remove_file(path);
    assert_eq!(
        got, PINNED,
        "an answer moved (rows: shapes in `shapes()` order; columns: {SOURCES:?})\n{got:#018x?}"
    );
}

/// EntropyRank, EntropyFilter and their MI lifts. The top-2 and the MI
/// queries separate early; `η = 3` sits on four attributes' entropy, so
/// the filter reads every row and decides at `M = N`.
fn comparators() -> [Shape; 4] {
    [
        Shape::entropy(Rule::Rank { k: 2 }),
        Shape::entropy(Rule::FilterExact { eta: 3.0 }),
        Shape::mi(0, Rule::Rank { k: 2 }),
        Shape::mi(0, Rule::FilterExact { eta: 1.0 }),
    ]
}

#[test]
fn comparators_match_the_digests_recorded_on_the_parent() {
    let ds = dataset();
    let (path, cache, paged, _) = paged_copy(&ds, "comparators");
    let cfg = SwopeConfig::default().with_seed(SEED);
    let got = comparators().map(|shape| {
        [&ds, &paged]
            .map(|source| outcome_digest(&scoped(source, &shape, &Scope::all(), None, &cfg)))
    });
    assert!(cache.snapshot().evictions > 0, "the paged source never evicted");
    let _ = std::fs::remove_file(path);
    assert_eq!(
        got, COMPARATORS,
        "a comparator's answer moved (rows: `comparators()` order; columns: heap, paged)\n{got:#018x?}"
    );
}

/// `MARGINALS[query][source]` for the MI shapes and the MI comparators
/// with the dataset's sketch on offer over the whole dataset, where they
/// read `H_D(α_t)` and `H_D(α)` from it and sample only the joint: heap,
/// paged and three in-process shards (`LocalShardSource::with_sketch`).
/// The three sources take the marginals from the same integer counts
/// through the same function, so each row's cells are equal. Recorded
/// when the exact-marginal interval landed, in a commit of its own, and
/// re-recorded with [`PINNED`]'s when full-scope queries began sampling
/// page prefixes.
#[rustfmt::skip]
const MARGINALS: [[u64; 3]; 5] = [
    [0x1202f4d15e2d24ba, 0x1202f4d15e2d24ba, 0x1202f4d15e2d24ba],
    [0x5a5305242052a272, 0x5a5305242052a272, 0x5a5305242052a272],
    [0x00fde78e34dbfd16, 0x00fde78e34dbfd16, 0x00fde78e34dbfd16],
    [0x1202f4d15e2d24ba, 0x1202f4d15e2d24ba, 0x1202f4d15e2d24ba],
    [0x2e2d62f81e609abf, 0x2e2d62f81e609abf, 0x2e2d62f81e609abf],
];

#[test]
fn sketch_marginal_answers_match_their_digests_on_every_source() {
    let ds = dataset();
    let sketch = sketch_of(&ds);
    let (path, cache, paged, paged_sketch) = paged_copy(&ds, "marginals");
    assert!(paged_sketch.is_some(), "the snapshot carries its sketch");
    let exec = Executor::sequential();
    let queries = [&shapes()[3..], &comparators()[2..]].concat();
    let got: Vec<[u64; 3]> = queries
        .iter()
        .map(|shape| {
            let epsilon = if matches!(shape.rule, Rule::Rank { .. } | Rule::FilterExact { .. }) {
                SwopeConfig::default().epsilon
            } else {
                0.5
            };
            let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(SEED);
            let mut shards =
                LocalShardSource::new(&ds, 3, &cfg, &exec).unwrap().with_sketch(Some(&sketch));
            [
                scoped(&ds, shape, &Scope::all(), Some(&sketch), &cfg),
                scoped(&paged, shape, &Scope::all(), paged_sketch.as_ref(), &cfg),
                run_sharded(&mut shards, shape, &cfg, &mut NoopObserver, &exec).unwrap(),
            ]
            .map(|answer| digest(&answer))
        })
        .collect();
    assert!(cache.snapshot().evictions > 0, "the paged source never evicted");
    let _ = std::fs::remove_file(path);
    for (row, shape) in got.iter().zip(&queries) {
        assert!(row.iter().all(|&cell| cell == row[0]), "{shape:?}: sources disagree {row:#018x?}");
    }
    assert_eq!(
        got, MARGINALS,
        "an answer moved (rows: MI shapes, then MI comparators; columns: heap, paged, 3 shards)\n{got:#018x?}"
    );
}
