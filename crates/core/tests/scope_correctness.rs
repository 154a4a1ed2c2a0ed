//! Correctness properties of scoped queries (`Scope` + partition
//! sketches), across all six adaptive loops:
//!
//! * a scope covering every row is *bitwise identical* to the unscoped
//!   query with the same sketch — scoping must never perturb existing
//!   answers — and only MI reads the sketch there, for exact marginals;
//! * at full sample (`m = n_s`) a range scope reproduces the exact
//!   brute-force statistic over the scoped rows, whether the range is
//!   page-aligned or straddles 65 536-row page boundaries — whole pages
//!   and fringe pages must agree with a plain scan;
//! * an empty range is well-defined (zero scores, zero rows sampled),
//!   not an error or a panic;
//! * scoped answers are invariant to thread count (1 vs 8) and to the
//!   width columns are packed at (`u8`/`u16`/`u32`);
//! * an MI query on exact marginals answers alike whether its source
//!   counts only the joint (the local source) or every histogram too
//!   (in-process shards, as cluster peers do).

mod common;

use common::{all_shapes, comparators_against, plain, repacked, scoped, sketch_of};
use swope_columnar::{Column, Dataset, Field, Schema, Width, PAGE_ROWS};
use swope_core::{run_sharded, Executor, LocalShardSource, NoopObserver};
use swope_core::{Rule, Scope, Shape, SwopeConfig};
use swope_estimate::entropy::entropy_from_counts;
use swope_estimate::joint::mutual_information_over_rows;
use swope_sampling::rng::Xoshiro256pp;

const TARGET: usize = 5;

/// Mixed supports and skews over `pages` full sketch pages plus a
/// ragged tail, so scopes can be aligned, unaligned, and tail-covering.
fn dataset(seed: u64, n: usize) -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &support) in [2u32, 3, 8, 40, 200, 16].iter().enumerate() {
        let skew = i % 2 == 0;
        let codes: Vec<u32> = (0..n)
            .map(|_| {
                let c = r.next_below(support as u64) as u32;
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

fn config(seed: u64, epsilon: f64, threads: usize) -> SwopeConfig {
    SwopeConfig::with_epsilon(epsilon).with_seed(seed).with_threads(threads)
}

/// The suite's ε for `shape`: 0.15 for entropy, 0.5 for MI.
fn config_for(shape: &Shape, seed: u64, threads: usize) -> SwopeConfig {
    config(seed, if shape.target.is_some() { 0.5 } else { 0.15 }, threads)
}

/// Exact entropy of `attr` over `range` by a plain scan.
fn brute_entropy(ds: &Dataset, attr: usize, range: std::ops::Range<usize>) -> f64 {
    let col = ds.column(attr);
    let mut counts = vec![0u64; col.support() as usize];
    for r in range {
        counts[col.code(r) as usize] += 1;
    }
    entropy_from_counts(&counts)
}

#[test]
fn full_range_scope_is_bitwise_identical_across_all_six_loops() {
    let ds = dataset(31, 2 * PAGE_ROWS + 1234);
    let sk = sketch_of(&ds);
    let n = ds.num_rows();
    for shape in all_shapes() {
        let cfg = config_for(&shape, 31, 1);
        // Both spellings of "everything", the explicit 0..n range and the
        // unrestricted default scope, answer alike with the same sketch.
        let unscoped = scoped(&ds, &shape, &Scope::all(), Some(&sk), &cfg);
        assert_eq!(
            scoped(&ds, &shape, &Scope::range(0, n), Some(&sk), &cfg),
            unscoped,
            "{shape:?}"
        );
        // Entropy answers as without a sketch; MI takes the sketch's
        // exact marginals (the next test).
        if shape.target.is_none() {
            assert_eq!(unscoped, plain(&ds, &shape, &cfg), "{shape:?}");
        }
    }
}

/// Over a full scope the sketch's exact marginals leave only the joint
/// sampled: at a tiny ε the loop still runs to `m = n` and lands on the
/// exact MI, and at the suite's ε it stops no later than without them.
#[test]
fn full_scope_mi_takes_the_sketch_marginals() {
    let ds = dataset(35, 2 * PAGE_ROWS + 1234);
    let sk = sketch_of(&ds);
    let rows: Vec<u32> = (0..ds.num_rows() as u32).collect();
    let shape = Shape::mi(TARGET, Rule::Profile { floor: 0.0 });
    let prof = scoped(&ds, &shape, &Scope::all(), Some(&sk), &config(35, 0.0005, 1));
    assert_eq!(prof.stats.sample_size, ds.num_rows());
    for s in &prof.scores {
        let exact = mutual_information_over_rows(ds.column(TARGET), ds.column(s.attr), &rows);
        assert!((s.estimate - exact).abs() < 1e-9, "attr {}: {} vs {exact}", s.attr, s.estimate);
        assert_eq!((s.lower, s.upper), (s.estimate, s.estimate), "attr {}", s.attr);
    }
    for shape in all_shapes().into_iter().chain(comparators_against(TARGET)) {
        if shape.target.is_some() {
            let cfg = config_for(&shape, 35, 1);
            let exact = scoped(&ds, &shape, &Scope::all(), Some(&sk), &cfg);
            let sampled = plain(&ds, &shape, &cfg);
            assert!(exact.stats.sample_size <= sampled.stats.sample_size, "{shape:?}");
        }
    }
}

/// With the sketch's marginals the local source counts the joint alone
/// and three in-process shards count the marginals as well; the states
/// never read the sampled marginals, so both print the same answer, down
/// to every bit of every bound, iteration and trace entry.
#[test]
fn exact_marginal_mi_answers_alike_with_or_without_counted_marginals() {
    let ds = dataset(49, 2 * PAGE_ROWS + 1234);
    let sk = sketch_of(&ds);
    let exec = Executor::sequential();
    for rule in [Rule::TopK { k: 2 }, Rule::Filter { eta: 0.05 }] {
        let shape = Shape::mi(TARGET, rule);
        let cfg = config_for(&shape, 49, 1);
        let joint_only = scoped(&ds, &shape, &Scope::all(), Some(&sk), &cfg);
        let mut shards = LocalShardSource::new(&ds, 3, &cfg, &exec).unwrap().with_sketch(Some(&sk));
        let counted = run_sharded(&mut shards, &shape, &cfg, &mut NoopObserver, &exec).unwrap();
        assert!(joint_only.stats.iterations > 1, "{rule:?} decided before sampling");
        assert_eq!(format!("{joint_only:?}"), format!("{counted:?}"), "{rule:?}");
    }
}

#[test]
fn range_scopes_at_page_boundaries_match_brute_force_at_full_sample() {
    let ds = dataset(32, 3 * PAGE_ROWS + 777);
    let sk = sketch_of(&ds);
    // A tiny epsilon drives the adaptive loops to m = n_s, where the
    // estimate must be *exact* over the scoped rows. The ranges cover
    // the interesting alignments: page-aligned on both ends, straddling
    // boundaries on either side, within one page, and into the ragged
    // tail page.
    let ranges = [
        PAGE_ROWS..2 * PAGE_ROWS,               // aligned both ends
        PAGE_ROWS - 1..2 * PAGE_ROWS + 1,       // unaligned both ends
        0..PAGE_ROWS + 1,                       // aligned start only
        PAGE_ROWS + 9..PAGE_ROWS + 5000,        // inside one page
        2 * PAGE_ROWS + 5..3 * PAGE_ROWS + 700, // ends in the tail
    ];
    let cfg = config(32, 0.0005, 1);
    for range in ranges {
        let scope = Scope::range(range.start, range.end);
        let n_s = range.len();
        let prof =
            scoped(&ds, &Shape::entropy(Rule::Profile { floor: 0.0 }), &scope, Some(&sk), &cfg);
        assert_eq!(prof.stats.sample_size, n_s, "{range:?} should sample to exhaustion");
        for s in &prof.scores {
            let exact = brute_entropy(&ds, s.attr, range.clone());
            assert!(
                (s.estimate - exact).abs() < 1e-9,
                "attr {} over {range:?}: estimate {} vs exact {exact}",
                s.attr,
                s.estimate
            );
        }
        let shape = Shape::mi(TARGET, Rule::Profile { floor: 0.0 });
        let prof = scoped(&ds, &shape, &scope, Some(&sk), &cfg);
        let rows: Vec<u32> = (range.start as u32..range.end as u32).collect();
        for s in &prof.scores {
            let exact = mutual_information_over_rows(ds.column(TARGET), ds.column(s.attr), &rows);
            assert!(
                (s.estimate - exact).abs() < 1e-9,
                "MI attr {} over {range:?}: estimate {} vs exact {exact}",
                s.attr,
                s.estimate
            );
        }
    }
}

#[test]
fn empty_ranges_are_well_defined_across_all_six_loops() {
    let ds = dataset(33, PAGE_ROWS + 100);
    let sk = sketch_of(&ds);
    let cfg = config(33, 0.1, 1);
    for scope in [Scope::range(500, 500), Scope::range(PAGE_ROWS + 100, usize::MAX)] {
        for shape in all_shapes().into_iter().chain(comparators_against(5)) {
            let r = scoped(&ds, &shape, &scope, Some(&sk), &cfg);
            assert_eq!(r.stats.sample_size, 0, "{shape:?}");
            assert!(
                r.scores.iter().all(|s| s.estimate == 0.0 && s.lower == 0.0 && s.upper == 0.0),
                "{shape:?}"
            );
            let candidates = ds.num_attrs() - usize::from(shape.target.is_some());
            let expected = match shape.rule {
                Rule::TopK { k } | Rule::Rank { k } => k,
                // Nothing reaches a positive threshold.
                Rule::Filter { .. } | Rule::FilterExact { .. } => 0,
                Rule::Profile { .. } => candidates,
            };
            assert_eq!(r.scores.len(), expected, "{shape:?}");
        }
        let r = scoped(&ds, &Shape::entropy(Rule::Filter { eta: 0.0 }), &scope, Some(&sk), &cfg);
        assert_eq!(r.scores.len(), ds.num_attrs(), "eta = 0 accepts everything vacuously");
    }
}

#[test]
fn scoped_answers_are_thread_and_width_invariant() {
    let ds = dataset(34, 2 * PAGE_ROWS + 4321);
    // An unaligned range holding a whole page, and a predicate.
    let scopes = [
        Scope::range(PAGE_ROWS - 250, 2 * PAGE_ROWS + 250),
        Scope::range(0, ds.num_rows()).with_predicate(0, 0),
    ];
    let baseline_sk = sketch_of(&ds);
    for scope in &scopes {
        for shape in all_shapes() {
            let baseline =
                scoped(&ds, &shape, scope, Some(&baseline_sk), &config_for(&shape, 34, 1));
            for width in [Width::U8, Width::U16, Width::U32] {
                let packed = repacked(&ds, width);
                let sk = sketch_of(&packed);
                for threads in [1, 8] {
                    assert_eq!(
                        scoped(&packed, &shape, scope, Some(&sk), &config_for(&shape, 34, threads)),
                        baseline,
                        "{shape:?}: width = {width}, threads = {threads}"
                    );
                }
            }
        }
    }
}
