//! Statistical validation of the `1 − p_f` guarantee.
//!
//! Definitions 5–6 are probabilistic: each query may fail with
//! probability at most `p_f`. The per-run tests use conservative seeds;
//! this file attacks the contract statistically — many independent runs
//! at a *large* `p_f`, counting violations, which must stay within a
//! generous binomial envelope of `p_f`. (The union bounds inside the
//! algorithms are loose, so observed failure rates sit far below `p_f`;
//! the envelope would only be crossed by a genuine math bug.)
//!
//! The same envelope is applied to row ranges, on both sides of the rule
//! that picks their sampler: the sketch-hybrid path, whose sample is not
//! a row sample at all — covered pages are synthesized per attribute from
//! histograms by hypergeometric splits, so its claim to Lemma 3
//! ("marginally a uniform WOR sample of the scoped code multiset") gets
//! an experiment of its own — and ranges with too little in whole pages,
//! whose rows are shuffled and read. And to `where` scopes, whose sample is
//! a shuffle of the matching rows, materialised by a scan.
//!
//! And to mutual information, both ways its marginals can be had: sampled
//! (the paper's three Lemma-3 intervals, `6λ + b′`) and read exactly from
//! the partition sketch, where only the joint is sampled (`2λ + b(α_t,
//! α)` at a third of the union-bound events). On these datasets the
//! second stops at a quarter to a half of `N`, the first near `N`.

use std::sync::Arc;
use swope_baselines::{exact_entropy_scores, exact_mi_scores};

use swope_columnar::{
    snapshot, Column, Dataset, DatasetSketch, Field, PageCache, Residency, Schema, PAGE_ROWS,
};
use swope_core::{
    entropy_filter, entropy_top_k, run, sketch_stats, Executor, FilterResult, NoopObserver, Rule,
    Scope, Shape, SwopeConfig, TopKResult,
};
use swope_sampling::rng::Xoshiro256pp;

/// Supports whose uniform columns have deliberately close entropies.
const SUPPORTS: [u32; 6] = [16, 15, 14, 13, 12, 2];

/// A dataset of one column per entry of [`SUPPORTS`].
fn dataset_of(columns: impl Iterator<Item = Vec<u32>>) -> Dataset {
    let fields =
        SUPPORTS.iter().enumerate().map(|(i, &u)| Field::new(format!("c{i}"), u)).collect();
    let columns = columns.zip(SUPPORTS).map(|(codes, u)| Column::new(codes, u).unwrap()).collect();
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// `n` rows of independent uniform columns.
fn uniform_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    dataset_of(SUPPORTS.iter().map(|&u| (0..n).map(|_| rng.next_below(u as u64) as u32).collect()))
}

fn config(epsilon: f64, p_f: f64, seed: u64) -> SwopeConfig {
    SwopeConfig { epsilon, failure_probability: Some(p_f), ..SwopeConfig::default() }
        .with_seed(seed)
}

/// Definition 5 against the exact scores of the queried population.
fn definition5_holds(res: &TopKResult, exact: &[f64], epsilon: f64) -> bool {
    let mut order: Vec<usize> = (0..exact.len()).collect();
    order.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).unwrap());
    res.top.iter().enumerate().all(|(i, s)| {
        s.estimate >= (1.0 - epsilon) * exact[s.attr] - 1e-9
            && exact[s.attr] >= (1.0 - epsilon) * exact[order[i]] - 1e-9
    })
}

/// Definition 6 against the exact scores of the queried population.
fn definition6_holds(res: &FilterResult, exact: &[f64], eta: f64, epsilon: f64) -> bool {
    exact.iter().enumerate().all(|(attr, &score)| {
        if score >= (1.0 + epsilon) * eta {
            res.contains(attr)
        } else if score < (1.0 - epsilon) * eta {
            !res.contains(attr)
        } else {
            true
        }
    })
}

/// A small dataset with deliberately close entropy scores, regenerated
/// per seed so runs are independent.
fn adversarial_dataset(seed: u64) -> Dataset {
    uniform_dataset(4_000, seed)
}

#[test]
fn topk_definition5_failure_rate_within_budget() {
    const RUNS: u64 = 120;
    const P_F: f64 = 0.2;
    const EPSILON: f64 = 0.15;
    let mut violations = 0u32;
    for seed in 0..RUNS {
        let ds = adversarial_dataset(seed);
        let exact = exact_entropy_scores(&ds);
        let cfg = config(EPSILON, P_F, seed.wrapping_mul(0x9E37_79B9));
        let res = entropy_top_k(&ds, 3, &cfg).unwrap();
        if !definition5_holds(&res, &exact, EPSILON) {
            violations += 1;
        }
    }
    // E[violations] <= 24; with 5-sigma slack (σ ≈ 4.4) allow 46.
    assert!(violations <= 46, "{violations}/{RUNS} Definition 5 violations at p_f = {P_F}");
}

#[test]
fn filter_definition6_failure_rate_within_budget() {
    const RUNS: u64 = 120;
    const P_F: f64 = 0.2;
    const EPSILON: f64 = 0.1;
    let eta = 3.5; // sits among the close scores of the adversarial data
    let mut violations = 0u32;
    for seed in 0..RUNS {
        let ds = adversarial_dataset(1_000 + seed);
        let exact = exact_entropy_scores(&ds);
        let cfg = config(EPSILON, P_F, seed.wrapping_mul(0x2545_F491));
        let res = entropy_filter(&ds, eta, &cfg).unwrap();
        if !definition6_holds(&res, &exact, eta, EPSILON) {
            violations += 1;
        }
    }
    assert!(violations <= 46, "{violations}/{RUNS} Definition 6 violations at p_f = {P_F}");
}

/// The comparators promise more than Definitions 5–6: EntropyRank the
/// exact top-3 set, EntropyFilter exactly `{a : H(a) ≥ η}`, each with
/// probability at least `1 − p_f`. On these close scores most runs end at
/// `M = N`, where the intervals collapse onto the exact scores.
#[test]
fn comparator_exact_answer_failure_rates_within_budget() {
    const RUNS: u64 = 120;
    const P_F: f64 = 0.2;
    let eta = 3.5;
    let (mut rank_violations, mut filter_violations) = (0u32, 0u32);
    for seed in 0..RUNS {
        let ds = adversarial_dataset(2_000 + seed);
        let exact = exact_entropy_scores(&ds);
        // ε plays no part in either rule.
        let answered = |rule: Rule, seed: u64| {
            let (cfg, exec) = (config(0.1, P_F, seed), Executor::sequential());
            let shape = Shape::entropy(rule);
            let answer =
                run(&ds, &shape, &Scope::all(), None, &cfg, &mut NoopObserver, &exec).unwrap();
            let mut attrs: Vec<usize> = answer.scores.iter().map(|s| s.attr).collect();
            attrs.sort_unstable();
            attrs
        };
        let mut order: Vec<usize> = (0..exact.len()).collect();
        order.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).unwrap());
        let mut top_3 = order[..3].to_vec();
        top_3.sort_unstable();
        if answered(Rule::Rank { k: 3 }, seed.wrapping_mul(0x9E37_79B9)) != top_3 {
            rank_violations += 1;
        }
        let above: Vec<usize> = (0..exact.len()).filter(|&a| exact[a] >= eta).collect();
        if answered(Rule::FilterExact { eta }, seed.wrapping_mul(0x2545_F491)) != above {
            filter_violations += 1;
        }
    }
    assert!(rank_violations <= 46, "{rank_violations}/{RUNS} inexact EntropyRank answers");
    assert!(filter_violations <= 46, "{filter_violations}/{RUNS} inexact EntropyFilter answers");
}

/// Definition 5 and 6 violations over `runs` seeds of a top-k and a
/// filter query on each of `scopes` of one dataset — three whole pages
/// and a ragged tail; the guarantee is over the sampler's randomness, so
/// the data is fixed and the seeds and scopes vary — with the dataset's
/// sketch on offer, plus how many of those scopes' queries ran the hybrid
/// sampler and how many were sampled physically.
fn scoped_failure_rates(scopes: &[Scope], runs: u64) -> (u32, u32, sketch_stats::SketchUse) {
    const P_F: f64 = 0.2;
    let n = 3 * PAGE_ROWS + 5_000;
    let ds = uniform_dataset(n, 0xC0FE);
    let sketch = DatasetSketch::build(n, (0..ds.num_attrs()).map(|a| ds.column(a).packed()));
    let (mut top_k_violations, mut filter_violations) = (0u32, 0u32);
    let before = sketch_stats::snapshot();
    for (r, scope) in scopes.iter().enumerate() {
        let matching = |&row: &usize| {
            scope.predicate.map_or(true, |(attr, code)| ds.column(attr).code(row) == code)
        };
        let rows: Vec<usize> =
            (scope.row_start.unwrap_or(0)..scope.row_end.unwrap_or(n)).filter(matching).collect();
        let exact = exact_entropy_scores(&dataset_of(
            (0..ds.num_attrs()).map(|a| rows.iter().map(|&row| ds.column(a).code(row)).collect()),
        ));
        let scoped = |shape: Shape, cfg: &SwopeConfig| {
            let exec = Executor::sequential();
            run(&ds, &shape, scope, Some(&sketch), cfg, &mut NoopObserver, &exec).unwrap()
        };
        for i in 0..runs {
            let seed = (r as u64 * 1_000 + i).wrapping_mul(0x9E37_79B9);
            let top = scoped(Shape::entropy(Rule::TopK { k: 3 }), &config(0.15, P_F, seed));
            if !definition5_holds(&top.into(), &exact, 0.15) {
                top_k_violations += 1;
            }
            let cfg = config(0.1, P_F, seed ^ 0x2545_F491);
            let filtered = scoped(Shape::entropy(Rule::Filter { eta: 3.5 }), &cfg);
            if !definition6_holds(&filtered.into(), &exact, 3.5, 0.1) {
                filter_violations += 1;
            }
        }
    }
    // The counters are process-wide and only grow, so the other tests of
    // this file can add to a difference, never subtract from it.
    let after = sketch_stats::snapshot();
    let took = sketch_stats::SketchUse {
        covered_draws: after.covered_draws - before.covered_draws,
        hybrid_queries: after.hybrid_queries - before.hybrid_queries,
        physical_ranges: after.physical_ranges - before.physical_ranges,
        mi_sketch_marginals: after.mi_sketch_marginals - before.mi_sketch_marginals,
        mi_sampled_marginals: after.mi_sampled_marginals - before.mi_sampled_marginals,
    };
    (top_k_violations, filter_violations, took)
}

/// [`scoped_failure_rates`] over 30 seeds on each of four row `ranges`.
fn range_failure_rates(ranges: [(usize, usize); 4]) -> (u32, u32, sketch_stats::SketchUse) {
    scoped_failure_rates(&ranges.map(|(start, end)| Scope::range(start, end)), 30)
}

#[test]
fn sketch_hybrid_failure_rates_within_budget() {
    // Each range holds at least twice as many rows in whole pages as in
    // its fringe, so it runs the hybrid sampler: from a fringe of five
    // rows to one half the covered region's size, on one or both sides.
    let n = 3 * PAGE_ROWS + 5_000;
    let (top_k_violations, filter_violations, took) = range_failure_rates([
        (PAGE_ROWS - 777, 2 * PAGE_ROWS + 1_234),
        (PAGE_ROWS - 60_000, n),
        (PAGE_ROWS - 5, n),
        (PAGE_ROWS, 3 * PAGE_ROWS + 4_000),
    ]);
    assert!(took.hybrid_queries >= 240 && took.covered_draws > 0, "{took:?}");
    // 120 runs each: the envelope of the plain loops above.
    assert!(top_k_violations <= 46, "{top_k_violations}/120 Definition 5 violations, hybrid");
    assert!(filter_violations <= 46, "{filter_violations}/120 Definition 6 violations, hybrid");
}

#[test]
fn physical_range_failure_rates_within_budget() {
    // Ranges the sketch is offered for and stands aside on: a whole page
    // between two nearly whole ones (hybrid until the chooser), two pages
    // less one row per side, part of one page, and a page with 20 000
    // rows either side. Every sampled row is read.
    let (top_k_violations, filter_violations, took) = range_failure_rates([
        (300, 3 * PAGE_ROWS - 1),
        (1, 2 * PAGE_ROWS - 1),
        (70_000, 110_000),
        (PAGE_ROWS - 20_000, 2 * PAGE_ROWS + 20_000),
    ]);
    assert!(took.physical_ranges >= 240, "{took:?}");
    assert!(top_k_violations <= 46, "{top_k_violations}/120 Definition 5 violations, physical");
    assert!(filter_violations <= 46, "{filter_violations}/120 Definition 6 violations, physical");
}

#[test]
fn predicate_failure_rates_within_budget() {
    // The rows whose two-valued column c5 holds 1, everywhere and inside
    // a range across two pages: 60 seeds each.
    let rows_with_c5 = Scope::all().with_predicate(5, 1);
    let in_range = Scope::range(PAGE_ROWS - 20_000, 2 * PAGE_ROWS + 20_000).with_predicate(5, 1);
    let (top_k_violations, filter_violations, _) =
        scoped_failure_rates(&[rows_with_c5, in_range], 60);
    assert!(top_k_violations <= 46, "{top_k_violations}/120 Definition 5 violations, predicate");
    assert!(filter_violations <= 46, "{filter_violations}/120 Definition 6 violations, predicate");
}

/// Definition 5 and 6 violations over `runs` seeds of an entropy top-3
/// and a filter query on the whole of `ds`, which a full-scope query
/// samples by page prefixes (`docs/THEORY.md` § "Page-prefix sampling").
/// Each query runs on the heap dataset, whose columns keep a page layout,
/// and on a paged copy, which keeps row order; the two must answer alike.
///
/// At `p_f = 0.05` a sampler that reads whole pages shows: the one
/// deleted as a negative result covered 0.575 of the truth on page-sized
/// blocks, a failure rate near 0.4, far outside the envelope of 40 runs.
fn page_prefix_failure_rates(ds: &Dataset, tag: &str, runs: u64) -> (u32, u32) {
    const P_F: f64 = 0.05;
    let exact = exact_entropy_scores(ds);
    let path =
        std::env::temp_dir().join(format!("swope-guarantee-{tag}-{}.swop", std::process::id()));
    snapshot::write_file(ds, &path).unwrap();
    let cache = Arc::new(PageCache::new(None));
    let (paged, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    std::fs::remove_file(&path).ok();
    let answer = |ds: &Dataset, shape: &Shape, cfg: &SwopeConfig| {
        run(ds, shape, &Scope::all(), None, cfg, &mut NoopObserver, &Executor::sequential())
            .unwrap()
    };
    let (mut top_k_violations, mut filter_violations) = (0u32, 0u32);
    for i in 0..runs {
        let seed = i.wrapping_mul(0x9E37_79B9);
        let (top_k, cfg) = (Shape::entropy(Rule::TopK { k: 3 }), config(0.15, P_F, seed));
        let top = answer(ds, &top_k, &cfg);
        assert_eq!(top, answer(&paged, &top_k, &cfg), "{tag}: heap and paged top-k, seed {seed}");
        if !definition5_holds(&top.into(), &exact, 0.15) {
            top_k_violations += 1;
        }
        let (filter, cfg) = (Shape::entropy(Rule::Filter { eta: 3.5 }), config(0.1, P_F, !seed));
        let filtered = answer(ds, &filter, &cfg);
        assert_eq!(filtered, answer(&paged, &filter, &cfg), "{tag}: heap and paged filter");
        if !definition6_holds(&filtered.into(), &exact, 3.5, 0.1) {
            filter_violations += 1;
        }
    }
    (top_k_violations, filter_violations)
}

/// Rows of a page-prefix cell: four whole pages and a ragged fifth.
const PAGED_ROWS: usize = 4 * PAGE_ROWS + 3_000;

#[test]
fn page_prefix_failure_rates_within_budget_on_page_sized_latent_blocks() {
    // Every page is a block of its own latent class, which shifts the
    // half of each column's support its codes come from: a page alone
    // holds half the codes, and the whole-page sampler that was deleted
    // as a negative result covered 0.575 of the truth on such data.
    let mut rng = Xoshiro256pp::seed_from_u64(0xB10C);
    let classes: Vec<u32> =
        (0..PAGED_ROWS.div_ceil(PAGE_ROWS)).map(|_| rng.next_below(4) as u32).collect();
    let ds = dataset_of(SUPPORTS.iter().map(|&u| {
        (0..PAGED_ROWS)
            .map(|r| {
                (classes[r / PAGE_ROWS] * u / 4 + rng.next_below(u64::from(u / 2).max(1)) as u32)
                    % u
            })
            .collect()
    }));
    let (top_k_violations, filter_violations) = page_prefix_failure_rates(&ds, "blocks", 40);
    // 40 runs each at p_f = 0.05: E ≤ 2, σ ≈ 1.4; the file's five-sigma
    // envelope.
    assert!(top_k_violations <= 9, "{top_k_violations}/40 Definition 5 violations, blocks");
    assert!(filter_violations <= 9, "{filter_violations}/40 Definition 6 violations, blocks");
}

#[test]
fn page_prefix_failure_rates_within_budget_on_a_sorted_table() {
    // Uniform columns, rows sorted by the first: each page holds a run
    // of one or two of its values.
    let ds = uniform_dataset(PAGED_ROWS, 0x5027);
    let mut order: Vec<usize> = (0..PAGED_ROWS).collect();
    order.sort_by_key(|&r| ds.column(0).code(r));
    let ds = ds.take_rows(&order);
    let (top_k_violations, filter_violations) = page_prefix_failure_rates(&ds, "sorted", 40);
    assert!(top_k_violations <= 9, "{top_k_violations}/40 Definition 5 violations, sorted");
    assert!(filter_violations <= 9, "{filter_violations}/40 Definition 6 violations, sorted");
}

/// A uniform 16-value target and five copies of it through 10–18 %
/// noise: mutual informations of ≈ 2.7–3.2 bits, close together.
fn mi_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let target: Vec<u32> = (0..n).map(|_| rng.next_below(16) as u32).collect();
    let mut columns = vec![target.clone()];
    for noise_pct in [10, 12, 14, 16, 18] {
        let copy = target.iter().map(|&t| {
            if rng.next_below(100) < noise_pct {
                rng.next_below(16) as u32
            } else {
                t
            }
        });
        columns.push(copy.collect());
    }
    let fields = (0..columns.len()).map(|i| Field::new(format!("m{i}"), 16)).collect();
    let columns = columns.into_iter().map(|codes| Column::new(codes, 16).unwrap()).collect();
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// Definition 5 and 6 violations of MI top-2 and an MI filter over 120
/// independent datasets each, with the datasets' sketches on offer
/// (`marginals`: the whole-dataset scope reads `H_D(α_t)` and `H_D(α)`
/// exactly and samples only the joint) or not (the paper's three sampled
/// entropies), and how many of those queries took the marginals.
fn mi_failure_rates(marginals: bool) -> (u32, u32, u64) {
    const RUNS: u64 = 120;
    const P_F: f64 = 0.2;
    let (mut top_k_violations, mut filter_violations) = (0u32, 0u32);
    let before = sketch_stats::snapshot().mi_sketch_marginals;
    for seed in 0..RUNS {
        let ds = mi_dataset(20_000, 0x3A26 + seed);
        let mut exact = exact_mi_scores(&ds, 0);
        exact[0] = f64::NEG_INFINITY; // the target is no candidate
        let sketch = DatasetSketch::build(ds.num_rows(), (0..6).map(|a| ds.column(a).packed()));
        let sketch = marginals.then_some(&sketch);
        let exec = Executor::sequential();
        let run_mi = |shape: Shape, cfg: &SwopeConfig| {
            run(&ds, &shape, &Scope::all(), sketch, cfg, &mut NoopObserver, &exec).unwrap()
        };
        let top = run_mi(Shape::mi(0, Rule::TopK { k: 2 }), &config(0.2, P_F, seed));
        if !definition5_holds(&top.into(), &exact, 0.2) {
            top_k_violations += 1;
        }
        let filtered = run_mi(Shape::mi(0, Rule::Filter { eta: 3.0 }), &config(0.05, P_F, !seed));
        if !definition6_holds(&filtered.into(), &exact, 3.0, 0.05) {
            filter_violations += 1;
        }
    }
    let took = sketch_stats::snapshot().mi_sketch_marginals - before;
    (top_k_violations, filter_violations, took)
}

#[test]
fn mi_failure_rates_within_budget() {
    let (top_k_violations, filter_violations, _) = mi_failure_rates(false);
    assert!(top_k_violations <= 46, "{top_k_violations}/120 Definition 5 violations, MI");
    assert!(filter_violations <= 46, "{filter_violations}/120 Definition 6 violations, MI");
}

#[test]
fn sketch_marginal_mi_failure_rates_within_budget() {
    let (top_k_violations, filter_violations, took) = mi_failure_rates(true);
    // Other tests of this file take no marginals, so every query here did.
    assert!(took >= 240, "{took} of 240 MI queries read sketch marginals");
    assert!(top_k_violations <= 46, "{top_k_violations}/120 Definition 5 violations, marginals");
    assert!(filter_violations <= 46, "{filter_violations}/120 Definition 6 violations, marginals");
}
