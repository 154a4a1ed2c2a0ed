//! Baselines must return exact answers (up to their p_f budget), and
//! SWOPE's cost advantage over them must materialize on the corpus.

use swope_baselines::{
    entropy_filter_exact_sampling, entropy_rank_top_k, exact_answer, mi_filter_exact_sampling,
    mi_rank_top_k,
};
use swope_columnar::Dataset;
use swope_core::{entropy_filter, entropy_top_k, Rule, Shape, SwopeConfig};
use swope_datagen::{corpus, generate};

/// The attributes of the exact answer to `shape`.
fn exact_attrs(ds: &Dataset, shape: Shape) -> Vec<usize> {
    exact_answer(ds, &shape).unwrap().scores.iter().map(|s| s.attr).collect()
}

#[test]
fn entropy_rank_matches_exact_across_seeds() {
    let ds = generate(&corpus::tiny(40_000, 25), 201);
    for seed in [1u64, 2, 3, 4, 5] {
        for k in [1usize, 4, 8] {
            let cfg = SwopeConfig::default().with_seed(seed);
            let rank = entropy_rank_top_k(&ds, k, &cfg).unwrap();
            let mut a = rank.attr_indices();
            let mut b = exact_attrs(&ds, Shape::entropy(Rule::TopK { k }));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed} k {k}");
        }
    }
}

#[test]
fn entropy_filter_baseline_matches_exact_across_seeds() {
    let ds = generate(&corpus::tiny(40_000, 25), 203);
    for seed in [1u64, 2, 3] {
        for eta in [1.0, 2.5, 4.0] {
            let cfg = SwopeConfig::default().with_seed(seed);
            let sampled = entropy_filter_exact_sampling(&ds, eta, &cfg).unwrap();
            let mut a = sampled.attr_indices();
            let mut b = exact_attrs(&ds, Shape::entropy(Rule::Filter { eta }));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed} eta {eta}");
        }
    }
}

#[test]
fn mi_baselines_match_exact() {
    let ds = generate(&corpus::tiny(30_000, 20), 205);
    let cfg = SwopeConfig::default();
    for target in [0usize, 3] {
        let rank = mi_rank_top_k(&ds, target, 3, &cfg).unwrap();
        let mut a = rank.attr_indices();
        let mut b = exact_attrs(&ds, Shape::mi(target, Rule::TopK { k: 3 }));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "target {target}");

        let sampled = mi_filter_exact_sampling(&ds, target, 0.2, &cfg).unwrap();
        let mut a = sampled.attr_indices();
        let mut b = exact_attrs(&ds, Shape::mi(target, Rule::Filter { eta: 0.2 }));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "target {target} filter");
    }
}

#[test]
fn swope_does_no_more_work_than_rank_on_hard_instances() {
    // Many near-tied columns below the top: the regime where EntropyRank's
    // Δ-gap dependence hurts and SWOPE's relative rule wins.
    use swope_columnar::{Column, Field, Schema};
    let n = 120_000usize;
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    fields.push(Field::new("top", 256));
    columns.push(Column::new((0..n).map(|r| r as u32 % 256).collect(), 256).unwrap());
    for (i, u) in [64u32, 64, 63, 63, 62].iter().enumerate() {
        fields.push(Field::new(format!("tied{i}"), *u));
        columns.push(
            Column::new(
                (0..n)
                    .map(|r| ((r as u32).wrapping_mul(2654435761 + i as u32) >> 16) % u)
                    .collect(),
                *u,
            )
            .unwrap(),
        );
    }
    let ds = Dataset::new(Schema::new(fields), columns).unwrap();
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(7);
    let swope = entropy_top_k(&ds, 2, &cfg).unwrap();
    let rank = entropy_rank_top_k(&ds, 2, &cfg).unwrap();
    assert!(
        swope.stats.rows_scanned <= rank.stats.rows_scanned,
        "swope {:?} vs rank {:?}",
        swope.stats,
        rank.stats
    );
}

#[test]
fn swope_filter_does_no_more_work_than_baseline_near_threshold() {
    // Scores sitting almost exactly at η: EntropyFilter must nearly scan
    // everything, SWOPE's ε-band lets it stop.
    use swope_columnar::{Column, Field, Schema};
    let n = 120_000usize;
    // Entropy of u=16 cyclic column is exactly 4 bits; query η = 4.
    let fields = vec![Field::new("at_threshold", 16), Field::new("wide", 256)];
    let columns = vec![
        Column::new((0..n).map(|r| r as u32 % 16).collect(), 16).unwrap(),
        Column::new((0..n).map(|r| r as u32 % 256).collect(), 256).unwrap(),
    ];
    let ds = Dataset::new(Schema::new(fields), columns).unwrap();
    let cfg = SwopeConfig::with_epsilon(0.05).with_seed(7);
    let swope = entropy_filter(&ds, 4.0, &cfg).unwrap();
    let baseline = entropy_filter_exact_sampling(&ds, 4.0, &cfg).unwrap();
    assert!(
        swope.stats.rows_scanned < baseline.stats.rows_scanned,
        "swope {:?} vs baseline {:?}",
        swope.stats,
        baseline.stats
    );
    // The baseline is forced to the full scan by the exact-threshold column.
    assert_eq!(baseline.stats.sample_size, n);
}
