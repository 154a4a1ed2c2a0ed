//! End-to-end integration: generated corpus -> SWOPE queries -> checked
//! against exact answers and the paper's approximation contracts.

use swope_baselines::exact::select;
use swope_baselines::{exact_entropy_scores, exact_mi_scores};
use swope_core::{entropy_filter, entropy_top_k, mi_filter, mi_top_k, Rule, Shape, SwopeConfig};
use swope_datagen::{corpus, generate};

#[test]
fn entropy_topk_satisfies_definition5_on_corpus() {
    let ds = generate(&corpus::tiny(50_000, 30), 101);
    let exact = exact_entropy_scores(&ds);
    let order = select(&exact, &Shape::entropy(Rule::TopK { k: exact.len() }));
    for epsilon in [0.05, 0.1, 0.3] {
        for k in [1usize, 3, 7] {
            let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(k as u64);
            let res = entropy_top_k(&ds, k, &cfg).unwrap();
            assert_eq!(res.top.len(), k);
            for (i, s) in res.top.iter().enumerate() {
                // Definition 5 (i): estimate >= (1-ε) * exact score.
                assert!(
                    s.estimate >= (1.0 - epsilon) * exact[s.attr] - 1e-9,
                    "ε={epsilon} k={k} pos {i}: estimate {} < (1-ε)·{}",
                    s.estimate,
                    exact[s.attr]
                );
                // Definition 5 (ii): exact score >= (1-ε) * i-th best.
                let ith_best = exact[order[i]];
                assert!(
                    exact[s.attr] >= (1.0 - epsilon) * ith_best - 1e-9,
                    "ε={epsilon} k={k} pos {i}: score {} < (1-ε)·{ith_best}",
                    exact[s.attr]
                );
            }
        }
    }
}

#[test]
fn entropy_filter_satisfies_definition6_on_corpus() {
    let ds = generate(&corpus::tiny(50_000, 30), 103);
    let exact = exact_entropy_scores(&ds);
    for epsilon in [0.05, 0.2] {
        for eta in [0.5f64, 2.0, 4.0] {
            let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(eta.to_bits());
            let res = entropy_filter(&ds, eta, &cfg).unwrap();
            for (attr, &score) in exact.iter().enumerate() {
                let included = res.contains(attr);
                if score >= (1.0 + epsilon) * eta {
                    assert!(included, "ε={epsilon} η={eta}: attr {attr} (H={score}) missing");
                }
                if score < (1.0 - epsilon) * eta {
                    assert!(!included, "ε={epsilon} η={eta}: attr {attr} (H={score}) present");
                }
            }
        }
    }
}

#[test]
fn mi_topk_satisfies_definition5_on_corpus() {
    let ds = generate(&corpus::tiny(40_000, 25), 105);
    let epsilon = 0.5;
    for target in [0usize, 7, 13] {
        let exact = exact_mi_scores(&ds, target);
        let order = select(&exact, &Shape::mi(target, Rule::TopK { k: exact.len() - 1 }));
        let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(target as u64);
        let res = mi_top_k(&ds, target, 4, &cfg).unwrap();
        for (i, s) in res.top.iter().enumerate() {
            assert_ne!(s.attr, target);
            assert!(
                s.estimate >= (1.0 - epsilon) * exact[s.attr] - 1e-9,
                "target {target} pos {i}: estimate {} vs exact {}",
                s.estimate,
                exact[s.attr]
            );
            let ith_best = exact[order[i]];
            assert!(
                exact[s.attr] >= (1.0 - epsilon) * ith_best - 1e-9,
                "target {target} pos {i}: {} < (1-ε)·{ith_best}",
                exact[s.attr]
            );
        }
    }
}

#[test]
fn mi_filter_satisfies_definition6_on_corpus() {
    let ds = generate(&corpus::tiny(40_000, 25), 107);
    let epsilon = 0.5;
    for target in [0usize, 5] {
        let exact = exact_mi_scores(&ds, target);
        for eta in [0.1f64, 0.3] {
            let cfg = SwopeConfig::with_epsilon(epsilon).with_seed(eta.to_bits());
            let res = mi_filter(&ds, target, eta, &cfg).unwrap();
            for attr in (0..ds.num_attrs()).filter(|&a| a != target) {
                let score = exact[attr];
                let included = res.contains(attr);
                if score >= (1.0 + epsilon) * eta {
                    assert!(included, "target {target} η={eta}: attr {attr} (I={score}) missing");
                }
                if score < (1.0 - epsilon) * eta {
                    assert!(!included, "target {target} η={eta}: attr {attr} (I={score}) present");
                }
            }
        }
    }
}

#[test]
fn all_four_census_profiles_run_all_queries() {
    for profile in corpus::all(0.0003) {
        let name = profile.name.clone();
        let ds = generate(&profile, 1);
        let cfg = SwopeConfig::default();
        let topk = entropy_top_k(&ds, 10, &cfg).unwrap();
        assert_eq!(topk.top.len(), 10, "{name}");
        let filt = entropy_filter(&ds, 2.0, &cfg).unwrap();
        assert!(filt.accepted.len() <= ds.num_attrs(), "{name}");
        let mi = mi_top_k(&ds, 0, 10, &SwopeConfig::with_epsilon(0.5)).unwrap();
        assert_eq!(mi.top.len(), 10, "{name}");
        let mif = mi_filter(&ds, 0, 0.3, &SwopeConfig::with_epsilon(0.5)).unwrap();
        assert!(mif.accepted.len() < ds.num_attrs(), "{name}");
    }
}

#[test]
fn queries_are_reproducible_across_runs() {
    let ds = generate(&corpus::tiny(30_000, 20), 109);
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(5);
    assert_eq!(entropy_top_k(&ds, 5, &cfg).unwrap(), entropy_top_k(&ds, 5, &cfg).unwrap());
    assert_eq!(entropy_filter(&ds, 1.5, &cfg).unwrap(), entropy_filter(&ds, 1.5, &cfg).unwrap());
    let mi_cfg = SwopeConfig::with_epsilon(0.5).with_seed(5);
    assert_eq!(mi_top_k(&ds, 2, 3, &mi_cfg).unwrap(), mi_top_k(&ds, 2, 3, &mi_cfg).unwrap());
}

#[test]
fn threads_do_not_change_any_result() {
    let ds = generate(&corpus::tiny(30_000, 20), 111);
    let base = SwopeConfig::with_epsilon(0.1).with_seed(9);
    let threaded = base.clone().with_threads(8);
    assert_eq!(entropy_top_k(&ds, 5, &base).unwrap(), entropy_top_k(&ds, 5, &threaded).unwrap());
    assert_eq!(
        entropy_filter(&ds, 2.0, &base).unwrap(),
        entropy_filter(&ds, 2.0, &threaded).unwrap()
    );
    let mi_base = SwopeConfig::with_epsilon(0.5).with_seed(9);
    let mi_threaded = mi_base.clone().with_threads(8);
    assert_eq!(mi_top_k(&ds, 1, 4, &mi_base).unwrap(), mi_top_k(&ds, 1, 4, &mi_threaded).unwrap());
    assert_eq!(
        mi_filter(&ds, 1, 0.2, &mi_base).unwrap(),
        mi_filter(&ds, 1, 0.2, &mi_threaded).unwrap()
    );
}

#[test]
fn tiny_epsilon_recovers_exact_topk() {
    // As ε -> 0 the approximate answer converges to the exact one.
    let ds = generate(&corpus::tiny(20_000, 15), 113);
    let exact = exact_entropy_scores(&ds);
    let cfg = SwopeConfig::with_epsilon(0.01);
    let res = entropy_top_k(&ds, 3, &cfg).unwrap();
    let mut got = res.attr_indices();
    got.sort_unstable();
    let mut want = select(&exact, &Shape::entropy(Rule::TopK { k: 3 }));
    want.sort_unstable();
    assert_eq!(got, want);
}
