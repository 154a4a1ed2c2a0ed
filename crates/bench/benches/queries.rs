//! End-to-end query microbenchmarks: SWOPE vs EntropyRank/EntropyFilter
//! vs Exact on a bench-sized corpus.
//!
//! These are the headline comparisons at one fixed setting each; the
//! `figures` binary runs the paper's full parameter sweeps.

use swope_baselines::{
    entropy_filter_exact_sampling, entropy_rank_top_k, exact_entropy_scores, exact_mi_scores,
    mi_rank_top_k,
};
use swope_bench::micro::{black_box, Group};
use swope_columnar::Dataset;
use swope_core::{entropy_filter, entropy_top_k, mi_filter, mi_top_k, SwopeConfig};
use swope_datagen::{corpus, generate};

fn dataset() -> Dataset {
    // ~59k rows x 100 columns of the cdc profile.
    generate(&corpus::cdc(1.0 / 64.0), 0x5170)
}

fn main() {
    let ds = dataset();

    let mut g = Group::new("entropy_queries");
    let eps01 = SwopeConfig::with_epsilon(0.1);
    let default_cfg = SwopeConfig::default();
    g.bench("swope_topk_k4_eps0.1", || black_box(entropy_top_k(&ds, 4, &eps01).unwrap()));
    g.bench("rank_topk_k4", || black_box(entropy_rank_top_k(&ds, 4, &default_cfg).unwrap()));
    g.bench("exact_scan", || black_box(exact_entropy_scores(&ds)));
    let eps005 = SwopeConfig::with_epsilon(0.05);
    g.bench("swope_filter_eta2_eps0.05", || black_box(entropy_filter(&ds, 2.0, &eps005).unwrap()));
    g.bench("entropyfilter_eta2", || {
        black_box(entropy_filter_exact_sampling(&ds, 2.0, &default_cfg).unwrap())
    });

    let target = 3;
    let eps05 = SwopeConfig::with_epsilon(0.5);
    let mut g = Group::new("mi_queries");
    g.bench("swope_mi_topk_k4_eps0.5", || black_box(mi_top_k(&ds, target, 4, &eps05).unwrap()));
    g.bench("rank_mi_topk_k4", || black_box(mi_rank_top_k(&ds, target, 4, &default_cfg).unwrap()));
    g.bench("exact_mi_scan", || black_box(exact_mi_scores(&ds, target)));
    g.bench("swope_mi_filter_eta0.3_eps0.5", || {
        black_box(mi_filter(&ds, target, 0.3, &eps05).unwrap())
    });

    // DESIGN.md design choice 5: per-attribute work shards across threads.
    let mut g = Group::new("parallel_scaling");
    for threads in [1usize, 2, 4] {
        let cfg = SwopeConfig::with_epsilon(0.1).with_threads(threads);
        g.bench(&format!("swope_topk_threads{threads}"), || {
            black_box(entropy_top_k(&ds, 4, &cfg).unwrap())
        });
    }
}
