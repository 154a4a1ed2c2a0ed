//! Empirical study of the Lemma 1 bias envelope.
//!
//! Lemma 1 bounds how far below the truth a subsample's plug-in entropy
//! sits in expectation: `0 ≤ H_D − E[H_S] ≤ b(α)` with
//! `b(α) = log2(1 + (u−1)(N−M)/(M(N−1)))`. This example measures the
//! actual bias across sample sizes and shows it is always inside the
//! envelope — context for why SWOPE's upper bound must carry the `b(α)`
//! term.
//!
//! ```text
//! cargo run --release -p swope-examples --example estimator_bias
//! ```

use swope_datagen::{generate_column, Distribution};
use swope_estimate::bounds::bias;
use swope_estimate::entropy::{column_entropy, EntropyCounter};
use swope_sampling::PrefixShuffle;

fn main() {
    let n = 1_000_000usize;
    let dist = Distribution::Zipf { u: 500, s: 0.6 };
    let column = generate_column(&dist, n, 99);
    let h_exact = column_entropy(&column);
    println!("population: N = {n}, Zipf(u=500, s=0.6), exact H_D = {h_exact:.4} bits\n");
    println!("{:>8} {:>10} {:>10} {:>12}", "M", "plug-in", "bias", "Lemma1 b(α)");

    let trials = 40;
    for m in [256usize, 1024, 4096, 16_384, 65_536, 262_144] {
        let mut mean_plugin = 0.0;
        for trial in 0..trials {
            let mut sampler = PrefixShuffle::new(n, 1000 + trial);
            let rows = sampler.grow_to(m).to_vec();
            let mut counter = EntropyCounter::new(column.support());
            for &r in &rows {
                counter.add(column.code(r as usize));
            }
            mean_plugin += counter.entropy();
        }
        mean_plugin /= trials as f64;
        let envelope = bias(500, m as u64, n as u64);
        let actual_bias = h_exact - mean_plugin;
        println!("{m:>8} {mean_plugin:>10.4} {actual_bias:>10.4} {envelope:>12.4}");
        assert!(
            actual_bias <= envelope + 0.02,
            "observed bias {actual_bias} escaped the Lemma 1 envelope {envelope}"
        );
        assert!(actual_bias >= -0.05, "plug-in should not overestimate on average");
    }

    println!(
        "\nObservations: the plug-in bias stays inside the Lemma 1 envelope at every M \
         (the envelope is loose for tiny M, tight for large M), which is what lets \
         SWOPE's λ/b(α) machinery turn a plug-in estimate into a high-probability interval."
    );
}
