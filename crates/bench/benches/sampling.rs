//! Ablation: incremental prefix-shuffle extension vs fresh shuffles.
//!
//! DESIGN.md design choice 2: the doubling loop extends one Fisher–Yates
//! pass instead of resampling from scratch each iteration, so total
//! shuffling work across a query is O(final M), not O(Σ M_i).

use swope_bench::micro::{black_box, Group};
use swope_sampling::PrefixShuffle;

const N: usize = 1 << 22;

fn main() {
    let mut g = Group::new("shuffle");

    // Doubling ladder 1024 -> N/4 with incremental extension.
    g.bench("incremental_ladder", || {
        let mut s = PrefixShuffle::new(N, 42);
        let mut m = 1024;
        while m <= N / 4 {
            black_box(s.grow_to(m).len());
            m *= 2;
        }
        s.sampled()
    });

    // Same ladder, fresh shuffle per step (what a naive implementation
    // re-sampling each iteration would pay).
    g.bench("fresh_per_step", || {
        let mut total = 0usize;
        let mut m = 1024;
        while m <= N / 4 {
            let mut s = PrefixShuffle::new(N, 42);
            total += s.grow_to(m).len();
            m *= 2;
        }
        total
    });
}
