//! Determinism property: every adaptive loop must return bitwise-identical
//! results for any thread count.
//!
//! The executor only changes *which thread* updates a candidate's state —
//! each state still sees its delta rows sequentially and in order, and all
//! cross-candidate reductions stay on the dispatching thread — so results
//! must match the sequential run exactly, floats included. The datasets
//! mix supports and skews so candidates retire at different iterations,
//! exercising dispatches over shrinking (and eventually tiny) slices.

#[macro_use]
mod common;

use common::{all_shapes, comparators_against, config, plain, staggered_dataset as dataset};
use swope_core::entropy_profile;

const THREADS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn retirement_is_staggered_in_the_test_dataset() {
    // Precondition for the invariance tests below to mean anything: the
    // candidates must not all retire in the same iteration.
    let ds = dataset(11, 12_000);
    let r = entropy_profile(&ds, 0.05, &config(11, 1)).unwrap();
    let mut iters: Vec<usize> = r.scores.iter().map(|s| s.retired_iteration).collect();
    iters.sort_unstable();
    iters.dedup();
    assert!(iters.len() > 1, "all candidates retired together: {:?}", r.scores);
}

/// `all_shapes()[i]` (past them, the comparators), seeded `i + 1`, at
/// every thread count against the sequential run.
fn assert_thread_invariant(i: usize) {
    let shape = all_shapes().into_iter().chain(comparators_against(5)).nth(i).unwrap();
    let seed = i as u64 + 1;
    let ds = dataset(seed, 12_000);
    let baseline = plain(&ds, &shape, &config(seed, 1));
    for t in THREADS {
        assert_eq!(plain(&ds, &shape, &config(seed, t)), baseline, "{shape:?}, threads = {t}");
    }
}

shape_tests!(assert_thread_invariant {
    entropy_top_k_is_thread_invariant(0);
    entropy_filter_is_thread_invariant(1);
    mi_top_k_is_thread_invariant(2);
    mi_filter_is_thread_invariant(3);
    entropy_profile_is_thread_invariant(4);
    mi_profile_is_thread_invariant(5);
    entropy_rank_is_thread_invariant(6);
    entropy_filter_exact_is_thread_invariant(7);
    mi_rank_is_thread_invariant(8);
    mi_filter_exact_is_thread_invariant(9);
});
