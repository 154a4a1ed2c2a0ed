//! Determinism property behind swope-cluster: the exact count-merge
//! protocol makes sharded execution invisible.
//!
//! Two layers of guarantees, both tested here with seeded generators and
//! no external property-test dependency:
//!
//! 1. **Merge algebra** — shard count deltas are pure integer
//!    histograms, so `merge` is associative and commutative, and any
//!    disjoint partition of rows merges back to the whole count.
//! 2. **Loop invariance** — every adaptive loop run through
//!    [`swope_core::ShardPlan`]-sharded counting returns bitwise-identical
//!    results to the unsharded loop, across shard counts (1/2/3/7),
//!    physical widths (`u8`/`u16`/`u32`), and executor thread counts
//!    (1/8). This is the property the wire layer inherits: a cluster of
//!    peers is just shards with a network in between.

#[macro_use]
mod common;

use common::{all_shapes, plain, repacked, sharded, staggered_dataset as dataset};
use swope_columnar::Width;
use swope_core::{CountState, Executor, PairCountState, SwopeConfig};
use swope_sampling::rng::Xoshiro256pp;

const SHARDS: [usize; 4] = [1, 2, 3, 7];
const THREADS: [usize; 2] = [1, 8];

// ---------------------------------------------------------------------
// Merge algebra.
// ---------------------------------------------------------------------

fn random_count_state(r: &mut Xoshiro256pp, support: u32, adds: usize) -> CountState {
    let mut cs = CountState::new(support);
    for _ in 0..adds {
        cs.add(r.next_below(support as u64) as u32);
    }
    cs
}

fn random_pair_state(r: &mut Xoshiro256pp, ts: u32, asup: u32, adds: usize) -> PairCountState {
    let mut ps = PairCountState::new();
    for _ in 0..adds {
        ps.add(r.next_below(ts as u64) as u32, r.next_below(asup as u64) as u32);
    }
    ps
}

#[test]
fn count_merge_is_associative_and_commutative() {
    let mut r = Xoshiro256pp::seed_from_u64(0x51AB);
    for support in [1u32, 2, 7, 64, 300] {
        let a = random_count_state(&mut r, support, 500);
        let b = random_count_state(&mut r, support, 250);
        let c = random_count_state(&mut r, support, 125);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.sorted_entries(), right.sorted_entries(), "associativity at {support}");
        assert_eq!(left.total(), a.total() + b.total() + c.total());

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.sorted_entries(), ba.sorted_entries(), "commutativity at {support}");
    }
}

#[test]
fn pair_merge_is_associative_and_commutative() {
    let mut r = Xoshiro256pp::seed_from_u64(0x51AC);
    let a = random_pair_state(&mut r, 11, 40, 800);
    let b = random_pair_state(&mut r, 11, 40, 400);
    let c = random_pair_state(&mut r, 11, 40, 200);

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left.canonical_runs(), right.canonical_runs(), "associativity");

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.canonical_runs(), ba.canonical_runs(), "commutativity");
}

/// Any disjoint partition of a row block, counted per part and merged in
/// a shuffled order, equals counting the whole block at once.
#[test]
fn partitioned_counts_merge_back_to_the_whole() {
    let mut r = Xoshiro256pp::seed_from_u64(0x51AD);
    let support = 23u32;
    let codes: Vec<u32> = (0..5_000).map(|_| r.next_below(support as u64) as u32).collect();

    let mut whole = CountState::new(support);
    for &c in &codes {
        whole.add(c);
    }

    for parts in [1usize, 2, 3, 7, 13] {
        // Random cut points give uneven partitions.
        let mut cuts: Vec<usize> =
            (0..parts - 1).map(|_| r.next_below(codes.len() as u64) as usize).collect();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(codes.len());

        let mut shards: Vec<CountState> = cuts
            .windows(2)
            .map(|w| {
                let mut cs = CountState::new(support);
                for &c in &codes[w[0]..w[1]] {
                    cs.add(c);
                }
                cs
            })
            .collect();

        // Merge in a shuffled order — order must not matter.
        let mut merged = CountState::new(support);
        while !shards.is_empty() {
            let i = r.next_below(shards.len() as u64) as usize;
            merged.merge(&shards.swap_remove(i));
        }
        assert_eq!(merged.sorted_entries(), whole.sorted_entries(), "{parts} parts");
    }
}

// ---------------------------------------------------------------------
// Loop invariance: sharded == unsharded, bitwise.
// ---------------------------------------------------------------------

/// `all_shapes()[i]` through sharded counting at every shard count ×
/// width × thread count, each equal to the unsharded single-thread run.
/// The dataset is the width-invariance one: candidates retire at
/// different iterations, and every column repacks at all three widths.
fn assert_shard_invariant(i: usize, seed: u64) {
    let shape = all_shapes()[i];
    let ds = dataset(seed, 8_000);
    let config = SwopeConfig::with_epsilon(0.2).with_seed(seed);
    let baseline = plain(&ds, &shape, &config);
    for width in [Width::U8, Width::U16, Width::U32] {
        let packed = repacked(&ds, width);
        for shards in SHARDS {
            for t in THREADS {
                assert_eq!(
                    sharded(&packed, &shape, shards, &config, &Executor::new(t)),
                    baseline,
                    "{shape:?}: shards = {shards}, width = {width}, threads = {t}"
                );
            }
        }
    }
}

shape_tests!(assert_shard_invariant {
    entropy_top_k_is_shard_invariant(0, 31);
    entropy_filter_is_shard_invariant(1, 32);
    entropy_profile_is_shard_invariant(4, 33);
    mi_top_k_is_shard_invariant(2, 34);
    mi_filter_is_shard_invariant(3, 35);
    mi_profile_is_shard_invariant(5, 36);
});
