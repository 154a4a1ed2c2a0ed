use crate::rng::Xoshiro256pp;

/// An incrementally extended Fisher–Yates shuffle over rows `0..N`.
///
/// The paper treats a size-`M` random sample as the first `M` entries of a
/// random permutation of the data (§2.2). A classic Fisher–Yates shuffle
/// fixes position `i` at step `i`, so running only the first `M` steps
/// yields exactly the first `M` entries of a uniform permutation — and
/// running further steps later *extends* the same permutation without
/// disturbing the prefix. This gives the two properties SWOPE needs:
///
/// 1. **Uniformity**: every prefix is a uniform sample without replacement.
/// 2. **Nesting**: the sample at iteration `i` is a prefix of the sample at
///    iteration `i+1`, so per-attribute counters can be updated with only
///    the ΔM new rows, and the martingale argument of §3.1 applies to the
///    doubling schedule.
///
/// Queries sample by [`crate::PagePrefix`], which builds no
/// permutation; this is kept for examples, benches and tests that want
/// a uniform sample of row ids.
///
/// Memory: one `u32` per population row (`4N` bytes), initialized in one
/// pass at construction.
#[derive(Debug, Clone)]
pub struct PrefixShuffle {
    perm: Vec<u32>,
    fixed: usize,
    rng: Xoshiro256pp,
}

impl PrefixShuffle {
    /// Creates a shuffle over `num_rows` rows using the given seed.
    pub fn new(num_rows: usize, seed: u64) -> Self {
        assert!(num_rows <= u32::MAX as usize, "row count exceeds u32 index space");
        Self {
            perm: (0..num_rows as u32).collect(),
            fixed: 0,
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Total number of rows `N` in the population.
    pub fn num_rows(&self) -> usize {
        self.perm.len()
    }

    /// Current sample size `M`.
    pub fn sampled(&self) -> usize {
        self.fixed
    }

    /// All sampled row indices so far — the permutation prefix of length
    /// [`PrefixShuffle::sampled`], in sampling order.
    pub fn rows(&self) -> &[u32] {
        &self.perm[..self.fixed]
    }

    /// Grows the sample to `min(target, N)` rows, never past it; a target
    /// at or below the current size is a no-op (rows are never replaced).
    ///
    /// Returns the **newly added** row indices (the delta between the old
    /// and new sample), enabling O(ΔM) incremental counter updates.
    pub fn grow_to(&mut self, target: usize) -> &[u32] {
        let n = self.perm.len();
        let target = target.min(n);
        let start = self.fixed;
        for i in start..target {
            // Choose uniformly from the not-yet-fixed suffix [i, n).
            let j = i + self.rng.next_below((n - i) as u64) as usize;
            self.perm.swap(i, j);
        }
        self.fixed = target.max(self.fixed);
        &self.perm[start..self.fixed]
    }

    /// Grows the sample like [`PrefixShuffle::grow_to`], but returns the
    /// delta as a range into [`PrefixShuffle::rows`], so the caller can
    /// re-slice it while holding the shuffle immutably.
    pub fn grow_delta(&mut self, target: usize) -> std::ops::Range<usize> {
        let before = self.fixed;
        self.grow_to(target);
        before..self.fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_is_sample_without_replacement() {
        let mut s = PrefixShuffle::new(100, 1);
        s.grow_to(40);
        let rows = s.rows();
        assert_eq!(rows.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for &r in rows {
            assert!((r as usize) < 100);
            assert!(seen.insert(r), "duplicate row {r}");
        }
    }

    #[test]
    fn growth_is_nested_and_returns_delta() {
        let mut s = PrefixShuffle::new(50, 7);
        let first: Vec<u32> = s.grow_to(10).to_vec();
        assert_eq!(first.len(), 10);
        let snapshot: Vec<u32> = s.rows().to_vec();
        let delta: Vec<u32> = s.grow_to(25).to_vec();
        assert_eq!(delta.len(), 15);
        // The old prefix is untouched.
        assert_eq!(&s.rows()[..10], snapshot.as_slice());
        // Delta follows the prefix.
        assert_eq!(&s.rows()[10..25], delta.as_slice());
    }

    #[test]
    fn grow_delta_matches_grow_to() {
        let mut by_slice = PrefixShuffle::new(50, 7);
        let mut by_range = PrefixShuffle::new(50, 7);
        for target in [10usize, 25, 25, 50, 80] {
            let delta: Vec<u32> = by_slice.grow_to(target).to_vec();
            let range = by_range.grow_delta(target);
            assert_eq!(&by_range.rows()[range], delta.as_slice(), "target = {target}");
        }
    }

    #[test]
    fn full_growth_is_a_permutation() {
        let n = 200;
        let mut s = PrefixShuffle::new(n, 3);
        s.grow_to(n);
        let mut rows: Vec<u32> = s.rows().to_vec();
        rows.sort_unstable();
        let expected: Vec<u32> = (0..n as u32).collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn grow_past_n_caps_at_n() {
        let mut s = PrefixShuffle::new(10, 3);
        let delta = s.grow_to(9999);
        assert_eq!(delta.len(), 10);
        assert_eq!(s.sampled(), 10);
        assert!(s.grow_to(20).is_empty());
    }

    #[test]
    fn grow_to_smaller_target_is_a_noop() {
        let mut s = PrefixShuffle::new(30, 3);
        s.grow_to(20);
        let before: Vec<u32> = s.rows().to_vec();
        assert!(s.grow_to(5).is_empty());
        assert_eq!(s.rows(), before.as_slice());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PrefixShuffle::new(64, 11);
        let mut b = PrefixShuffle::new(64, 11);
        a.grow_to(32);
        b.grow_to(32);
        assert_eq!(a.rows(), b.rows());
        let mut c = PrefixShuffle::new(64, 12);
        c.grow_to(32);
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn incremental_equals_one_shot() {
        // Growing 10 -> 20 -> 40 must equal growing straight to 40:
        // extension continues the same Fisher-Yates pass.
        let mut inc = PrefixShuffle::new(100, 5);
        inc.grow_to(10);
        inc.grow_to(20);
        inc.grow_to(40);
        let mut one = PrefixShuffle::new(100, 5);
        one.grow_to(40);
        assert_eq!(inc.rows(), one.rows());
    }

    #[test]
    fn first_element_is_uniform() {
        // Over many seeds, the first sampled row should be ~uniform on 0..10.
        let mut counts = [0u32; 10];
        for seed in 0..5000u64 {
            let mut s = PrefixShuffle::new(10, seed);
            s.grow_to(1);
            counts[s.rows()[0] as usize] += 1;
        }
        let expected = 500.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 100.0,
                "row {i} drawn {c} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn empty_population() {
        let mut s = PrefixShuffle::new(0, 1);
        assert!(s.grow_to(10).is_empty());
        assert_eq!(s.num_rows(), 0);
        assert_eq!(s.sampled(), 0);
    }
}
