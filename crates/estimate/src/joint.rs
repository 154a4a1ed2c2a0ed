//! Empirical joint entropy and mutual information.
//!
//! Joint entropy over an attribute pair uses the same factorization as the
//! single-attribute case (`H = log2(M) − Σ n_ij·log2(n_ij)/M`) with pair
//! counts from an adaptive [`PairCounter`]. Mutual information follows the
//! paper's Definition 2: `I(α_t, α) = H(α_t) + H(α) − H(α_t, α)`.

use swope_columnar::Column;

use crate::entropy::{column_entropy, EntropyCounter};
use crate::freq::PairCounter;
use crate::xlog::{log2_or_zero, xlog2};

/// Incremental empirical joint-entropy counter for an attribute pair.
#[derive(Debug, Clone)]
pub struct JointEntropyCounter {
    pairs: PairCounter,
    sum_xlog: f64,
    total: u64,
}

impl JointEntropyCounter {
    /// Creates a counter for pairs in `(0..u_t, 0..u_a)`.
    pub fn new(u_t: u32, u_a: u32) -> Self {
        Self { pairs: PairCounter::new(u_t, u_a), sum_xlog: 0.0, total: 0 }
    }

    /// Ingests one sampled record's `(code_t, code_a)` pair. O(1) expected.
    #[inline]
    pub fn add(&mut self, code_t: u32, code_a: u32) {
        let new = self.pairs.add(code_t, code_a);
        self.sum_xlog += xlog2(new) - xlog2(new - 1);
        self.total += 1;
    }

    /// Ingests `k` sampled records sharing one `(code_t, code_a)` pair in
    /// a single telescoped update. The counts match `k` unit
    /// [`JointEntropyCounter::add`] calls exactly; the float accumulator
    /// takes one rounding step instead of `k`, so the canonical-order
    /// delta-apply ingest path is deterministic for any sharding of the
    /// same delta (see `swope_core::shard`).
    #[inline]
    pub fn add_count(&mut self, code_t: u32, code_a: u32, k: u64) {
        if k == 0 {
            return;
        }
        let new = self.pairs.add_n(code_t, code_a, k);
        self.sum_xlog += xlog2(new) - xlog2(new - k);
        self.total += k;
    }

    /// Number of records ingested (`M`).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical joint entropy of the ingested sample, in bits. O(1).
    #[inline]
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (log2_or_zero(self.total) - self.sum_xlog / self.total as f64).max(0.0)
    }

    /// Number of distinct pairs observed (`u_{t,α}` restricted to the
    /// sample).
    pub fn observed_distinct(&self) -> usize {
        self.pairs.observed_distinct()
    }

    /// Recomputes entropy from raw pair counts (drift check for tests).
    pub fn entropy_recomputed(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.pairs.iter().map(|(_, c)| xlog2(c)).sum();
        (log2_or_zero(self.total) - sum / self.total as f64).max(0.0)
    }
}

/// Exact empirical joint entropy `H_D(α_t, α)` over two full columns.
///
/// # Panics
/// Panics if the columns have different lengths.
pub fn joint_entropy(a: &Column, b: &Column) -> f64 {
    assert_eq!(a.len(), b.len(), "joint entropy requires aligned columns");
    let mut c = JointEntropyCounter::new(a.support(), b.support());
    let (ca, cb) = (a.to_codes(), b.to_codes());
    for i in 0..ca.len() {
        c.add(ca[i], cb[i]);
    }
    c.entropy()
}

/// Exact empirical mutual information `I_D(α_t, α)` over two full columns.
///
/// Computed as `H(α_t) + H(α) − H(α_t, α)` (Definition 2). The result is
/// clamped at 0: it is mathematically nonnegative, but the three-term
/// difference can go epsilon-negative in floating point.
pub fn mutual_information(a: &Column, b: &Column) -> f64 {
    (column_entropy(a) + column_entropy(b) - joint_entropy(a, b)).max(0.0)
}

/// Exact empirical MI restricted to `rows`.
pub fn mutual_information_over_rows(a: &Column, b: &Column, rows: &[u32]) -> f64 {
    let mut ha = EntropyCounter::new(a.support());
    let mut hb = EntropyCounter::new(b.support());
    let mut hab = JointEntropyCounter::new(a.support(), b.support());
    for &r in rows {
        let (ca, cb) = (a.code(r as usize), b.code(r as usize));
        ha.add(ca);
        hb.add(cb);
        hab.add(ca, cb);
    }
    (ha.entropy() + hb.entropy() - hab.entropy()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(codes: Vec<u32>, support: u32) -> Column {
        Column::new(codes, support).unwrap()
    }

    #[test]
    fn identical_columns_have_mi_equal_to_entropy() {
        let a = col(vec![0, 1, 2, 0, 1, 2], 3);
        let mi = mutual_information(&a, &a);
        let h = column_entropy(&a);
        assert!((mi - h).abs() < 1e-12);
    }

    #[test]
    fn independent_columns_have_zero_mi() {
        // Product distribution: every (a,b) combination equally often.
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                ca.push(a);
                cb.push(b);
            }
        }
        let mi = mutual_information(&col(ca, 4), &col(cb, 4));
        assert!(mi.abs() < 1e-12, "mi = {mi}");
    }

    #[test]
    fn joint_entropy_of_independent_pair_is_sum() {
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        for a in 0..2u32 {
            for b in 0..8u32 {
                ca.push(a);
                cb.push(b);
            }
        }
        let a = col(ca, 2);
        let b = col(cb, 8);
        let h = joint_entropy(&a, &b);
        assert!((h - (1.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn joint_counter_matches_one_shot() {
        let a = col(vec![0, 0, 1, 1, 2], 3);
        let b = col(vec![1, 1, 0, 1, 0], 2);
        let mut c = JointEntropyCounter::new(3, 2);
        for i in 0..5 {
            c.add(a.code(i), b.code(i));
        }
        assert!((c.entropy() - joint_entropy(&a, &b)).abs() < 1e-12);
        assert!((c.entropy() - c.entropy_recomputed()).abs() < 1e-9);
        assert_eq!(c.observed_distinct(), 4); // (0,1),(1,0),(1,1),(2,0)
    }

    #[test]
    fn add_count_matches_unit_adds_on_counts() {
        let mut unit = JointEntropyCounter::new(4, 4);
        let mut bulk = JointEntropyCounter::new(4, 4);
        for (t, a, k) in [(0u32, 1u32, 5u64), (2, 3, 1), (0, 1, 2), (3, 0, 7), (2, 3, 0)] {
            for _ in 0..k {
                unit.add(t, a);
            }
            bulk.add_count(t, a, k);
        }
        assert_eq!(unit.total(), bulk.total());
        assert_eq!(unit.observed_distinct(), bulk.observed_distinct());
        // The O(1) accumulators round differently (one telescoped step vs
        // k unit steps) but both must agree with the exact recomputation.
        assert!((unit.entropy() - bulk.entropy()).abs() < 1e-9);
        assert!((bulk.entropy() - bulk.entropy_recomputed()).abs() < 1e-9);
    }

    #[test]
    fn mi_is_nonnegative_and_bounded() {
        // MI <= min(H(a), H(b)) for any pair.
        let a = col(vec![0, 1, 0, 1, 2, 2, 1, 0], 3);
        let b = col(vec![1, 1, 0, 0, 1, 0, 1, 0], 2);
        let mi = mutual_information(&a, &b);
        assert!(mi >= 0.0);
        assert!(mi <= column_entropy(&a).min(column_entropy(&b)) + 1e-12);
    }

    #[test]
    fn mi_over_rows_subset() {
        let a = col(vec![0, 1, 0, 1], 2);
        let b = col(vec![0, 1, 1, 0], 2);
        // All rows: a XOR-ish vs b -> MI 0 (each joint cell once).
        let all: Vec<u32> = (0..4).collect();
        assert!(mutual_information_over_rows(&a, &b, &all).abs() < 1e-12);
        // Rows {0,1}: perfectly correlated -> MI = 1 bit.
        assert!((mutual_information_over_rows(&a, &b, &[0, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_columns() {
        let a = col(vec![], 2);
        let b = col(vec![], 3);
        assert_eq!(joint_entropy(&a, &b), 0.0);
        assert_eq!(mutual_information(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "aligned columns")]
    fn misaligned_columns_panic() {
        joint_entropy(&col(vec![0], 1), &col(vec![0, 0], 1));
    }

    #[test]
    fn sparse_pair_counter_path() {
        // Force supports whose product exceeds the dense limit.
        let u = 1 << 11; // 2048; product = 4Mi > 1Mi limit
        let mut c = JointEntropyCounter::new(u, u);
        for i in 0..1000u32 {
            c.add(i % u, (i * 7) % u);
        }
        assert!(c.entropy() > 0.0);
        assert!((c.entropy() - c.entropy_recomputed()).abs() < 1e-9);
    }
}
