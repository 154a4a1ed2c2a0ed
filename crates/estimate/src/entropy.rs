//! Empirical entropy computation.
//!
//! The paper's Eq. 1: `H_S(α) = -Σ_i (m_i/M)·log2(m_i/M)`, which factors as
//!
//! ```text
//! H_S(α) = log2(M) − (1/M)·Σ_i m_i·log2(m_i)
//! ```
//!
//! so maintaining the scalar `Σ m_i·log2(m_i)` under count increments gives
//! **O(1) per sampled record and O(1) per entropy evaluation** — the design
//! choice that keeps each SWOPE iteration linear in the *new* records only.

use swope_columnar::Column;

use crate::freq::DenseCounter;
use crate::xlog::{log2_or_zero, xlog2};

/// Incremental empirical-entropy counter for one attribute.
///
/// Feed sampled records with [`EntropyCounter::add`]; read the current
/// sample entropy with [`EntropyCounter::entropy`] at any time.
///
/// # Example
///
/// ```
/// use swope_estimate::entropy::EntropyCounter;
///
/// let mut c = EntropyCounter::new(2);
/// for code in [0, 1, 0, 1] {
///     c.add(code);
/// }
/// assert!((c.entropy() - 1.0).abs() < 1e-12); // fair coin: 1 bit
/// ```
#[derive(Debug, Clone)]
pub struct EntropyCounter {
    counts: DenseCounter,
    /// `Σ m_i·log2(m_i)` maintained incrementally.
    sum_xlog: f64,
}

impl EntropyCounter {
    /// Creates a counter for codes `0..support`.
    pub fn new(support: u32) -> Self {
        Self { counts: DenseCounter::new(support), sum_xlog: 0.0 }
    }

    /// Ingests one sampled record with value `code`. O(1).
    #[inline]
    pub fn add(&mut self, code: u32) {
        let new = self.counts.add(code);
        // Δ(Σ m·log2 m) when a count goes c-1 -> c.
        self.sum_xlog += xlog2(new) - xlog2(new - 1);
    }

    /// Ingests `k` records of the same `code` in one step. O(1).
    ///
    /// The accumulator delta telescopes the `k` unit adds exactly in real
    /// arithmetic (`Σ_{i=1..k} xlog2(c+i) − xlog2(c+i−1) = xlog2(c+k) −
    /// xlog2(c)`) and accrues fewer float roundings than `k` calls to
    /// [`EntropyCounter::add`].
    #[inline]
    pub fn add_count(&mut self, code: u32, k: u64) {
        if k == 0 {
            return;
        }
        let new = self.counts.add_n(code, k);
        self.sum_xlog += xlog2(new) - xlog2(new - k);
    }

    /// Number of records ingested (`M`).
    #[inline]
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// Empirical entropy of the ingested sample, in bits. O(1).
    ///
    /// Returns 0 for an empty sample.
    #[inline]
    pub fn entropy(&self) -> f64 {
        let m = self.counts.total();
        if m == 0 {
            return 0.0;
        }
        let h = log2_or_zero(m) - self.sum_xlog / m as f64;
        // Guard tiny negative results from float cancellation.
        h.max(0.0)
    }

    /// Recomputes entropy from the raw counts, bypassing the incremental
    /// accumulator. Used by tests and the accumulator-drift ablation.
    pub fn entropy_recomputed(&self) -> f64 {
        entropy_from_counts(self.counts.counts())
    }

    /// The underlying per-code counts.
    pub fn counts(&self) -> &[u64] {
        self.counts.counts()
    }

    /// Number of codes observed at least once.
    pub fn observed_distinct(&self) -> usize {
        self.counts.observed_distinct()
    }
}

/// Empirical entropy (bits) of a full count vector. O(u).
///
/// `counts[i]` is `n_i`; zero counts contribute nothing.
pub fn entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let sum_xlog: f64 = counts.iter().map(|&c| xlog2(c)).sum();
    (log2_or_zero(total) - sum_xlog / total as f64).max(0.0)
}

/// Exact empirical entropy `H_D(α)` of a whole column. One pass, O(N + u).
pub fn column_entropy(column: &Column) -> f64 {
    entropy_from_counts(&column.value_counts())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_hits_log2_u() {
        // 4 values, equally frequent: entropy = 2 bits.
        let mut c = EntropyCounter::new(4);
        for code in [0, 1, 2, 3, 0, 1, 2, 3] {
            c.add(code);
        }
        assert!((c.entropy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_has_zero_entropy() {
        let mut c = EntropyCounter::new(3);
        for _ in 0..100 {
            c.add(1);
        }
        assert_eq!(c.entropy(), 0.0);
    }

    #[test]
    fn empty_sample_has_zero_entropy() {
        let c = EntropyCounter::new(5);
        assert_eq!(c.entropy(), 0.0);
        assert_eq!(entropy_from_counts(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn skewed_distribution_known_value() {
        // p = (3/4, 1/4): H = 2 - 0.75*log2(3) ≈ 0.8112781.
        let mut c = EntropyCounter::new(2);
        for code in [0, 0, 0, 1] {
            c.add(code);
        }
        let expected = 2.0 - 0.75 * 3f64.log2();
        assert!((c.entropy() - expected).abs() < 1e-12);
    }

    #[test]
    fn incremental_matches_recompute_under_many_updates() {
        let mut c = EntropyCounter::new(50);
        // Deterministic pseudo-random-ish update stream.
        let mut x = 12345u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            c.add((x >> 33) as u32 % 50);
        }
        let drift = (c.entropy() - c.entropy_recomputed()).abs();
        assert!(drift < 1e-9, "accumulator drift {drift}");
    }

    #[test]
    fn entropy_from_counts_matches_counter() {
        let mut c = EntropyCounter::new(6);
        let stream = [5u32, 0, 0, 3, 3, 3, 2];
        for &s in &stream {
            c.add(s);
        }
        assert!((c.entropy() - entropy_from_counts(c.counts())).abs() < 1e-12);
    }

    #[test]
    fn column_entropy_full_scan() {
        let col = Column::new(vec![0, 1, 0, 1, 2, 2, 2, 2], 3).unwrap();
        // counts = [2,2,4]; H = 3 - (2*1 + 2*1 + 4*2)/8 = 3 - 12/8 = 1.5
        assert!((column_entropy(&col) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_bounded_by_log2_support() {
        let mut c = EntropyCounter::new(7);
        let mut x = 99u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.add((x >> 33) as u32 % 7);
        }
        assert!(c.entropy() <= 7f64.log2() + 1e-12);
        assert!(c.entropy() >= 0.0);
    }
}
