//! Divergences between empirical distributions (extension).
//!
//! The Jensen–Shannon distance between two columns' empirical value
//! distributions, which the CLI's drift command uses to compare two
//! snapshots of the same attribute (JS distance is a proper, bounded
//! metric, so it thresholds cleanly).
//!
//! It operates on *aligned code spaces*: the two columns must use the
//! same dictionary/encoding for their codes to be comparable, which is
//! the case for two row-subsets of one dataset, a dataset and its
//! [`swope_columnar::Dataset::concat`] shards, or two snapshots encoded
//! with a shared dictionary.

use swope_columnar::Column;

/// Empirical distribution of a column: `P(i) = n_i / N` over
/// `0..support`. Returns an empty vector for an empty column.
pub fn empirical_distribution(column: &Column) -> Vec<f64> {
    let n = column.len();
    if n == 0 {
        return vec![0.0; column.support() as usize];
    }
    column.value_counts().iter().map(|&c| c as f64 / n as f64).collect()
}

/// Kullback–Leibler divergence `D(p ‖ q)` in bits.
///
/// Defined when `q_i = 0 ⇒ p_i = 0`; returns `+∞` otherwise (the
/// standard convention — an event `p` considers possible that `q` rules
/// out is infinitely surprising). Not symmetric; use
/// [`jensen_shannon_divergence`] for a symmetric, always-finite measure.
///
/// # Panics
/// Panics if the vectors' lengths differ.
fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "KL divergence requires aligned supports");
    let mut d = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi <= 0.0 {
            continue;
        }
        if qi <= 0.0 {
            return f64::INFINITY;
        }
        d += pi * (pi / qi).log2();
    }
    d.max(0.0)
}

/// Jensen–Shannon divergence in bits: symmetric, finite, in `[0, 1]`.
///
/// `JSD(p, q) = D(p ‖ m)/2 + D(q ‖ m)/2` with `m = (p + q)/2`.
///
/// # Panics
/// Panics if the vectors' lengths differ.
fn jensen_shannon_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "JS divergence requires aligned supports");
    let m: Vec<f64> = p.iter().zip(q).map(|(&a, &b)| 0.5 * (a + b)).collect();
    (0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)).clamp(0.0, 1.0)
}

/// Jensen–Shannon *distance* (the square root of the divergence): a
/// proper metric in `[0, 1]`.
///
/// # Panics
/// Panics if the vectors' lengths differ (the two code spaces would not
/// be comparable).
pub fn jensen_shannon_distance(p: &[f64], q: &[f64]) -> f64 {
    jensen_shannon_divergence(p, q).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(codes: Vec<u32>, support: u32) -> Column {
        Column::new(codes, support).unwrap()
    }

    #[test]
    fn kl_zero_iff_equal() {
        let p = [0.25, 0.75];
        assert_eq!(kl_divergence(&p, &p), 0.0);
        let q = [0.5, 0.5];
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn kl_known_value() {
        // D((1,0) || (1/2,1/2)) = 1·log2(2) = 1 bit.
        assert!((kl_divergence(&[1.0, 0.0], &[0.5, 0.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_infinite_off_support() {
        assert!(kl_divergence(&[0.5, 0.5], &[1.0, 0.0]).is_infinite());
    }

    #[test]
    fn kl_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
    }

    #[test]
    fn js_symmetric_bounded_finite() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        let d = jensen_shannon_divergence(&p, &q);
        assert!((d - 1.0).abs() < 1e-12, "disjoint supports hit the 1-bit maximum");
        assert_eq!(jensen_shannon_divergence(&p, &q), jensen_shannon_divergence(&q, &p));
        assert_eq!(jensen_shannon_divergence(&p, &p), 0.0);
    }

    #[test]
    fn js_distance_triangle_inequality_smoke() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.8, 0.1];
        let r = [0.3, 0.3, 0.4];
        let pq = jensen_shannon_distance(&p, &q);
        let pr = jensen_shannon_distance(&p, &r);
        let rq = jensen_shannon_distance(&r, &q);
        assert!(pq <= pr + rq + 1e-12);
    }

    #[test]
    fn column_distance_detects_drift() {
        let before = col((0..1000).map(|i| i % 4).collect(), 4);
        let same = col((0..1000).map(|i| (i + 1) % 4).collect(), 4);
        let drifted = col(vec![0; 1000], 4);
        let distance = |a: &Column, b: &Column| {
            jensen_shannon_distance(&empirical_distribution(a), &empirical_distribution(b))
        };
        assert!(distance(&before, &same) < 0.01);
        assert!(distance(&before, &drifted) > 0.5);
    }

    #[test]
    fn empirical_distribution_shapes() {
        let c = col(vec![0, 0, 1, 3], 4);
        assert_eq!(empirical_distribution(&c), vec![0.5, 0.25, 0.0, 0.25]);
        let empty = col(vec![], 3);
        assert_eq!(empirical_distribution(&empty), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "aligned supports")]
    fn mismatched_supports_panic() {
        let (a, b) = (col(vec![0], 2), col(vec![0], 3));
        jensen_shannon_distance(&empirical_distribution(&a), &empirical_distribution(&b));
    }
}
