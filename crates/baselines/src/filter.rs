//! EntropyFilter (Wang & Ding, KDD'19): exact filtering via adaptive
//! sampling.
//!
//! EntropyFilter decides each attribute only when its confidence interval
//! clears the threshold entirely: accept when `H̲(α) > η`, reject when
//! `H̄(α) < η`, otherwise keep sampling. An attribute whose score sits at
//! distance `δ` from `η` therefore needs `Ω(1/δ²)` samples — and an
//! attribute exactly *at* the threshold forces a full scan. SWOPE's
//! Algorithm 2 relaxes both sides by `ε·η`, which is the entire measured
//! difference in the filtering benchmarks: the rule is an arm of
//! `swope-core`'s one adaptive loop ([`Rule::FilterExact`]).

use swope_columnar::Dataset;
use swope_core::{FilterResult, Rule, Shape, SwopeConfig, SwopeError};

/// Exact filtering on empirical entropy by adaptive sampling
/// (EntropyFilter).
///
/// The `config`'s `epsilon` is ignored; with probability `1 − p_f` the
/// returned set is exactly `{α : H(α) ≥ η}`.
pub fn entropy_filter_exact_sampling(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    crate::run_whole(dataset, Shape::entropy(Rule::FilterExact { eta }), config).map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_answer;
    use swope_columnar::{Column, Field, Schema};

    fn cyclic_dataset(n: usize, supports: &[u32]) -> Dataset {
        let fields =
            supports.iter().enumerate().map(|(i, &u)| Field::new(format!("c{i}"), u)).collect();
        let columns = supports
            .iter()
            .map(|&u| Column::new((0..n).map(|r| r as u32 % u).collect(), u).unwrap())
            .collect();
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    #[test]
    fn matches_exact_answer() {
        let ds = cyclic_dataset(30_000, &[2, 8, 32, 128, 512]);
        let sampled = entropy_filter_exact_sampling(&ds, 4.0, &SwopeConfig::default()).unwrap();
        let exact = exact_answer(&ds, &Shape::entropy(Rule::Filter { eta: 4.0 })).unwrap();
        let mut a = sampled.attr_indices();
        let mut b = FilterResult::from(exact).attr_indices();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let ds = cyclic_dataset(30_000, &[2, 8, 32, 128, 512]);
        let c = SwopeConfig::default().with_seed(8);
        assert_eq!(
            entropy_filter_exact_sampling(&ds, 4.0, &c).unwrap(),
            entropy_filter_exact_sampling(&ds, 4.0, &c.clone().with_threads(4)).unwrap()
        );
    }

    #[test]
    fn converges_early_when_scores_are_far_from_threshold() {
        let ds = cyclic_dataset(200_000, &[2, 256]);
        let r = entropy_filter_exact_sampling(&ds, 4.0, &SwopeConfig::default()).unwrap();
        assert!(r.stats.converged_early, "{:?}", r.stats);
    }

    #[test]
    fn score_at_threshold_forces_full_scan() {
        // c0 has entropy exactly 2.0 bits = η: EntropyFilter cannot decide
        // it from bounds and must scan to N.
        let ds = cyclic_dataset(4_096, &[4, 64]);
        let r = entropy_filter_exact_sampling(&ds, 2.0, &SwopeConfig::default()).unwrap();
        assert_eq!(r.stats.sample_size, 4_096);
        // And the answer is still exact (2.0 >= 2.0 included).
        assert!(r.contains(0));
        assert!(r.contains(1));
    }

    #[test]
    fn threshold_above_everything_rejects_all() {
        let ds = cyclic_dataset(10_000, &[2, 8]);
        let r = entropy_filter_exact_sampling(&ds, 9.0, &SwopeConfig::default()).unwrap();
        assert!(r.accepted.is_empty());
    }

    #[test]
    fn validation() {
        let ds = cyclic_dataset(100, &[2]);
        assert!(entropy_filter_exact_sampling(&ds, -0.1, &SwopeConfig::default()).is_err());
        assert!(entropy_filter_exact_sampling(&ds, f64::NAN, &SwopeConfig::default()).is_err());
    }
}
