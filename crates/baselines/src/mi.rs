//! EntropyRank / EntropyFilter lifted to empirical mutual information,
//! the paper's §6.3 competitors.
//!
//! The entropy baselines' two rules over the §4.1 MI confidence
//! intervals and the `p'_f = p_f/(3·i_max·(h−1))` budget
//! ([`Rule::Rank`], [`Rule::FilterExact`] with [`Shape::mi`]).

use swope_columnar::{AttrIndex, Dataset};
use swope_core::{FilterResult, Rule, Shape, SwopeConfig, SwopeError, TopKResult};

/// Exact top-k on empirical MI against `target` by adaptive sampling
/// (EntropyRank-MI). `config.epsilon` is ignored.
pub fn mi_rank_top_k(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    crate::run_whole(dataset, Shape::mi(target, Rule::Rank { k }), config).map(Into::into)
}

/// Exact filtering on empirical MI against `target` by adaptive sampling
/// (EntropyFilter-MI). `config.epsilon` is ignored.
pub fn mi_filter_exact_sampling(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    crate::run_whole(dataset, Shape::mi(target, Rule::FilterExact { eta }), config).map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_answer;
    use swope_columnar::{Column, Field, Schema};

    fn correlated_dataset(n: usize) -> Dataset {
        let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let mut fields = vec![Field::new("target", 4)];
        let mut columns = vec![Column::new(target.clone(), 4).unwrap()];
        for (i, noise_mod) in [1u32, 3, 7].iter().enumerate() {
            let codes: Vec<u32> = (0..n)
                .map(|r| {
                    if (r as u32) % (noise_mod + 1) == 0 {
                        ((r as u32).wrapping_mul(2654435761) >> 13) % 4
                    } else {
                        target[r]
                    }
                })
                .collect();
            fields.push(Field::new(format!("c{i}"), 4));
            columns.push(Column::new(codes, 4).unwrap());
        }
        fields.push(Field::new("indep", 4));
        columns.push(
            Column::new(
                (0..n).map(|r| ((r as u32).wrapping_mul(2654435761) >> 13) % 4).collect(),
                4,
            )
            .unwrap(),
        );
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    #[test]
    fn rank_matches_exact_top_k() {
        let ds = correlated_dataset(30_000);
        let rank = mi_rank_top_k(&ds, 0, 2, &SwopeConfig::default()).unwrap();
        let exact = exact_answer(&ds, &Shape::mi(0, Rule::TopK { k: 2 })).unwrap();
        assert_eq!(rank.attr_indices(), TopKResult::from(exact).attr_indices());
    }

    #[test]
    fn filter_matches_exact_answer() {
        let ds = correlated_dataset(30_000);
        let sampled = mi_filter_exact_sampling(&ds, 0, 0.5, &SwopeConfig::default()).unwrap();
        let exact = exact_answer(&ds, &Shape::mi(0, Rule::Filter { eta: 0.5 })).unwrap();
        let mut a = sampled.attr_indices();
        let mut b = FilterResult::from(exact).attr_indices();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn target_excluded() {
        let ds = correlated_dataset(5_000);
        let r = mi_rank_top_k(&ds, 0, 4, &SwopeConfig::default()).unwrap();
        assert!(r.top.iter().all(|s| s.attr != 0));
        let f = mi_filter_exact_sampling(&ds, 0, 0.0, &SwopeConfig::default()).unwrap();
        assert!(!f.contains(0));
    }

    #[test]
    fn validation() {
        let ds = correlated_dataset(500);
        let cfg = SwopeConfig::default();
        assert!(mi_rank_top_k(&ds, 9, 1, &cfg).is_err());
        assert!(mi_rank_top_k(&ds, 0, 0, &cfg).is_err());
        assert!(mi_filter_exact_sampling(&ds, 9, 0.1, &cfg).is_err());
        assert!(mi_filter_exact_sampling(&ds, 0, -1.0, &cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = correlated_dataset(20_000);
        let c = SwopeConfig::default().with_seed(77);
        assert_eq!(mi_rank_top_k(&ds, 0, 2, &c).unwrap(), mi_rank_top_k(&ds, 0, 2, &c).unwrap());
        assert_eq!(
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap(),
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap()
        );
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let ds = correlated_dataset(20_000);
        let c = SwopeConfig::default().with_seed(77);
        let c4 = c.clone().with_threads(4);
        assert_eq!(mi_rank_top_k(&ds, 0, 2, &c).unwrap(), mi_rank_top_k(&ds, 0, 2, &c4).unwrap());
        assert_eq!(
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap(),
            mi_filter_exact_sampling(&ds, 0, 0.3, &c4).unwrap()
        );
    }
}
