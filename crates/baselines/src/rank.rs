//! EntropyRank (Wang & Ding, KDD'19): exact top-k via adaptive sampling.
//!
//! EntropyRank uses the same sampling-without-replacement bounds as SWOPE
//! but insists on the *exact* top-k answer: it keeps sampling until the
//! k-th largest lower bound is no smaller than the (k+1)-th largest upper
//! bound, so the top-k set is provably separated from the rest. When the
//! gap `Δ` between the k-th and (k+1)-th scores is small, that separation
//! requires `Ω(1/Δ²)` samples — the cost SWOPE's approximate stopping rule
//! avoids.
//!
//! The rule is an arm of `swope-core`'s one adaptive loop
//! ([`Rule::Rank`]). (The original paper samples in fixed-size
//! batches; the loop's geometric schedule only changes constants and
//! matches the complexity the SWOPE paper quotes for it.)

use swope_columnar::Dataset;
use swope_core::{Rule, Shape, SwopeConfig, SwopeError, TopKResult};

/// Exact top-k on empirical entropy by adaptive sampling (EntropyRank).
///
/// The `config`'s `epsilon` is ignored (the answer is exact); its
/// failure probability, seed, `M0` override, and thread
/// count are honoured. With probability `1 − p_f` the returned set *is*
/// the exact top-k.
pub fn entropy_rank_top_k(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    crate::run_whole(dataset, Shape::entropy(Rule::Rank { k }), config).map(Into::into)
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
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 256, 16]);
        let rank = entropy_rank_top_k(&ds, 3, &SwopeConfig::default()).unwrap();
        let exact = exact_answer(&ds, &Shape::entropy(Rule::TopK { k: 3 })).unwrap();
        assert_eq!(rank.attr_indices(), TopKResult::from(exact).attr_indices());
    }

    #[test]
    fn converges_early_when_gap_is_large() {
        let ds = cyclic_dataset(200_000, &[2, 256, 4]);
        let r = entropy_rank_top_k(&ds, 1, &SwopeConfig::default()).unwrap();
        assert!(r.stats.converged_early, "{:?}", r.stats);
    }

    #[test]
    fn needs_more_samples_than_swope_when_gap_is_small() {
        // Two near-tied attributes below the top one: SWOPE can stop early,
        // EntropyRank must separate them.
        let n = 100_000;
        let schema =
            Schema::new(vec![Field::new("a", 64), Field::new("b", 64), Field::new("c", 63)]);
        let cols = vec![
            Column::new((0..n).map(|r| r as u32 % 64).collect(), 64).unwrap(),
            Column::new((0..n).map(|r| (r as u32).wrapping_mul(2654435761) >> 26).collect(), 64)
                .unwrap(),
            Column::new((0..n).map(|r| r as u32 % 63).collect(), 63).unwrap(),
        ];
        let ds = Dataset::new(schema, cols).unwrap();
        let cfg = SwopeConfig::default();
        let rank = entropy_rank_top_k(&ds, 2, &cfg).unwrap();
        let swope = swope_core::entropy_top_k(&ds, 2, &cfg).unwrap();
        assert!(
            rank.stats.rows_scanned >= swope.stats.rows_scanned,
            "rank {:?} vs swope {:?}",
            rank.stats,
            swope.stats
        );
    }

    #[test]
    fn k_equals_h_short_circuits() {
        let ds = cyclic_dataset(10_000, &[2, 8]);
        let r = entropy_rank_top_k(&ds, 2, &SwopeConfig::default()).unwrap();
        assert_eq!(r.top.len(), 2);
        // With all attributes in the answer, separation is immediate.
        assert_eq!(r.stats.iterations, 1);
    }

    #[test]
    fn validation() {
        let ds = cyclic_dataset(100, &[2, 4]);
        assert!(entropy_rank_top_k(&ds, 0, &SwopeConfig::default()).is_err());
        assert!(entropy_rank_top_k(&ds, 3, &SwopeConfig::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 16]);
        let c = SwopeConfig::default().with_seed(8);
        assert_eq!(
            entropy_rank_top_k(&ds, 2, &c).unwrap(),
            entropy_rank_top_k(&ds, 2, &c).unwrap()
        );
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 256, 16]);
        let c = SwopeConfig::default().with_seed(8);
        assert_eq!(
            entropy_rank_top_k(&ds, 2, &c).unwrap(),
            entropy_rank_top_k(&ds, 2, &c.clone().with_threads(4)).unwrap()
        );
    }
}
