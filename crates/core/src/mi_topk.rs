//! Algorithm 3: SWOPE approximate top-k on empirical mutual information.

use swope_columnar::{AttrIndex, Dataset};

use crate::driver::{run_plain, Shape};
use crate::report::TopKResult;
use crate::{SwopeConfig, SwopeError};

/// Approximate top-k query on empirical mutual information against a
/// target attribute (paper Algorithm 3).
///
/// Returns the `k` candidate attributes with the highest estimated
/// `I(α_t, α)` satisfying Definition 5 with probability `1 − p_f`.
///
/// The bound machinery mirrors the entropy query, with three differences
/// from Algorithm 1 (§4.1):
///
/// * each candidate's interval combines bounds on `H(α_t)`, `H(α)` and the
///   joint `H(α_t, α)`, so the failure budget divides by 3:
///   `p'_f = p_f / (3·i_max·(h−1))`;
/// * the joint support is bounded by `ū = u_t·u_α` (tracking exact pair
///   supports for all pairs in advance is impractical);
/// * the stopping rule uses the interval width `6λ + b'` with
///   `b'(α) = b(α_t) + b(α) + b(α_t, α)`:
///   `(Ī(α_t, α'_k) − 6λ − b'_max) / Ī(α_t, α'_k) ≥ 1 − ε`.
///
/// Expected cost is
/// `O(min{hN, h·log(h·log N/p_f)·log²N / (ε²·I²(α_t, α*_k))})` (Theorem 5).
///
/// # Example
///
/// ```
/// use swope_columnar::{Column, Dataset, Field, Schema};
/// use swope_core::{mi_top_k, SwopeConfig};
///
/// // "copy" mirrors "label"; "noise" is unrelated.
/// let n = 4000;
/// let label: Vec<u32> = (0..n).map(|r| r % 4).collect();
/// let ds = Dataset::new(
///     Schema::new(vec![
///         Field::new("label", 4),
///         Field::new("copy", 4),
///         Field::new("noise", 4),
///     ]),
///     vec![
///         Column::new(label.clone(), 4).unwrap(),
///         Column::new(label, 4).unwrap(),
///         Column::new((0..n).map(|r| (r.wrapping_mul(2654435761) >> 13) % 4).collect(), 4).unwrap(),
///     ],
/// )
/// .unwrap();
///
/// let result = mi_top_k(&ds, 0, 1, &SwopeConfig::with_epsilon(0.5)).unwrap();
/// assert_eq!(result.top[0].name, "copy");
/// ```
///
/// This is [`crate::run`] with [`Shape::MiTopK`] over the whole dataset,
/// unobserved, on `config.threads` workers.
///
/// # Errors
///
/// Fails fast on invalid `ε`/`p_f`, an empty dataset, a target index out
/// of range, no candidates (`h < 2`), or `k` outside `1..=h−1`.
pub fn mi_top_k(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    run_plain(dataset, Shape::MiTopK { target, k }, config).map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};

    /// Target column cycles 0..4; candidate `i` copies the target through a
    /// noise level that increases with `i`, so MI ranking is c0 > c1 > ...
    /// plus one independent column at the end.
    fn correlated_dataset(n: usize) -> Dataset {
        let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let mut fields = vec![Field::new("target", 4)];
        let mut columns = vec![Column::new(target.clone(), 4).unwrap()];
        for (i, noise_mod) in [1u32, 3, 7].iter().enumerate() {
            // Copy the target except every noise_mod+1-th row is scrambled:
            // smaller noise_mod => more scrambling => lower MI.
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
        // Independent column.
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

    fn config() -> SwopeConfig {
        SwopeConfig { epsilon: 0.5, ..SwopeConfig::default() }
    }

    #[test]
    fn finds_most_informative_candidate() {
        let ds = correlated_dataset(30_000);
        let r = mi_top_k(&ds, 0, 1, &config()).unwrap();
        // c2 (least scrambled) has the highest MI with the target.
        assert_eq!(r.top[0].name, "c2");
    }

    #[test]
    fn ranking_matches_noise_levels() {
        let ds = correlated_dataset(30_000);
        let r = mi_top_k(&ds, 0, 3, &config()).unwrap();
        let names: Vec<&str> = r.top.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["c2", "c1", "c0"]);
    }

    #[test]
    fn target_never_in_results() {
        let ds = correlated_dataset(10_000);
        let r = mi_top_k(&ds, 0, 4, &config()).unwrap();
        assert!(r.top.iter().all(|s| s.attr != 0));
        assert_eq!(r.top.len(), 4);
    }

    #[test]
    fn validation_errors() {
        let ds = correlated_dataset(1_000);
        assert!(matches!(
            mi_top_k(&ds, 99, 1, &config()),
            Err(SwopeError::TargetOutOfRange { .. })
        ));
        assert!(matches!(mi_top_k(&ds, 0, 0, &config()), Err(SwopeError::InvalidK { .. })));
        assert!(matches!(mi_top_k(&ds, 0, 5, &config()), Err(SwopeError::InvalidK { .. })));
        // Single-attribute dataset has no candidates.
        let schema = Schema::new(vec![Field::new("only", 2)]);
        let ds1 = Dataset::new(schema, vec![Column::new(vec![0, 1], 2).unwrap()]).unwrap();
        assert!(matches!(mi_top_k(&ds1, 0, 1, &config()), Err(SwopeError::NoCandidates)));
    }

    #[test]
    fn bounds_bracket_estimates() {
        let ds = correlated_dataset(20_000);
        let r = mi_top_k(&ds, 0, 2, &config()).unwrap();
        for s in &r.top {
            assert!(s.lower <= s.estimate && s.estimate <= s.upper);
            assert!(s.lower >= 0.0, "MI lower bound must be nonnegative");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = correlated_dataset(20_000);
        let c = config().with_seed(11);
        assert_eq!(mi_top_k(&ds, 0, 2, &c).unwrap(), mi_top_k(&ds, 0, 2, &c).unwrap());
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = correlated_dataset(20_000);
        let seq = mi_top_k(&ds, 0, 2, &config().with_seed(5)).unwrap();
        let par = mi_top_k(&ds, 0, 2, &config().with_seed(5).with_threads(4)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn tiny_dataset_exact_path() {
        let ds = correlated_dataset(64);
        let r = mi_top_k(&ds, 0, 1, &config()).unwrap();
        assert_eq!(r.stats.sample_size, 64);
        assert_eq!(r.top[0].name, "c2");
    }

    #[test]
    fn nontrivial_target_index() {
        let ds = correlated_dataset(10_000);
        // Use c2 (attr 3) as target; the original target column copies it
        // closely, so it should rank first.
        let r = mi_top_k(&ds, 3, 1, &config()).unwrap();
        assert_eq!(r.top[0].name, "target");
    }
}
