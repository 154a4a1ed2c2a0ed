//! Algorithms 1 and 3: SWOPE approximate top-k on empirical entropy and
//! on mutual information, the top-k rule they share, and EntropyRank's.

use swope_columnar::{AttrIndex, Dataset};
use swope_obs::QueryObserver;

use crate::driver::{run_plain, Round, Rule, Shape, Verdict};
use crate::measure::Candidate;
use crate::report::TopKResult;
use crate::{SwopeConfig, SwopeError};

/// Approximate top-k query on empirical entropy (paper Algorithm 1).
///
/// Returns the `k` attributes with the highest *estimated* empirical
/// entropy such that, with probability at least `1 − p_f` (Definition 5):
///
/// 1. each returned attribute's estimate is at least `(1−ε)` times its
///    exact empirical entropy, and
/// 2. the exact entropy of the i-th returned attribute is at least
///    `(1−ε)` times the true i-th largest entropy.
///
/// The sample doubles each iteration starting from the paper's `M0`; the
/// query stops as soon as
/// `(H̄(α'_k) − 2λ − b_max) / H̄(α'_k) ≥ 1 − ε`, where `α'_k` has the k-th
/// largest upper bound and `b_max` is the largest bias term among the
/// current top-k. Expected cost is
/// `O(min{hN, h·log(h·log N/p_f)·log²N / (ε²·H²(α*_k))})` (Theorem 2).
///
/// This is [`crate::run`] with [`Rule::TopK`] over empirical entropy and
/// the whole dataset, unobserved, on `config.threads` workers.
///
/// # Errors
///
/// Fails fast (before sampling) on an invalid `ε`/`p_f`, an empty dataset,
/// or `k` outside `1..=h`.
pub fn entropy_top_k(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    run_plain(dataset, Shape::entropy(Rule::TopK { k }), config).map(Into::into)
}

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
/// This is [`crate::run`] with [`Rule::TopK`] over mutual information
/// with `target` and the whole dataset, unobserved, on `config.threads`
/// workers.
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
    run_plain(dataset, Shape::mi(target, Rule::TopK { k }), config).map(Into::into)
}

/// The top-k rule: Alg. 1 lines 5–17, and Alg. 3 lines 7–19 with the §4.1
/// interval (`width_lambdas = 6`, `bias` = `b′`).
///
/// Stops when the k-th largest upper bound is relatively tight —
/// `(Ū_k − w·λ − b_max) / Ū_k ≥ 1 − ε`, where `w·λ + b_max` bounds the
/// width of every interval among the current top-k — or when the sample
/// is the whole population; the winners are then the top-k by upper
/// bound. Otherwise prunes every candidate that can no longer reach the
/// top-k.
pub(crate) fn decide<C: Candidate, O: QueryObserver>(
    k: usize,
    width_lambdas: f64,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
) -> Option<Verdict> {
    // R <- top-k candidates by upper bound (Alg. 1 lines 5-7).
    let by_upper = top_k_indices(states, k, |st| st.upper());
    let kth_upper = states[by_upper[k - 1]].upper();
    let b_max = by_upper.iter().map(|&i| states[i].bias()).fold(0.0f64, f64::max);

    // Stopping rule (Alg. 1 line 8, Alg. 3 line 10).
    let stop = kth_upper > 0.0
        && (kth_upper - width_lambdas * round.lambda - b_max) / kth_upper >= 1.0 - round.epsilon;
    if stop || round.m >= round.plan.n {
        return Some(Verdict {
            converged_early: stop && round.m < round.plan.n,
            winners: by_upper,
        });
    }

    // Prune candidates that cannot reach the top-k (lines 14-17).
    let by_lower = top_k_indices(states, k, |st| st.lower());
    prune_below(states[by_lower[k - 1]].lower(), states, round);
    None
}

/// The EntropyRank rule (Wang & Ding, KDD'19 — the paper's reference
/// \[32\]), over either interval: the *exact* top-k.
///
/// Stops when the k-th largest lower bound is no smaller than every
/// upper bound outside the k — the answer is then provably separated
/// from the rest, which takes `Ω(1/Δ²)` samples at score gap `Δ` — or
/// when the sample is the whole population; the winners are the top-k by
/// lower bound. Otherwise prunes exactly as [`decide`] does. `ε` plays
/// no part.
pub(crate) fn decide_exact<C: Candidate, O: QueryObserver>(
    k: usize,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
) -> Option<Verdict> {
    let mut by_lower = top_k_indices(states, states.len(), |st| st.lower());
    let kth_lower = states[by_lower[k - 1]].lower();
    let outside_upper =
        by_lower[k..].iter().map(|&i| states[i].upper()).fold(f64::NEG_INFINITY, f64::max);
    // With nothing outside the k (`−∞`) separation is immediate.
    let separated = kth_lower >= outside_upper;
    if separated || round.m >= round.plan.n {
        by_lower.truncate(k);
        return Some(Verdict {
            converged_early: separated && round.m < round.plan.n,
            winners: by_lower,
        });
    }
    prune_below(kth_lower, states, round);
    None
}

/// Retires every candidate whose upper bound is below the k-th largest
/// lower bound: it can no longer reach the top-k.
fn prune_below<C: Candidate, O: QueryObserver>(
    kth_lower: f64,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
) {
    states.retain(|st| {
        let keep = st.upper() >= kth_lower;
        if !keep {
            round.retire(st);
        }
        keep
    });
}

/// Indices of the `k` states with the largest `key`, sorted descending.
/// Ties break toward the lower attribute index for determinism.
fn top_k_indices<T>(states: &[T], k: usize, key: impl Fn(&T) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by(|&a, &b| {
        key(&states[b])
            .partial_cmp(&key(&states[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};

    /// A dataset whose entropy ranking is unambiguous: column `i` cycles
    /// through `supports[i]` values, giving entropy ~log2(supports[i]).
    fn cyclic_dataset(n: usize, supports: &[u32]) -> Dataset {
        let fields =
            supports.iter().enumerate().map(|(i, &u)| Field::new(format!("c{i}"), u)).collect();
        let columns = supports
            .iter()
            .map(|&u| {
                Column::new(
                    (0..n)
                        .map(|r| (r as u32).wrapping_mul(2654435761u32.wrapping_add(u)) % u)
                        .collect(),
                    u,
                )
                .unwrap()
            })
            .collect();
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    fn config() -> SwopeConfig {
        SwopeConfig { epsilon: 0.1, ..SwopeConfig::default() }
    }

    #[test]
    fn finds_highest_entropy_attribute() {
        let ds = cyclic_dataset(20_000, &[2, 64, 4, 8]);
        let r = entropy_top_k(&ds, 1, &config()).unwrap();
        assert_eq!(r.top.len(), 1);
        assert_eq!(r.top[0].name, "c1");
        assert!(r.top[0].estimate > 5.0, "estimate {}", r.top[0].estimate);
    }

    #[test]
    fn returns_k_attributes_in_upper_bound_order() {
        let ds = cyclic_dataset(20_000, &[2, 64, 4, 256, 16]);
        let r = entropy_top_k(&ds, 3, &config()).unwrap();
        let names: Vec<&str> = r.top.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["c3", "c1", "c4"]);
        for w in r.top.windows(2) {
            assert!(w[0].upper >= w[1].upper);
        }
    }

    #[test]
    fn k_equals_h_returns_everything() {
        let ds = cyclic_dataset(5_000, &[2, 8, 32]);
        let r = entropy_top_k(&ds, 3, &config()).unwrap();
        assert_eq!(r.top.len(), 3);
    }

    #[test]
    fn validation_errors() {
        let ds = cyclic_dataset(100, &[2, 4]);
        assert!(matches!(entropy_top_k(&ds, 0, &config()), Err(SwopeError::InvalidK { .. })));
        assert!(matches!(entropy_top_k(&ds, 3, &config()), Err(SwopeError::InvalidK { .. })));
        assert!(matches!(
            entropy_top_k(&ds, 1, &SwopeConfig::with_epsilon(2.0)),
            Err(SwopeError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let schema = Schema::new(vec![Field::new("a", 2)]);
        let ds = Dataset::new(schema, vec![Column::new(vec![], 2).unwrap()]).unwrap();
        assert!(matches!(entropy_top_k(&ds, 1, &config()), Err(SwopeError::EmptyDataset)));
    }

    #[test]
    fn bounds_bracket_estimates() {
        let ds = cyclic_dataset(10_000, &[4, 16, 64]);
        let r = entropy_top_k(&ds, 2, &config()).unwrap();
        for s in &r.top {
            assert!(s.lower <= s.estimate && s.estimate <= s.upper);
        }
    }

    #[test]
    fn converges_early_on_large_easy_input() {
        // Large N, high k-th entropy: the stopping rule should fire long
        // before a full scan.
        let ds = cyclic_dataset(200_000, &[64, 128, 2, 4]);
        let r = entropy_top_k(&ds, 2, &config()).unwrap();
        assert!(r.stats.converged_early, "stats: {:?}", r.stats);
        assert!(r.stats.sample_size < 200_000);
    }

    #[test]
    fn exact_fallback_on_tiny_input() {
        // Tiny N: the query degenerates to an exact scan and still returns
        // the correct ranking.
        let ds = cyclic_dataset(64, &[2, 16]);
        let r = entropy_top_k(&ds, 1, &config()).unwrap();
        assert_eq!(r.top[0].name, "c1");
        assert_eq!(r.stats.sample_size, 64);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = cyclic_dataset(50_000, &[2, 8, 32, 128]);
        let c = config().with_seed(99);
        let a = entropy_top_k(&ds, 2, &c).unwrap();
        let b = entropy_top_k(&ds, 2, &c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = cyclic_dataset(50_000, &[2, 8, 32, 128, 16, 64]);
        let seq = entropy_top_k(&ds, 3, &config().with_seed(5)).unwrap();
        let par = entropy_top_k(&ds, 3, &config().with_seed(5).with_threads(4)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn top_k_indices_orders_and_breaks_ties() {
        let vals = [3.0f64, 9.0, 9.0, 1.0];
        let idx = top_k_indices(&vals, 3, |&v| v);
        assert_eq!(idx, vec![1, 2, 0]);
    }

    /// Algorithm 3.
    mod mi {
        use super::*;

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
}
