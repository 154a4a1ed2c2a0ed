//! Algorithms 2 and 4: SWOPE approximate filtering on empirical entropy
//! and on mutual information, the filter rule they share, and
//! EntropyFilter's.

use swope_columnar::{AttrIndex, Dataset};
use swope_obs::QueryObserver;

use crate::driver::{run_plain, Round, Rule, Shape, Verdict};
use crate::measure::Candidate;
use crate::report::FilterResult;
use crate::{SwopeConfig, SwopeError};

/// Approximate filtering query on empirical entropy (paper Algorithm 2).
///
/// Returns a set of attributes such that, with probability at least
/// `1 − p_f` (Definition 6):
///
/// * every attribute with `H(α) ≥ (1+ε)·η` is returned,
/// * no attribute with `H(α) < (1−ε)·η` is returned,
/// * attributes in the `[(1−ε)η, (1+ε)η)` band may go either way.
///
/// Each doubling iteration decides candidates by three cases: the interval
/// is narrower than `2εη` (decide by the point estimate `Ĥ ≷ η`), the
/// lower bound already clears `(1−ε)η` (accept), or the upper bound is
/// below `(1+ε)η` (reject). Expected cost is
/// `O(min{hN, h·log(h·log N/p_f)·log²N / (ε²·η²)})` (Theorem 4) —
/// depending on the user's threshold `η`, not on how close attribute
/// scores happen to sit to it.
///
/// This is [`crate::run`] with [`Rule::Filter`] over empirical entropy
/// and the whole dataset, unobserved, on `config.threads` workers.
///
/// # Errors
///
/// Fails fast on an invalid `ε`/`p_f`, an empty dataset, or a negative or
/// non-finite `η`.
pub fn entropy_filter(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    run_plain(dataset, Shape::entropy(Rule::Filter { eta }), config).map(Into::into)
}

/// Approximate filtering query on empirical mutual information against a
/// target attribute (paper Algorithm 4).
///
/// Returns candidate attributes whose `I(α_t, α)` is (approximately) at
/// least `η`, satisfying Definition 6 with probability `1 − p_f`. The
/// steps are Algorithm 2's with entropy intervals replaced by the §4.1 MI
/// intervals and the failure budget set to `p'_f = p_f/(3·i_max·(h−1))`:
///
/// * `Ī − I̲ < 2εη` → decide by the point estimate `Î ≷ η`;
/// * `I̲ ≥ (1−ε)η` → accept;
/// * `Ī < (1+ε)η` → reject.
///
/// Expected cost is `O(min{hN, h·log(h·log N/p_f)·log²N / (ε²·η²)})`
/// (Theorem 6).
///
/// This is [`crate::run`] with [`Rule::Filter`] over mutual information
/// with `target` and the whole dataset, unobserved, on `config.threads`
/// workers.
///
/// # Errors
///
/// Fails fast on invalid `ε`/`p_f`/`η`, an empty dataset, a target index
/// out of range, or no candidate attributes.
pub fn mi_filter(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    run_plain(dataset, Shape::mi(target, Rule::Filter { eta }), config).map(Into::into)
}

/// The filter rule: Alg. 2 lines 6–14, and Alg. 4 over the §4.1 interval.
///
/// Every live candidate is decided four ways; the query is over when
/// none is left. `exact` is the measure's exact score, consulted only
/// once the sample is the whole population.
pub(crate) fn decide<C: Candidate, O: QueryObserver>(
    eta: f64,
    exact: impl Fn(&C) -> f64,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
    accept: &mut impl FnMut(&C, usize),
) -> Option<Verdict> {
    let epsilon = round.epsilon;
    states.retain(|st| {
        if st.width() < 2.0 * epsilon * eta {
            // Tight enough: decide by the point estimate.
            let iteration = round.retire(st);
            if st.point_estimate() >= eta {
                accept(st, iteration);
            }
            false
        } else if st.lower() >= (1.0 - epsilon) * eta {
            let iteration = round.retire(st);
            accept(st, iteration);
            false
        } else if st.upper() >= (1.0 + epsilon) * eta {
            true
        } else {
            round.retire(st);
            false
        }
    });

    if states.is_empty() {
        return Verdict::done(round.m < round.plan.n);
    }
    if round.m >= round.plan.n {
        // Bounds are exact (width 0); the only way candidates survive
        // here is εη = 0, where case 2 already accepted everything with
        // lower ≥ 0. Decide any stragglers by the exact value.
        for st in states.drain(..) {
            let iteration = round.retire(&st);
            if exact(&st) >= eta {
                accept(&st, iteration);
            }
        }
        return Verdict::done(false);
    }
    None
}

/// The EntropyFilter rule (Wang & Ding, KDD'19 — the paper's reference
/// \[32\]), over either interval: *exactly* the candidates at or above
/// `η`.
///
/// A candidate is accepted once its lower bound exceeds `η`, rejected
/// once its upper bound falls below it, and otherwise waits — `Ω(1/δ²)`
/// samples at distance `δ` from the threshold, the whole population for
/// a score on it, where the point estimate of the collapsed interval
/// decides. [`decide`] relaxes both sides by `ε·η`; that is the entire
/// difference.
pub(crate) fn decide_exact<C: Candidate, O: QueryObserver>(
    eta: f64,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
    accept: &mut impl FnMut(&C, usize),
) -> Option<Verdict> {
    let exact_now = round.m >= round.plan.n;
    states.retain(|st| {
        let accepted = st.lower() > eta || (exact_now && st.point_estimate() >= eta);
        if !(accepted || exact_now || st.upper() < eta) {
            return true;
        }
        let iteration = round.retire(st);
        if accepted {
            accept(st, iteration);
        }
        false
    });
    if states.is_empty() {
        Verdict::done(round.m < round.plan.n)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};
    use swope_estimate::entropy::column_entropy;

    fn cyclic_dataset(n: usize, supports: &[u32]) -> Dataset {
        let fields =
            supports.iter().enumerate().map(|(i, &u)| Field::new(format!("c{i}"), u)).collect();
        let columns = supports
            .iter()
            .map(|&u| Column::new((0..n).map(|r| (r as u32 * 7 + u) % u).collect(), u).unwrap())
            .collect();
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    fn config() -> SwopeConfig {
        SwopeConfig { epsilon: 0.05, ..SwopeConfig::default() }
    }

    #[test]
    fn accepts_high_rejects_low() {
        // Entropies ~ log2(u): 1, 3, 5, 7 bits. Threshold 4: accept c2, c3.
        let ds = cyclic_dataset(50_000, &[2, 8, 32, 128]);
        let r = entropy_filter(&ds, 4.0, &config()).unwrap();
        let mut names: Vec<&str> = r.accepted.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["c2", "c3"]);
    }

    #[test]
    fn threshold_zero_accepts_everything() {
        let ds = cyclic_dataset(1_000, &[2, 8]);
        let r = entropy_filter(&ds, 0.0, &config()).unwrap();
        assert_eq!(r.accepted.len(), 2);
    }

    #[test]
    fn threshold_above_all_scores_accepts_nothing() {
        let ds = cyclic_dataset(10_000, &[2, 8, 32]);
        let r = entropy_filter(&ds, 20.0, &config()).unwrap();
        assert!(r.accepted.is_empty());
        // Rejecting by upper bound should happen fast.
        assert!(r.stats.converged_early);
    }

    #[test]
    fn definition6_compliance_against_exact_scores() {
        let ds = cyclic_dataset(20_000, &[2, 4, 8, 16, 32, 64, 128]);
        let eta = 3.5;
        let eps = 0.05;
        let cfg = SwopeConfig { epsilon: eps, ..SwopeConfig::default() };
        let r = entropy_filter(&ds, eta, &cfg).unwrap();
        for attr in 0..ds.num_attrs() {
            let exact = column_entropy(ds.column(attr));
            let included = r.contains(attr);
            if exact >= (1.0 + eps) * eta {
                assert!(included, "attr {attr} (H={exact}) must be accepted");
            }
            if exact < (1.0 - eps) * eta {
                assert!(!included, "attr {attr} (H={exact}) must be rejected");
            }
        }
    }

    #[test]
    fn results_sorted_by_estimate_descending() {
        let ds = cyclic_dataset(20_000, &[64, 8, 128, 32]);
        let r = entropy_filter(&ds, 2.0, &config()).unwrap();
        for w in r.accepted.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
    }

    #[test]
    fn invalid_threshold_rejected() {
        let ds = cyclic_dataset(100, &[2]);
        assert!(matches!(
            entropy_filter(&ds, -1.0, &config()),
            Err(SwopeError::InvalidThreshold(_))
        ));
        assert!(matches!(
            entropy_filter(&ds, f64::NAN, &config()),
            Err(SwopeError::InvalidThreshold(_))
        ));
        assert!(matches!(
            entropy_filter(&ds, f64::INFINITY, &config()),
            Err(SwopeError::InvalidThreshold(_))
        ));
    }

    #[test]
    fn empty_dataset_rejected() {
        let schema = Schema::new(vec![Field::new("a", 2)]);
        let ds = Dataset::new(schema, vec![Column::new(vec![], 2).unwrap()]).unwrap();
        assert!(matches!(entropy_filter(&ds, 1.0, &config()), Err(SwopeError::EmptyDataset)));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = cyclic_dataset(30_000, &[2, 8, 32, 128]);
        let c = config().with_seed(42);
        assert_eq!(entropy_filter(&ds, 3.0, &c).unwrap(), entropy_filter(&ds, 3.0, &c).unwrap());
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = cyclic_dataset(30_000, &[2, 8, 32, 128, 16]);
        let seq = entropy_filter(&ds, 3.0, &config().with_seed(5)).unwrap();
        let par = entropy_filter(&ds, 3.0, &config().with_seed(5).with_threads(4)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn tiny_dataset_exact_path() {
        let ds = cyclic_dataset(16, &[2, 8]);
        let r = entropy_filter(&ds, 1.5, &config()).unwrap();
        // c1 has entropy 3 bits on 16 cyclic rows; c0 has 1 bit.
        assert_eq!(r.attr_indices(), vec![1]);
    }

    /// Algorithm 4.
    mod mi {
        use super::*;
        use swope_estimate::joint::mutual_information;

        /// Target cycles 0..4; candidates copy it with varying scrambling plus
        /// one independent column (MI ≈ 0).
        fn correlated_dataset(n: usize) -> Dataset {
            let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
            let mut fields = vec![Field::new("target", 4)];
            let mut columns = vec![Column::new(target.clone(), 4).unwrap()];
            for (i, noise_mod) in [1u32, 7].iter().enumerate() {
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

        fn config() -> SwopeConfig {
            SwopeConfig { epsilon: 0.5, ..SwopeConfig::default() }
        }

        #[test]
        fn accepts_informative_rejects_independent() {
            let ds = correlated_dataset(30_000);
            // c1 (lightly scrambled) has MI ~1.6 bits; indep has ~0.
            let r = mi_filter(&ds, 0, 0.5, &config()).unwrap();
            assert!(r.accepted.iter().any(|s| s.name == "c1"));
            assert!(r.accepted.iter().all(|s| s.name != "indep"));
        }

        #[test]
        fn definition6_compliance_against_exact_scores() {
            let ds = correlated_dataset(20_000);
            let eta = 0.3;
            let eps = 0.5;
            let cfg = SwopeConfig { epsilon: eps, ..SwopeConfig::default() };
            let r = mi_filter(&ds, 0, eta, &cfg).unwrap();
            for attr in 1..ds.num_attrs() {
                let exact = mutual_information(ds.column(0), ds.column(attr));
                if exact >= (1.0 + eps) * eta {
                    assert!(r.contains(attr), "attr {attr} (I={exact}) must be accepted");
                }
                if exact < (1.0 - eps) * eta {
                    assert!(!r.contains(attr), "attr {attr} (I={exact}) must be rejected");
                }
            }
        }

        #[test]
        fn threshold_zero_accepts_all_candidates() {
            let ds = correlated_dataset(2_000);
            let r = mi_filter(&ds, 0, 0.0, &config()).unwrap();
            assert_eq!(r.accepted.len(), ds.num_attrs() - 1);
        }

        #[test]
        fn huge_threshold_accepts_nothing() {
            let ds = correlated_dataset(10_000);
            let r = mi_filter(&ds, 0, 10.0, &config()).unwrap();
            assert!(r.accepted.is_empty());
        }

        #[test]
        fn validation_errors() {
            let ds = correlated_dataset(500);
            assert!(matches!(
                mi_filter(&ds, 42, 0.3, &config()),
                Err(SwopeError::TargetOutOfRange { .. })
            ));
            assert!(matches!(
                mi_filter(&ds, 0, -0.5, &config()),
                Err(SwopeError::InvalidThreshold(_))
            ));
        }

        #[test]
        fn deterministic_and_parallel_consistent() {
            let ds = correlated_dataset(20_000);
            let c = config().with_seed(3);
            let a = mi_filter(&ds, 0, 0.3, &c).unwrap();
            let b = mi_filter(&ds, 0, 0.3, &c.clone().with_threads(4)).unwrap();
            assert_eq!(a, b);
        }

        #[test]
        fn target_excluded_from_answer() {
            let ds = correlated_dataset(5_000);
            let r = mi_filter(&ds, 0, 0.0, &config()).unwrap();
            assert!(!r.contains(0));
        }
    }
}
