//! Profile queries: error-bounded estimates for *every* attribute.
//!
//! The paper's queries are selective (top-k / threshold). A common
//! companion need — data-quality dashboards, feature stores — is an
//! estimate of every attribute's score with a uniform quality target.
//! The same machinery answers it: sample adaptively, and retire each
//! attribute as soon as its own interval is tight enough. Attributes
//! with wide supports retire later; near-constant ones retire almost
//! immediately, so the total cost adapts per column. This is an
//! extension beyond the paper, built from its Lemma 3/§4.1 intervals.

use swope_columnar::{AttrIndex, Dataset};
use swope_obs::QueryObserver;

use crate::driver::{run_plain, Round, Rule, Shape, Verdict};
use crate::measure::Candidate;
use crate::report::{AttrScore, QueryStats};
use crate::{SwopeConfig, SwopeError};

/// Result of a profile query: one score per attribute plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// Scores in attribute order (for MI profiles the target attribute is
    /// omitted).
    pub scores: Vec<AttrScore>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Estimates every attribute's empirical entropy to relative error `ε`
/// (with probability `1 − p_f`).
///
/// An attribute retires when its interval width is at most
/// `max(ε·Ĥ(α), floor)`; the absolute floor (default wisdom: ~0.05 bits)
/// keeps near-zero-entropy attributes from demanding unbounded relative
/// precision. On retirement `Ĥ ∈ [H̲, H̄]` with
/// `H̄ − H̲ ≤ max(ε·Ĥ, floor)`, so `|Ĥ − H| ≤ max(ε·Ĥ, floor)`.
///
/// This is [`crate::run`] with [`Rule::Profile`] over empirical entropy
/// and the whole dataset, unobserved, on `config.threads` workers.
pub fn entropy_profile(
    dataset: &Dataset,
    floor: f64,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    run_plain(dataset, Shape::entropy(Rule::Profile { floor }), config).map(Into::into)
}

/// Estimates every candidate attribute's empirical mutual information
/// with `target` to relative error `ε` (with probability `1 − p_f`),
/// using the same retirement rule as [`entropy_profile`]
/// ([`Rule::Profile`]).
pub fn mi_profile(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    run_plain(dataset, Shape::mi(target, Rule::Profile { floor }), config).map(Into::into)
}

/// The profile rule: a candidate retires, scored, once its interval is
/// at most `max(ε·point estimate, floor)` wide — or the sample is the
/// whole population, where every interval has collapsed onto the exact
/// value. The query is over when none is left.
pub(crate) fn decide<C: Candidate, O: QueryObserver>(
    floor: f64,
    states: &mut Vec<C>,
    round: &mut Round<'_, O>,
    accept: &mut impl FnMut(&C, usize),
) -> Option<Verdict> {
    let exact_now = round.m >= round.plan.n;
    states.retain(|st| {
        let budget = (round.epsilon * st.point_estimate()).max(floor);
        if st.width() <= budget || exact_now {
            let iteration = round.retire(st);
            accept(st, iteration);
            false
        } else {
            true
        }
    });
    if states.is_empty() {
        return Verdict::done(round.m < round.plan.n);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};
    use swope_estimate::entropy::column_entropy;
    use swope_estimate::joint::mutual_information;

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
    fn entropy_profile_meets_error_budget() {
        let ds = cyclic_dataset(60_000, &[2, 8, 32, 128, 512]);
        let cfg = SwopeConfig::with_epsilon(0.1);
        let floor = 0.05;
        let res = entropy_profile(&ds, floor, &cfg).unwrap();
        assert_eq!(res.scores.len(), 5);
        for s in &res.scores {
            let exact = column_entropy(ds.column(s.attr));
            let budget = (0.1 * s.estimate).max(floor);
            assert!(
                (s.estimate - exact).abs() <= budget + 1e-9,
                "attr {}: estimate {} vs exact {exact} (budget {budget})",
                s.attr,
                s.estimate
            );
        }
    }

    #[test]
    fn entropy_profile_scores_in_attr_order() {
        let ds = cyclic_dataset(5_000, &[16, 2, 64]);
        let res = entropy_profile(&ds, 0.05, &SwopeConfig::default()).unwrap();
        let attrs: Vec<usize> = res.scores.iter().map(|s| s.attr).collect();
        assert_eq!(attrs, vec![0, 1, 2]);
    }

    #[test]
    fn entropy_profile_low_entropy_attrs_retire_cheaply() {
        // One constant-ish and one wide column: the constant one must not
        // force extra sampling (it retires via the floor).
        let ds = cyclic_dataset(100_000, &[2, 512]);
        let res = entropy_profile(&ds, 0.1, &SwopeConfig::with_epsilon(0.1)).unwrap();
        assert!(res.scores[0].estimate < 1.5);
        assert!(res.scores[1].estimate > 8.0);
    }

    #[test]
    fn mi_profile_meets_error_budget() {
        // Candidate 1 is a function of the target; candidate 2 cycles
        // independently-ish.
        let n = 40_000;
        let fields = vec![Field::new("t", 8), Field::new("copy", 8), Field::new("other", 4)];
        let cols = vec![
            Column::new((0..n).map(|r| r as u32 % 8).collect(), 8).unwrap(),
            Column::new((0..n).map(|r| (r as u32 % 8) / 2).collect(), 8).unwrap(),
            Column::new(
                (0..n).map(|r| ((r as u32).wrapping_mul(2654435761) >> 13) % 4).collect(),
                4,
            )
            .unwrap(),
        ];
        let ds = Dataset::new(Schema::new(fields), cols).unwrap();
        let cfg = SwopeConfig::with_epsilon(0.5);
        let floor = 0.1;
        let res = mi_profile(&ds, 0, floor, &cfg).unwrap();
        assert_eq!(res.scores.len(), 2);
        for s in &res.scores {
            let exact = mutual_information(ds.column(0), ds.column(s.attr));
            let budget = (0.5 * s.estimate).max(floor);
            assert!(
                (s.estimate - exact).abs() <= budget + 1e-9,
                "attr {}: {} vs {exact}",
                s.attr,
                s.estimate
            );
        }
    }

    #[test]
    fn validation() {
        let ds = cyclic_dataset(100, &[2, 4]);
        let cfg = SwopeConfig::default();
        assert!(entropy_profile(&ds, -0.1, &cfg).is_err());
        assert!(mi_profile(&ds, 9, 0.1, &cfg).is_err());
    }

    #[test]
    fn profile_deterministic_and_thread_invariant() {
        let ds = cyclic_dataset(30_000, &[2, 16, 128]);
        let cfg = SwopeConfig::with_epsilon(0.2).with_seed(4);
        let a = entropy_profile(&ds, 0.05, &cfg).unwrap();
        let b = entropy_profile(&ds, 0.05, &cfg.clone().with_threads(4)).unwrap();
        assert_eq!(a, b);
    }
}
