//! Algorithm 2: SWOPE approximate filtering on empirical entropy.

use swope_columnar::Dataset;
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::report::{AttrScore, FilterResult, WorkKind};
use crate::scope::Population;
use crate::state::{EntropyState, GatherScratch};
use crate::topk::attr_score;
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
/// # Errors
///
/// Fails fast on an invalid `ε`/`p_f`, an empty dataset, or a negative or
/// non-finite `η`.
pub fn entropy_filter(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    entropy_filter_observed(dataset, eta, config, &mut NoopObserver)
}

/// [`entropy_filter`] with a [`QueryObserver`] attached.
///
/// Accept/reject decisions surface as `attr_retired` events; the result
/// is bitwise-identical to the unobserved call with the same config.
pub fn entropy_filter_observed<O: QueryObserver>(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<FilterResult, SwopeError> {
    entropy_filter_exec(dataset, eta, config, observer, &Executor::new(config.threads))
}

/// [`entropy_filter_observed`] with an injected [`Executor`].
///
/// See [`crate::exec`]: the executor supplies the (possibly shared)
/// worker pool, and results are bitwise identical for any executor.
pub fn entropy_filter_exec<O: QueryObserver>(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    config.validate()?;
    if !eta.is_finite() || eta < 0.0 {
        return Err(SwopeError::InvalidThreshold(eta));
    }
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    entropy_filter_run(dataset, eta, config, observer, exec, Population::unscoped(dataset, config))
}

/// The adaptive loop body, generic over the sampled population (see
/// [`crate::scope`]).
pub(crate) fn entropy_filter_run<O: QueryObserver>(
    dataset: &Dataset,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<FilterResult, SwopeError> {
    let h = dataset.num_attrs();
    let n = pop.n();
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_rows(dataset, n, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut states: Vec<EntropyState> =
        (0..h).map(|attr| EntropyState::new(dataset, attr)).collect();
    pop.attach_covered(&mut states);
    let mut scratch = GatherScratch::new(h);
    let mut accepted: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::EntropyFilter, h, n, config);
    it.setup(pop.setup_rows(), pop.setup_nanos());

    let mut converged_early = false;
    let mut m_target = schedule.m0();
    while !states.is_empty() {
        it.begin_iteration();
        let span = it.phase_start();
        let grown = pop.grow(m_target);
        it.phase_end(Phase::SampleGrow, span);
        let m = grown.sampled;
        let delta = grown.delta;
        let live = states.len();
        it.iteration(m, live, swope_estimate::bounds::lambda(m as u64, n as u64, p_prime));
        it.record_work(delta.len(), live, WorkKind::EntropyMarginals);

        let span = it.phase_start();
        exec.for_each2(&mut states, scratch.slots(live), |st, buf| {
            st.ingest_covered(grown.covered_k);
            st.ingest_staged(dataset.column(st.attr), delta, buf);
        });
        it.phase_end(Phase::Ingest, span);
        let span = it.phase_start();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        // Decide candidates (Alg. 2 lines 6-14).
        let span = it.phase_start();
        states.retain(|st| {
            let b = &st.bounds;
            if b.width() < 2.0 * epsilon * eta {
                // Tight enough: decide by the point estimate.
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                if b.point_estimate() >= eta {
                    accepted.push(attr_score(dataset, st, iter));
                }
                false
            } else if b.lower >= (1.0 - epsilon) * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                accepted.push(attr_score(dataset, st, iter));
                false
            } else if b.upper >= (1.0 + epsilon) * eta {
                true
            } else {
                it.attr_retired(st.attr, b.lower, b.upper);
                false
            }
        });

        if states.is_empty() {
            converged_early = m < n;
            it.phase_end(Phase::Decide, span);
            break;
        }
        if m >= n {
            // Bounds are exact (width 0); the only way candidates survive
            // here is εη = 0, where case 2 already accepted everything with
            // lower ≥ 0. Decide any stragglers by the exact value.
            for st in states.drain(..) {
                let iter = it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
                if st.sample_entropy() >= eta {
                    accepted.push(attr_score(dataset, &st, iter));
                }
            }
            it.phase_end(Phase::Decide, span);
            break;
        }
        it.phase_end(Phase::Decide, span);
        m_target = (m * 2).min(n);
    }

    accepted.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    Ok(FilterResult { accepted, stats: it.finish(converged_early) })
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
}
