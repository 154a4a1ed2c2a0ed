//! Algorithm 1: SWOPE approximate top-k on empirical entropy.

use swope_columnar::Dataset;
use swope_estimate::bounds::lambda;
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::report::{AttrScore, TopKResult, WorkKind};
use crate::scope::Population;
use crate::state::{EntropyState, GatherScratch};
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
/// # Errors
///
/// Fails fast (before sampling) on an invalid `ε`/`p_f`, an empty dataset,
/// or `k` outside `1..=h`.
pub fn entropy_top_k(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    entropy_top_k_observed(dataset, k, config, &mut NoopObserver)
}

/// [`entropy_top_k`] with a [`QueryObserver`] attached.
///
/// The observer receives the query lifecycle (`query_start`, one
/// `iteration` + phase spans per doubling round, one `attr_retired` per
/// candidate, `query_end`); the returned result is bitwise-identical to
/// the unobserved call with the same config.
pub fn entropy_top_k_observed<O: QueryObserver>(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<TopKResult, SwopeError> {
    entropy_top_k_exec(dataset, k, config, observer, &Executor::new(config.threads))
}

/// [`entropy_top_k_observed`] with an injected [`Executor`].
///
/// The executor supplies the worker pool for per-candidate fan-outs;
/// `swope-server` passes a process-wide pool here so HTTP requests don't
/// pay per-query thread spawns. Results are bitwise identical for any
/// executor (see [`crate::exec`] for the determinism argument).
pub fn entropy_top_k_exec<O: QueryObserver>(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    config.validate()?;
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if k == 0 || k > h {
        return Err(SwopeError::InvalidK { k, candidates: h });
    }
    entropy_top_k_run(dataset, k, config, observer, exec, Population::unscoped(dataset, config))
}

/// The adaptive loop body, generic over the sampled population. Unscoped
/// queries pass [`Population::unscoped`] (exactly the pre-scope
/// behavior); scoped queries pass a range-, predicate-, or
/// hybrid-sampled population with `n = n_s`.
pub(crate) fn entropy_top_k_run<O: QueryObserver>(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<TopKResult, SwopeError> {
    let h = dataset.num_attrs();
    let n = pop.n();
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_rows(dataset, n, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    // Union-bound budget: bounds are applied to at most h attributes in
    // each of at most i_max iterations (Theorem 1's proof).
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut states: Vec<EntropyState> =
        (0..h).map(|attr| EntropyState::new(dataset, attr)).collect();
    pop.attach_covered(&mut states);
    let mut scratch = GatherScratch::new(h);
    let mut it = Instrumented::start(observer, QueryKind::EntropyTopK, h, n, config);
    it.setup(pop.setup_rows(), pop.setup_nanos());

    let mut m_target = schedule.m0();
    loop {
        it.begin_iteration();
        let span = it.phase_start();
        let grown = pop.grow(m_target);
        it.phase_end(Phase::SampleGrow, span);
        let m = grown.sampled;
        let delta = grown.delta;
        let lam = lambda(m as u64, n as u64, p_prime);
        let live = states.len();
        it.iteration(m, live, lam);
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

        let span = it.phase_start();
        // R <- top-k attributes by upper bound (Alg. 1 lines 5-7).
        let by_upper = top_k_indices(&states, k, |st| st.bounds.upper);
        let kth_upper = states[by_upper[k - 1]].bounds.upper;
        let b_max = by_upper.iter().map(|&i| states[i].bounds.bias).fold(0.0f64, f64::max);

        // Stopping rule (Alg. 1 line 8).
        let stop = kth_upper > 0.0 && (kth_upper - 2.0 * lam - b_max) / kth_upper >= 1.0 - epsilon;
        if stop || m >= n {
            it.phase_end(Phase::Decide, span);
            // Everything still alive leaves the race now, returned or not.
            for st in &states {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            let retired_iteration = it.current_iteration();
            let top = by_upper
                .iter()
                .map(|&i| attr_score(dataset, &states[i], retired_iteration))
                .collect();
            let converged_early = stop && m < n;
            return Ok(TopKResult { top, stats: it.finish(converged_early) });
        }

        // Prune candidates that cannot reach the top-k (lines 14-17):
        // drop α with H̄(α) below the k-th largest lower bound.
        let by_lower = top_k_indices(&states, k, |st| st.bounds.lower);
        let kth_lower = states[by_lower[k - 1]].bounds.lower;
        states.retain(|st| {
            let keep = st.bounds.upper >= kth_lower;
            if !keep {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            keep
        });
        it.phase_end(Phase::Decide, span);

        m_target = (m * 2).min(n);
    }
}

/// Indices of the `k` states with the largest `key`, sorted descending.
/// Ties break toward the lower attribute index for determinism.
pub(crate) fn top_k_indices<T>(states: &[T], k: usize, key: impl Fn(&T) -> f64) -> Vec<usize> {
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

pub(crate) fn attr_score(
    dataset: &Dataset,
    st: &EntropyState,
    retired_iteration: usize,
) -> AttrScore {
    AttrScore {
        attr: st.attr,
        name: dataset.schema().field(st.attr).map(|f| f.name().to_owned()).unwrap_or_default(),
        estimate: st.bounds.point_estimate(),
        lower: st.bounds.lower,
        upper: st.bounds.upper,
        retired_iteration,
    }
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
    fn page_sampling_strategy_works() {
        let mut c = config();
        c.sampling = crate::SamplingStrategy::Page { page_rows: 256, seed: 1 };
        let ds = cyclic_dataset(50_000, &[2, 64, 8]);
        let r = entropy_top_k(&ds, 1, &c).unwrap();
        assert_eq!(r.top[0].name, "c1");
    }

    #[test]
    fn top_k_indices_orders_and_breaks_ties() {
        let vals = [3.0f64, 9.0, 9.0, 1.0];
        let idx = top_k_indices(&vals, 3, |&v| v);
        assert_eq!(idx, vec![1, 2, 0]);
    }
}
