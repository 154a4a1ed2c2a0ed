//! Algorithm 3: SWOPE approximate top-k on empirical mutual information.

use swope_columnar::{AttrIndex, Dataset};
use swope_estimate::bounds::lambda;
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::report::{AttrScore, TopKResult, WorkKind};
use crate::scope::Population;
use crate::state::{GatherScratch, MiState, TargetState};
use crate::topk::top_k_indices;
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
    mi_top_k_observed(dataset, target, k, config, &mut NoopObserver)
}

/// [`mi_top_k`] with a [`QueryObserver`] attached.
///
/// The result is bitwise-identical to the unobserved call with the same
/// config.
pub fn mi_top_k_observed<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<TopKResult, SwopeError> {
    mi_top_k_exec(dataset, target, k, config, observer, &Executor::new(config.threads))
}

/// [`mi_top_k_observed`] with an injected [`Executor`].
///
/// See [`crate::exec`]: the executor supplies the (possibly shared)
/// worker pool, and results are bitwise identical for any executor.
pub fn mi_top_k_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
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
    if target >= h {
        return Err(SwopeError::TargetOutOfRange { target, num_attrs: h });
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    let candidates = h - 1;
    if k == 0 || k > candidates {
        return Err(SwopeError::InvalidK { k, candidates });
    }
    mi_top_k_run(dataset, target, k, config, observer, exec, Population::unscoped(dataset, config))
}

/// The adaptive loop body, generic over the sampled population (see
/// [`crate::scope`]). MI populations are always physical — covered-page
/// histograms cannot synthesize joint co-occurrences.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mi_top_k_run<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<TopKResult, SwopeError> {
    let h = dataset.num_attrs();
    let n = pop.n();
    let candidates = h - 1;
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_rows(dataset, n, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    // Three Lemma-3 applications per candidate per iteration (Alg. 3 line 1).
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut target_state = TargetState::new(dataset, target);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, dataset.support(a))).collect();
    let mut scratch = GatherScratch::new(candidates);
    let mut it = Instrumented::start(observer, QueryKind::MiTopK, h, n, config);
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
        // Target scan + per-candidate marginal and joint updates.
        it.record_work(delta.len(), live, WorkKind::MiPerTarget);

        let span = it.phase_start();
        // Gather the target codes once; every candidate reuses them.
        let (t_buf, slots) = scratch.target_and_slots(live);
        target_state.ingest_into(dataset.column(target), delta, t_buf);
        let t_codes = t_buf.codes();
        exec.for_each2(&mut states, slots, |st, buf| {
            st.ingest_staged(dataset.column(st.attr), t_codes, delta, buf);
        });
        it.phase_end(Phase::Ingest, span);
        let span = it.phase_start();
        let h_t = target_state.sample_entropy();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        // R <- top-k candidates by upper bound (Alg. 3 lines 7-9).
        let by_upper = top_k_indices(&states, k, |st| st.bounds.upper);
        let kth_upper = states[by_upper[k - 1]].bounds.upper;
        let b_max = by_upper.iter().map(|&i| states[i].bounds.bias_total).fold(0.0f64, f64::max);

        // Stopping rule (Alg. 3 line 10).
        let stop = kth_upper > 0.0 && (kth_upper - 6.0 * lam - b_max) / kth_upper >= 1.0 - epsilon;
        if stop || m >= n {
            it.phase_end(Phase::Decide, span);
            for st in &states {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            let retired_iteration = it.current_iteration();
            let top = by_upper
                .iter()
                .map(|&i| mi_score(dataset, &states[i], retired_iteration))
                .collect();
            let converged_early = stop && m < n;
            return Ok(TopKResult { top, stats: it.finish(converged_early) });
        }

        // Prune candidates whose upper bound falls below the k-th largest
        // lower bound (lines 16-19).
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

pub(crate) fn mi_score(dataset: &Dataset, st: &MiState, retired_iteration: usize) -> AttrScore {
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
