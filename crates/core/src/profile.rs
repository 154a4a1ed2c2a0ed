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
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::report::{AttrScore, QueryStats, WorkKind};
use crate::scope::Population;
use crate::state::{EntropyState, GatherScratch, MiState, TargetState};
use crate::topk::attr_score;
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
pub fn entropy_profile(
    dataset: &Dataset,
    floor: f64,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    entropy_profile_observed(dataset, floor, config, &mut NoopObserver)
}

/// [`entropy_profile`] with a [`QueryObserver`] attached.
///
/// The result is bitwise-identical to the unobserved call with the same
/// config.
pub fn entropy_profile_observed<O: QueryObserver>(
    dataset: &Dataset,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<ProfileResult, SwopeError> {
    entropy_profile_exec(dataset, floor, config, observer, &Executor::new(config.threads))
}

/// [`entropy_profile_observed`] with an injected [`Executor`].
///
/// See [`crate::exec`]: the executor supplies the (possibly shared)
/// worker pool, and results are bitwise identical for any executor.
pub fn entropy_profile_exec<O: QueryObserver>(
    dataset: &Dataset,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    if !floor.is_finite() || floor < 0.0 {
        return Err(SwopeError::InvalidThreshold(floor));
    }
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    entropy_profile_run(
        dataset,
        floor,
        config,
        observer,
        exec,
        Population::unscoped(dataset, config),
    )
}

/// The adaptive loop body, generic over the sampled population (see
/// [`crate::scope`]).
pub(crate) fn entropy_profile_run<O: QueryObserver>(
    dataset: &Dataset,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<ProfileResult, SwopeError> {
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
    let mut done: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::EntropyProfile, h, n, config);
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

        let span = it.phase_start();
        let exact_now = m >= n;
        states.retain(|st| {
            let b = &st.bounds;
            let budget = (epsilon * b.point_estimate()).max(floor);
            if b.width() <= budget || exact_now {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                done.push(attr_score(dataset, st, iter));
                false
            } else {
                true
            }
        });
        it.phase_end(Phase::Decide, span);

        if states.is_empty() {
            converged_early = m < n;
            break;
        }
        m_target = (m * 2).min(n);
    }

    done.sort_by_key(|s| s.attr);
    Ok(ProfileResult { scores: done, stats: it.finish(converged_early) })
}

/// Estimates every candidate attribute's empirical mutual information
/// with `target` to relative error `ε` (with probability `1 − p_f`),
/// using the same retirement rule as [`entropy_profile`].
pub fn mi_profile(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    mi_profile_observed(dataset, target, floor, config, &mut NoopObserver)
}

/// [`mi_profile`] with a [`QueryObserver`] attached.
///
/// The result is bitwise-identical to the unobserved call with the same
/// config.
pub fn mi_profile_observed<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<ProfileResult, SwopeError> {
    mi_profile_exec(dataset, target, floor, config, observer, &Executor::new(config.threads))
}

/// [`mi_profile_observed`] with an injected [`Executor`].
///
/// See [`crate::exec`]: the executor supplies the (possibly shared)
/// worker pool, and results are bitwise identical for any executor.
pub fn mi_profile_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    if !floor.is_finite() || floor < 0.0 {
        return Err(SwopeError::InvalidThreshold(floor));
    }
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
    mi_profile_run(
        dataset,
        target,
        floor,
        config,
        observer,
        exec,
        Population::unscoped(dataset, config),
    )
}

/// The adaptive loop body, generic over the sampled population (see
/// [`crate::scope`]). MI populations are always physical — covered-page
/// histograms cannot synthesize joint co-occurrences.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mi_profile_run<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<ProfileResult, SwopeError> {
    let h = dataset.num_attrs();
    let n = pop.n();
    let candidates = h - 1;
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_rows(dataset, n, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut target_state = TargetState::new(dataset, target);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, dataset.support(a))).collect();
    let mut scratch = GatherScratch::new(candidates);
    let mut done: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::MiProfile, h, n, config);
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
        it.record_work(delta.len(), live, WorkKind::MiPerTarget);

        let span = it.phase_start();
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
        let exact_now = m >= n;
        states.retain(|st| {
            let b = &st.bounds;
            let budget = (epsilon * b.point_estimate()).max(floor);
            if b.width() <= budget || exact_now {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                done.push(crate::mi_topk::mi_score(dataset, st, iter));
                false
            } else {
                true
            }
        });
        it.phase_end(Phase::Decide, span);

        if states.is_empty() {
            converged_early = m < n;
            break;
        }
        m_target = (m * 2).min(n);
    }

    done.sort_by_key(|s| s.attr);
    Ok(ProfileResult { scores: done, stats: it.finish(converged_early) })
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
