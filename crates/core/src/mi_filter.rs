//! Algorithm 4: SWOPE approximate filtering on empirical mutual
//! information.

use swope_columnar::{AttrIndex, Dataset};
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::mi_topk::mi_score;
use crate::observe::Instrumented;
use crate::report::{AttrScore, FilterResult, WorkKind};
use crate::scope::Population;
use crate::state::{GatherScratch, MiState, TargetState};
use crate::{SwopeConfig, SwopeError};

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
    mi_filter_observed(dataset, target, eta, config, &mut NoopObserver)
}

/// [`mi_filter`] with a [`QueryObserver`] attached.
///
/// The result is bitwise-identical to the unobserved call with the same
/// config.
pub fn mi_filter_observed<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
) -> Result<FilterResult, SwopeError> {
    mi_filter_exec(dataset, target, eta, config, observer, &Executor::new(config.threads))
}

/// [`mi_filter_observed`] with an injected [`Executor`].
///
/// See [`crate::exec`]: the executor supplies the (possibly shared)
/// worker pool, and results are bitwise identical for any executor.
pub fn mi_filter_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
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
    if target >= h {
        return Err(SwopeError::TargetOutOfRange { target, num_attrs: h });
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    mi_filter_run(
        dataset,
        target,
        eta,
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
pub(crate) fn mi_filter_run<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
    mut pop: Population,
) -> Result<FilterResult, SwopeError> {
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
    let mut accepted: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::MiFilter, h, n, config);
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
        states.retain(|st| {
            let b = &st.bounds;
            if b.width() < 2.0 * epsilon * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                if b.point_estimate() >= eta {
                    accepted.push(mi_score(dataset, st, iter));
                }
                false
            } else if b.lower >= (1.0 - epsilon) * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                accepted.push(mi_score(dataset, st, iter));
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
            // Exact values; only reachable stragglers are the εη = 0 case.
            for st in states.drain(..) {
                let iter = it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
                let exact_mi = (target_state.sample_entropy() + st.sample_entropy()
                    - st.sample_joint_entropy())
                .max(0.0);
                if exact_mi >= eta {
                    accepted.push(mi_score(dataset, &st, iter));
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
        assert!(matches!(mi_filter(&ds, 0, -0.5, &config()), Err(SwopeError::InvalidThreshold(_))));
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
