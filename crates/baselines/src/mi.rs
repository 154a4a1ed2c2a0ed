//! EntropyRank / EntropyFilter lifted to empirical mutual information,
//! the paper's §6.3 competitors.
//!
//! Identical adaptive structure to the entropy baselines, with the §4.1 MI
//! confidence intervals and the `p'_f = p_f/(3·i_max·(h−1))` budget.

use swope_columnar::{AttrIndex, Dataset};
use swope_core::state::{make_sampler, MiState, TargetState};
use swope_core::{
    AttrScore, Executor, FilterResult, QueryStats, SwopeConfig, SwopeError, TopKResult,
};
use swope_sampling::DoublingSchedule;

use crate::score_of_mi;

/// Exact top-k on empirical MI against `target` by adaptive sampling
/// (EntropyRank-MI). `config.epsilon` is ignored.
pub fn mi_rank_top_k(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
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

    let p_f = config.resolve_p_f(dataset);
    let m0 = config.resolve_m0(dataset, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut sampler = make_sampler(n, config.sampling);
    let mut target_state = TargetState::new(dataset, target);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, dataset.support(a))).collect();
    let mut stats = QueryStats::default();
    let exec = Executor::new(config.threads);

    let mut m_target = schedule.m0();
    loop {
        stats.iterations += 1;
        let delta: Vec<u32> = sampler.grow_to(m_target).to_vec();
        let m = sampler.sampled();
        stats.sample_size = m;

        let t_codes = target_state.ingest(dataset.column(target), &delta);
        let h_t = target_state.sample_entropy();
        stats.rows_scanned += delta.len() as u64;
        stats.rows_scanned += (2 * delta.len() * states.len()) as u64;

        exec.for_each_mut(&mut states, |st| {
            st.ingest(dataset.column(st.attr), &t_codes, &delta);
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });

        let mut by_lower: Vec<usize> = (0..states.len()).collect();
        by_lower.sort_by(|&a, &b| {
            states[b]
                .bounds
                .lower
                .partial_cmp(&states[a].bounds.lower)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let kth_lower = states[by_lower[k - 1]].bounds.lower;
        let max_outside_upper =
            by_lower[k..].iter().map(|&i| states[i].bounds.upper).fold(f64::NEG_INFINITY, f64::max);
        let separated = by_lower.len() == k || kth_lower >= max_outside_upper;

        if separated || m >= n {
            stats.converged_early = separated && m < n;
            by_lower.truncate(k);
            let top = by_lower
                .iter()
                .map(|&i| score_of_mi(dataset, states[i].attr, &states[i].bounds))
                .collect();
            return Ok(TopKResult { top, stats });
        }

        states.retain(|st| st.bounds.upper >= kth_lower);
        m_target = (m * 2).min(n);
    }
}

/// Exact filtering on empirical MI against `target` by adaptive sampling
/// (EntropyFilter-MI). `config.epsilon` is ignored.
pub fn mi_filter_exact_sampling(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
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
    let candidates = h - 1;

    let p_f = config.resolve_p_f(dataset);
    let m0 = config.resolve_m0(dataset, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut sampler = make_sampler(n, config.sampling);
    let mut target_state = TargetState::new(dataset, target);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, dataset.support(a))).collect();
    let mut accepted: Vec<AttrScore> = Vec::new();
    let mut stats = QueryStats::default();
    let exec = Executor::new(config.threads);

    let mut m_target = schedule.m0();
    while !states.is_empty() {
        stats.iterations += 1;
        let delta: Vec<u32> = sampler.grow_to(m_target).to_vec();
        let m = sampler.sampled();
        stats.sample_size = m;

        let t_codes = target_state.ingest(dataset.column(target), &delta);
        let h_t = target_state.sample_entropy();
        stats.rows_scanned += delta.len() as u64;
        stats.rows_scanned += (2 * delta.len() * states.len()) as u64;

        exec.for_each_mut(&mut states, |st| {
            st.ingest(dataset.column(st.attr), &t_codes, &delta);
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });

        let exact_now = m >= n;
        states.retain(|st| {
            let b = &st.bounds;
            if b.lower > eta || (exact_now && b.point_estimate() >= eta) {
                accepted.push(score_of_mi(dataset, st.attr, b));
                false
            } else {
                !(b.upper < eta || exact_now)
            }
        });

        if states.is_empty() {
            stats.converged_early = m < n;
            break;
        }
        m_target = (m * 2).min(n);
    }

    accepted.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    Ok(FilterResult { accepted, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_mi_filter, exact_mi_top_k};
    use swope_columnar::{Column, Field, Schema};

    fn correlated_dataset(n: usize) -> Dataset {
        let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let mut fields = vec![Field::new("target", 4)];
        let mut columns = vec![Column::new(target.clone(), 4).unwrap()];
        for (i, noise_mod) in [1u32, 3, 7].iter().enumerate() {
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

    #[test]
    fn rank_matches_exact_top_k() {
        let ds = correlated_dataset(30_000);
        let rank = mi_rank_top_k(&ds, 0, 2, &SwopeConfig::default()).unwrap();
        let exact = exact_mi_top_k(&ds, 0, 2).unwrap();
        assert_eq!(rank.attr_indices(), exact.attr_indices());
    }

    #[test]
    fn filter_matches_exact_answer() {
        let ds = correlated_dataset(30_000);
        let sampled = mi_filter_exact_sampling(&ds, 0, 0.5, &SwopeConfig::default()).unwrap();
        let exact = exact_mi_filter(&ds, 0, 0.5).unwrap();
        let mut a = sampled.attr_indices();
        let mut b = exact.attr_indices();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn target_excluded() {
        let ds = correlated_dataset(5_000);
        let r = mi_rank_top_k(&ds, 0, 4, &SwopeConfig::default()).unwrap();
        assert!(r.top.iter().all(|s| s.attr != 0));
        let f = mi_filter_exact_sampling(&ds, 0, 0.0, &SwopeConfig::default()).unwrap();
        assert!(!f.contains(0));
    }

    #[test]
    fn validation() {
        let ds = correlated_dataset(500);
        let cfg = SwopeConfig::default();
        assert!(mi_rank_top_k(&ds, 9, 1, &cfg).is_err());
        assert!(mi_rank_top_k(&ds, 0, 0, &cfg).is_err());
        assert!(mi_filter_exact_sampling(&ds, 9, 0.1, &cfg).is_err());
        assert!(mi_filter_exact_sampling(&ds, 0, -1.0, &cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = correlated_dataset(20_000);
        let c = SwopeConfig::default().with_seed(77);
        assert_eq!(mi_rank_top_k(&ds, 0, 2, &c).unwrap(), mi_rank_top_k(&ds, 0, 2, &c).unwrap());
        assert_eq!(
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap(),
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap()
        );
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let ds = correlated_dataset(20_000);
        let c = SwopeConfig::default().with_seed(77);
        let c4 = c.clone().with_threads(4);
        assert_eq!(mi_rank_top_k(&ds, 0, 2, &c).unwrap(), mi_rank_top_k(&ds, 0, 2, &c4).unwrap());
        assert_eq!(
            mi_filter_exact_sampling(&ds, 0, 0.3, &c).unwrap(),
            mi_filter_exact_sampling(&ds, 0, 0.3, &c4).unwrap()
        );
    }
}
