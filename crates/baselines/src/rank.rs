//! EntropyRank (Wang & Ding, KDD'19): exact top-k via adaptive sampling.
//!
//! EntropyRank uses the same sampling-without-replacement bounds as SWOPE
//! but insists on the *exact* top-k answer: it keeps sampling until the
//! k-th largest lower bound is no smaller than the (k+1)-th largest upper
//! bound, so the top-k set is provably separated from the rest. When the
//! gap `Δ` between the k-th and (k+1)-th scores is small, that separation
//! requires `Ω(1/Δ²)` samples — the cost SWOPE's approximate stopping rule
//! avoids.
//!
//! Implementation notes: we run the same doubling schedule, `p'_f` budget
//! split, bound computation, and pruning as `swope-core`, so SWOPE vs
//! EntropyRank benchmark deltas isolate the stopping rules. (The original
//! paper samples in fixed-size batches; a geometric schedule only changes
//! constants and matches the complexity the SWOPE paper quotes for it.)

use swope_columnar::Dataset;
use swope_core::state::{make_sampler, EntropyState};
use swope_core::{Executor, QueryStats, SwopeConfig, SwopeError, TopKResult};
use swope_sampling::DoublingSchedule;

use crate::score_of;

/// Exact top-k on empirical entropy by adaptive sampling (EntropyRank).
///
/// The `config`'s `epsilon` is ignored (the answer is exact); its
/// failure probability, sampling strategy, `M0` override, and thread
/// count are honoured. With probability `1 − p_f` the returned set *is*
/// the exact top-k.
pub fn entropy_rank_top_k(
    dataset: &Dataset,
    k: usize,
    config: &SwopeConfig,
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

    let p_f = config.resolve_p_f(dataset);
    let m0 = config.resolve_m0(dataset, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut sampler = make_sampler(n, config.sampling);
    let mut states: Vec<EntropyState> =
        (0..h).map(|attr| EntropyState::new(dataset, attr)).collect();
    let mut stats = QueryStats::default();
    let exec = Executor::new(config.threads);

    let mut m_target = schedule.m0();
    loop {
        stats.iterations += 1;
        let delta: Vec<u32> = sampler.grow_to(m_target).to_vec();
        let m = sampler.sampled();
        stats.sample_size = m;
        stats.rows_scanned += (delta.len() * states.len()) as u64;

        exec.for_each_mut(&mut states, |st| {
            st.ingest(dataset.column(st.attr), &delta);
            st.update_bounds(n as u64, p_prime);
        });

        // Order candidates by lower bound; the answer is the top-k lowers.
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

        // Exact stopping rule: the k-th largest lower bound must dominate
        // every upper bound outside the chosen k.
        let max_outside_upper =
            by_lower[k..].iter().map(|&i| states[i].bounds.upper).fold(f64::NEG_INFINITY, f64::max);
        let separated = by_lower.len() == k || kth_lower >= max_outside_upper;

        if separated || m >= n {
            stats.converged_early = separated && m < n;
            by_lower.truncate(k);
            let top = by_lower
                .iter()
                .map(|&i| score_of(dataset, states[i].attr, &states[i].bounds))
                .collect();
            return Ok(TopKResult { top, stats });
        }

        // Prune candidates whose upper bound cannot reach the k-th lower.
        states.retain(|st| st.bounds.upper >= kth_lower);

        m_target = (m * 2).min(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_entropy_top_k;
    use swope_columnar::{Column, Field, Schema};

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
    fn matches_exact_answer() {
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 256, 16]);
        let rank = entropy_rank_top_k(&ds, 3, &SwopeConfig::default()).unwrap();
        let exact = exact_entropy_top_k(&ds, 3).unwrap();
        assert_eq!(rank.attr_indices(), exact.attr_indices());
    }

    #[test]
    fn converges_early_when_gap_is_large() {
        let ds = cyclic_dataset(200_000, &[2, 256, 4]);
        let r = entropy_rank_top_k(&ds, 1, &SwopeConfig::default()).unwrap();
        assert!(r.stats.converged_early, "{:?}", r.stats);
    }

    #[test]
    fn needs_more_samples_than_swope_when_gap_is_small() {
        // Two near-tied attributes below the top one: SWOPE can stop early,
        // EntropyRank must separate them.
        let n = 100_000;
        let schema =
            Schema::new(vec![Field::new("a", 64), Field::new("b", 64), Field::new("c", 63)]);
        let cols = vec![
            Column::new((0..n).map(|r| r as u32 % 64).collect(), 64).unwrap(),
            Column::new((0..n).map(|r| (r as u32).wrapping_mul(2654435761) >> 26).collect(), 64)
                .unwrap(),
            Column::new((0..n).map(|r| r as u32 % 63).collect(), 63).unwrap(),
        ];
        let ds = Dataset::new(schema, cols).unwrap();
        let cfg = SwopeConfig::default();
        let rank = entropy_rank_top_k(&ds, 2, &cfg).unwrap();
        let swope = swope_core::entropy_top_k(&ds, 2, &cfg).unwrap();
        assert!(
            rank.stats.rows_scanned >= swope.stats.rows_scanned,
            "rank {:?} vs swope {:?}",
            rank.stats,
            swope.stats
        );
    }

    #[test]
    fn k_equals_h_short_circuits() {
        let ds = cyclic_dataset(10_000, &[2, 8]);
        let r = entropy_rank_top_k(&ds, 2, &SwopeConfig::default()).unwrap();
        assert_eq!(r.top.len(), 2);
        // With all attributes in the answer, separation is immediate.
        assert_eq!(r.stats.iterations, 1);
    }

    #[test]
    fn validation() {
        let ds = cyclic_dataset(100, &[2, 4]);
        assert!(entropy_rank_top_k(&ds, 0, &SwopeConfig::default()).is_err());
        assert!(entropy_rank_top_k(&ds, 3, &SwopeConfig::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 16]);
        let c = SwopeConfig::default().with_seed(8);
        assert_eq!(
            entropy_rank_top_k(&ds, 2, &c).unwrap(),
            entropy_rank_top_k(&ds, 2, &c).unwrap()
        );
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let ds = cyclic_dataset(30_000, &[2, 64, 4, 256, 16]);
        let c = SwopeConfig::default().with_seed(8);
        assert_eq!(
            entropy_rank_top_k(&ds, 2, &c).unwrap(),
            entropy_rank_top_k(&ds, 2, &c.clone().with_threads(4)).unwrap()
        );
    }
}
