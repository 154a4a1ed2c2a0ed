//! OneShot: the naive fixed-budget sampling estimator.
//!
//! Draw a single sample of a user-chosen size, compute plug-in scores,
//! answer the query from those point estimates — no confidence
//! intervals, no adaptivity, no guarantee. This is what ad-hoc analytics
//! code typically does, and it is the natural strawman for SWOPE's
//! adaptive machinery: at the *same* sample budget SWOPE certifies its
//! answer (or keeps sampling), while OneShot silently returns whatever
//! the sample says. The `ext-oneshot` harness experiment quantifies the
//! accuracy gap. The sample is drawn and counted by a one-shard
//! [`LocalShardSource`] advanced once to the budget — the sampler and
//! count kernels SWOPE uses — so the time column compares algorithms,
//! not counting loops.

use swope_columnar::{AttrIndex, Dataset};
use swope_core::{
    AttrScore, CountRequest, CountState, Executor, LocalShardSource, QueryStats, Rule, Shape,
    ShardTransport, SwopeConfig, SwopeError, TopKResult, WorkKind,
};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::joint::JointEntropyCounter;

/// Top-k on empirical entropy from one fixed-size plug-in sample.
///
/// `sample_size` is clamped to `[1, N]`. The returned scores carry the
/// plug-in estimate as both bounds (there is no interval to report).
pub fn oneshot_entropy_top_k(
    dataset: &Dataset,
    k: usize,
    sample_size: usize,
    seed: u64,
) -> Result<TopKResult, SwopeError> {
    oneshot(dataset, None, k, sample_size, seed)
}

/// Top-k on empirical MI from one fixed-size plug-in sample.
pub fn oneshot_mi_top_k(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    sample_size: usize,
    seed: u64,
) -> Result<TopKResult, SwopeError> {
    oneshot(dataset, Some(target), k, sample_size, seed)
}

/// Both measures: plug-in `H_S(α)`, or `I_S(α_t, α)` against `target`.
fn oneshot(
    dataset: &Dataset,
    target: Option<AttrIndex>,
    k: usize,
    sample_size: usize,
    seed: u64,
) -> Result<TopKResult, SwopeError> {
    let (h, n) = (dataset.num_attrs(), dataset.num_rows());
    let candidates = Shape { target, rule: Rule::TopK { k } }.check(h, n == 0)?;
    let m = sample_size.clamp(1, n);
    let exec = Executor::sequential();
    let config = SwopeConfig::default().with_seed(seed);
    let mut source = LocalShardSource::new(dataset, 1, &config, &exec)?;
    let req = CountRequest { target, live: (0..h).filter(|&a| Some(a) != target).collect() };
    let mut counts = source.advance(m, &req)?.remove(0);

    // `H_S(α_t)`, then each candidate's `H_S(α)` or `I_S(α_t, α)`.
    let h_t = counts.target.as_mut().map(|t| (plug_in(t), t.support()));
    let deltas = req.live.iter().zip(counts.attrs.iter_mut().zip(&mut counts.joints));
    let mut scores: Vec<(AttrIndex, f64)> = deltas
        .map(|(&attr, (hist, pairs))| {
            let h_a = plug_in(hist);
            let score = h_t.map_or(h_a, |(h_t, u_t)| {
                let mut joint = JointEntropyCounter::new(u_t, hist.support());
                pairs.apply_to(&mut joint);
                (h_t + h_a - joint.entropy()).max(0.0)
            });
            (attr, score)
        })
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scores.truncate(k);

    let work = if target.is_some() { WorkKind::MiPerTarget } else { WorkKind::EntropyMarginals };
    Ok(TopKResult {
        top: scores.into_iter().map(|(attr, s)| plugin_score(dataset, attr, s)).collect(),
        stats: QueryStats {
            sample_size: m,
            iterations: 1,
            rows_scanned: work.units(m, candidates),
            converged_early: m < n,
            trace: Vec::new(),
        },
    })
}

/// The sample entropy of the counted codes.
fn plug_in(counts: &mut CountState) -> f64 {
    let mut counter = EntropyCounter::new(counts.support());
    counts.apply_to(&mut counter);
    counter.entropy()
}

fn plugin_score(dataset: &Dataset, attr: AttrIndex, estimate: f64) -> AttrScore {
    AttrScore {
        attr,
        name: dataset.schema().field(attr).map(|f| f.name().to_owned()).unwrap_or_default(),
        estimate,
        lower: estimate,
        upper: estimate,
        retired_iteration: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_answer;
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
    fn full_budget_matches_exact() {
        let ds = cyclic_dataset(5_000, &[2, 64, 8]);
        let oneshot = oneshot_entropy_top_k(&ds, 2, 5_000, 1).unwrap();
        let exact = exact_answer(&ds, &Shape::entropy(Rule::TopK { k: 2 })).unwrap();
        assert_eq!(oneshot.attr_indices(), TopKResult::from(exact).attr_indices());
    }

    #[test]
    fn small_budget_ranks_well_separated_attrs() {
        let ds = cyclic_dataset(100_000, &[2, 256]);
        let r = oneshot_entropy_top_k(&ds, 1, 2_000, 3).unwrap();
        assert_eq!(r.top[0].name, "c1");
        assert_eq!(r.stats.sample_size, 2_000);
    }

    #[test]
    fn plugin_underestimates_wide_supports_at_tiny_budgets() {
        // The Lemma 1 bias in action: a 64-record sample of a 512-value
        // uniform column can see at most 64 distinct values -> H_S <= 6
        // bits although H_D = 9 bits. SWOPE's bias term b(α) accounts for
        // this; OneShot silently under-reports.
        let ds = cyclic_dataset(100_000, &[512]);
        let r = oneshot_entropy_top_k(&ds, 1, 64, 1).unwrap();
        assert!(r.top[0].estimate <= 6.0 + 1e-9);
    }

    #[test]
    fn mi_oneshot_full_budget_matches_exact_ranking() {
        let n = 10_000;
        let fields = vec![Field::new("t", 8), Field::new("copy", 8), Field::new("noise", 8)];
        let cols = vec![
            Column::new((0..n).map(|r| r as u32 % 8).collect(), 8).unwrap(),
            Column::new((0..n).map(|r| r as u32 % 8).collect(), 8).unwrap(),
            Column::new(
                (0..n).map(|r| ((r as u32).wrapping_mul(2654435761) >> 13) % 8).collect(),
                8,
            )
            .unwrap(),
        ];
        let ds = Dataset::new(Schema::new(fields), cols).unwrap();
        let r = oneshot_mi_top_k(&ds, 0, 1, n, 1).unwrap();
        assert_eq!(r.top[0].name, "copy");
    }

    #[test]
    fn validation() {
        let ds = cyclic_dataset(100, &[2, 4]);
        assert!(oneshot_entropy_top_k(&ds, 0, 50, 1).is_err());
        assert!(oneshot_entropy_top_k(&ds, 3, 50, 1).is_err());
        assert!(oneshot_mi_top_k(&ds, 5, 1, 50, 1).is_err());
    }

    #[test]
    fn budget_is_clamped() {
        let ds = cyclic_dataset(100, &[2, 4]);
        let r = oneshot_entropy_top_k(&ds, 1, 10_000, 1).unwrap();
        assert_eq!(r.stats.sample_size, 100);
        let r = oneshot_entropy_top_k(&ds, 1, 0, 1).unwrap();
        assert_eq!(r.stats.sample_size, 1);
    }
}
