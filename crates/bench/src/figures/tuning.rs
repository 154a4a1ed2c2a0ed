//! Figures 9–12: tuning ε — the accuracy/efficiency trade-off.
//!
//! Paper protocol (§6.4): sweep `ε ∈ {0.01, 0.025, 0.05, 0.1, 0.25, 0.5}`
//! with fixed query parameters — entropy top-k at `k = 4` (Fig. 9),
//! entropy filtering at `η = 2` (Fig. 10), MI top-k at `k = 4` (Fig. 11),
//! MI filtering at `η = 0.3` (Fig. 12). Only SWOPE runs; each figure
//! reports both time (a) and accuracy (b).

use swope_baselines::{exact_entropy_scores, exact_mi_scores};
use swope_core::{Rule, Shape, SwopeConfig};

use crate::figures::entropy_topk::order_desc;
use crate::harness::{ExpConfig, Row, Tally};
use crate::metrics::{filter_accuracy, topk_accuracy};

/// The paper's ε sweep.
pub const EPSILONS: [f64; 6] = [0.01, 0.025, 0.05, 0.1, 0.25, 0.5];

/// Fixed k for the top-k tuning figures.
pub const TUNE_K: usize = 4;

/// Fixed η for entropy filtering tuning (Figure 10).
pub const TUNE_ETA_ENTROPY: f64 = 2.0;

/// Fixed η for MI filtering tuning (Figure 12).
pub const TUNE_ETA_MI: f64 = 0.3;

/// Figure 9: entropy top-k (k = 4) across ε.
pub fn run_entropy_topk(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let exact_order = order_desc(&exact_entropy_scores(&ds));
        let exact_topk = &exact_order[..TUNE_K.min(exact_order.len())];
        for &eps in &EPSILONS {
            let qcfg = SwopeConfig::with_epsilon(eps).with_seed(cfg.seed ^ eps.to_bits());
            let mut tally = Tally::default();
            tally.run(&ds, Shape::entropy(Rule::TopK { k: TUNE_K }), None, &qcfg, |got| {
                topk_accuracy(got, exact_topk)
            });
            rows.push(tally.row("fig9", &name, "SWOPE", eps));
        }
    }
    rows
}

/// Figure 10: entropy filtering (η = 2) across ε.
pub fn run_entropy_filter(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let scores = exact_entropy_scores(&ds);
        let exact_answer: Vec<usize> = scores
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s >= TUNE_ETA_ENTROPY)
            .map(|(a, _)| a)
            .collect();
        for &eps in &EPSILONS {
            let qcfg = SwopeConfig::with_epsilon(eps).with_seed(cfg.seed ^ eps.to_bits());
            let mut tally = Tally::default();
            let shape = Shape::entropy(Rule::Filter { eta: TUNE_ETA_ENTROPY });
            tally.run(&ds, shape, None, &qcfg, |got| filter_accuracy(got, &exact_answer).f1);
            rows.push(tally.row("fig10", &name, "SWOPE", eps));
        }
    }
    rows
}

/// Figure 11: MI top-k (k = 4) across ε, averaged over targets.
pub fn run_mi_topk(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let targets = cfg.pick_targets(ds.num_attrs());
        let per_target: Vec<(usize, Vec<usize>)> = targets
            .iter()
            .map(|&t| {
                let order: Vec<usize> =
                    order_desc(&exact_mi_scores(&ds, t)).into_iter().filter(|&a| a != t).collect();
                (t, order)
            })
            .collect();
        for &eps in &EPSILONS {
            let mut tally = Tally::default();
            for (t, exact_order) in &per_target {
                let qcfg =
                    SwopeConfig::with_epsilon(eps).with_seed(cfg.seed ^ eps.to_bits() ^ *t as u64);
                let exact_topk = &exact_order[..TUNE_K.min(exact_order.len())];
                tally.run(&ds, Shape::mi(*t, Rule::TopK { k: TUNE_K }), None, &qcfg, |got| {
                    topk_accuracy(got, exact_topk)
                });
            }
            rows.push(tally.row("fig11", &name, "SWOPE", eps));
        }
    }
    rows
}

/// Figure 12: MI filtering (η = 0.3) across ε, averaged over targets.
pub fn run_mi_filter(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let targets = cfg.pick_targets(ds.num_attrs());
        let per_target: Vec<(usize, Vec<usize>)> = targets
            .iter()
            .map(|&t| {
                let scores = exact_mi_scores(&ds, t);
                let answer: Vec<usize> =
                    (0..ds.num_attrs()).filter(|&a| a != t && scores[a] >= TUNE_ETA_MI).collect();
                (t, answer)
            })
            .collect();
        for &eps in &EPSILONS {
            let mut tally = Tally::default();
            for (t, exact_answer) in &per_target {
                let qcfg =
                    SwopeConfig::with_epsilon(eps).with_seed(cfg.seed ^ eps.to_bits() ^ *t as u64);
                tally.run(
                    &ds,
                    Shape::mi(*t, Rule::Filter { eta: TUNE_ETA_MI }),
                    None,
                    &qcfg,
                    |got| filter_accuracy(got, exact_answer).f1,
                );
            }
            rows.push(tally.row("fig12", &name, "SWOPE", eps));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExpConfig {
        ExpConfig { scale: 0.001, mi_targets: 2, ..Default::default() }
    }

    #[test]
    fn entropy_topk_time_decreases_with_epsilon() {
        let rows = run_entropy_topk(&small_cfg());
        assert_eq!(rows.len(), 4 * EPSILONS.len());
        // Sampling work (rows_scanned) should not increase as ε grows.
        for ds in ["cdc", "hus", "pus", "enem"] {
            let work: Vec<u64> = EPSILONS
                .iter()
                .map(|&e| {
                    rows.iter().find(|r| r.dataset == ds && r.param == e).unwrap().rows_scanned
                })
                .collect();
            // Different ε cells use different sampling seeds, so allow
            // small noise; the trend and the endpoints must still hold.
            for w in work.windows(2) {
                assert!(w[1] as f64 <= w[0] as f64 * 1.05, "{ds}: work increased with ε: {work:?}");
            }
            assert!(
                *work.last().unwrap() <= work[0],
                "{ds}: ε=0.5 must need no more work than ε=0.01: {work:?}"
            );
        }
    }

    #[test]
    fn entropy_filter_sweep_shape() {
        let rows = run_entropy_filter(&small_cfg());
        assert_eq!(rows.len(), 4 * EPSILONS.len());
        // Tight ε must give (near-)exact answers.
        for r in rows.iter().filter(|r| r.param <= 0.025) {
            assert!(r.accuracy > 0.95, "{r:?}");
        }
    }

    #[test]
    fn mi_sweeps_shape() {
        // Two profiles keep the per-dataset grid honest; `pus` and `enem`
        // hold 80 % of the rows and would only repeat it.
        let only_datasets = vec!["cdc".to_owned(), "hus".to_owned()];
        let cfg = ExpConfig { scale: 0.00025, mi_targets: 1, only_datasets, ..small_cfg() };
        let rows = run_mi_topk(&cfg);
        assert_eq!(rows.len(), 2 * EPSILONS.len());
        let rows = run_mi_filter(&cfg);
        assert_eq!(rows.len(), 2 * EPSILONS.len());
    }
}
