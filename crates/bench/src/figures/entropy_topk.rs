//! Figures 1–2: entropy top-k query time and accuracy.
//!
//! Paper protocol (§6.2): vary `k ∈ {1, 2, 4, 8, 10}` on all four
//! datasets; compare SWOPE (ε = 0.1, its tuned default from Figure 9)
//! against EntropyRank and Exact. Figure 1 reports query time, Figure 2
//! the accuracy vs the exact top-k.

use swope_baselines::exact_entropy_scores;
use swope_core::{Rule, Shape, SwopeConfig};

use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::topk_accuracy;

/// The paper's k sweep.
pub const KS: [usize; 5] = [1, 2, 4, 8, 10];

/// SWOPE's tuned ε for entropy top-k (paper §6.1/Figure 9).
pub const SWOPE_EPSILON: f64 = 0.1;

/// Runs the Figure 1/2 sweep.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let scores = exact_entropy_scores(&ds);
        let exact_order = order_desc(&scores);
        // Exact cost is k-independent; measure once and report flat.
        let (exact_ms, _) = time_ms(|| exact_entropy_scores(&ds));

        for &k in &KS {
            let exact_topk = &exact_order[..k.min(exact_order.len())];

            let mut scan = Tally::default();
            scan.add(exact_ms, 1.0, ds.num_rows(), (ds.num_rows() * ds.num_attrs()) as u64);
            rows.push(scan.row("fig1", &name, "Exact", k as f64));

            // One loop, two stopping rules; EntropyRank ignores ε.
            for (algo, rule, qcfg) in [
                ("EntropyRank", Rule::Rank { k }, SwopeConfig::default()),
                ("SWOPE", Rule::TopK { k }, SwopeConfig::with_epsilon(SWOPE_EPSILON)),
            ] {
                let qcfg = qcfg.with_seed(cfg.seed ^ k as u64);
                let mut tally = Tally::default();
                let shape = Shape::entropy(rule);
                tally.run(&ds, shape, None, &qcfg, |got| topk_accuracy(got, exact_topk));
                rows.push(tally.row("fig1", &name, algo, k as f64));
            }
        }
    }
    rows
}

pub(crate) fn order_desc(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_baselines::exact_entropy_top_k as exact_topk_query;

    #[test]
    fn sweep_produces_full_grid_and_sane_accuracy() {
        // Small scale so the test is fast; one dataset would do but the
        // grid shape matters.
        let cfg = ExpConfig { scale: 0.001, ..Default::default() };
        let rows = run(&cfg);
        // 4 datasets x 5 k x 3 algorithms.
        assert_eq!(rows.len(), 4 * 5 * 3);
        for r in &rows {
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
            assert!(r.millis >= 0.0);
        }
        // Exact rows are always accuracy 1.
        assert!(rows.iter().filter(|r| r.algo == "Exact").all(|r| r.accuracy == 1.0));
        // SWOPE at ε=0.1 should be highly accurate.
        let swope_acc: Vec<f64> =
            rows.iter().filter(|r| r.algo == "SWOPE").map(|r| r.accuracy).collect();
        let mean = swope_acc.iter().sum::<f64>() / swope_acc.len() as f64;
        assert!(mean > 0.8, "mean SWOPE accuracy {mean}");
    }

    #[test]
    fn order_desc_sorts() {
        assert_eq!(order_desc(&[1.0, 3.0, 2.0]), vec![1, 2, 0]);
    }

    #[test]
    fn exact_query_agrees_with_order() {
        let cfg = ExpConfig { scale: 0.001, ..Default::default() };
        let (_, ds) = cfg.datasets().remove(0);
        let scores = exact_entropy_scores(&ds);
        let order = order_desc(&scores);
        let res = exact_topk_query(&ds, 3).unwrap();
        assert_eq!(res.attr_indices(), order[..3].to_vec());
    }
}
