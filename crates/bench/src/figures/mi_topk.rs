//! Figures 5–6: mutual-information top-k query time and accuracy.
//!
//! Paper protocol (§6.3): vary `k ∈ {1, 2, 4, 8, 10}`; for each dataset,
//! average each metric over a set of target attributes (the paper uses 20
//! random targets; the default config uses 5 for runtime — raise
//! `--targets` to match). SWOPE runs at its tuned ε = 0.5 (Figure 11).

use swope_baselines::exact_mi_scores;
use swope_columnar::snapshot::build_sketch;
use swope_core::{Rule, Shape, SwopeConfig};

use crate::figures::entropy_topk::order_desc;
use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::topk_accuracy;

/// The paper's k sweep.
pub const KS: [usize; 5] = [1, 2, 4, 8, 10];

/// SWOPE's tuned ε for MI queries (paper Figures 11–12).
pub const SWOPE_EPSILON: f64 = 0.5;

/// The row beside the paper's SWOPE-MI that reads both marginals from the
/// dataset's partition sketch (a `2λ + b(α_t, α)` interval).
pub const SKETCH_MARGINALS: &str = "SWOPE-MI (sketch marginals)";

/// Runs the Figure 5/6 sweep.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let targets = cfg.pick_targets(ds.num_attrs());
        let sketch = build_sketch(&ds);

        // Per-target exact scores + one exact timing (k-independent).
        let mut per_target: Vec<(usize, Vec<usize>, f64)> = Vec::new();
        for &t in &targets {
            let (ms, scores) = time_ms(|| exact_mi_scores(&ds, t));
            let order: Vec<usize> = order_desc(&scores).into_iter().filter(|&a| a != t).collect();
            per_target.push((t, order, ms));
        }

        for &k in &KS {
            // Exact: average the (flat in k) per-target scan times.
            let exact_ms =
                per_target.iter().map(|(_, _, ms)| ms).sum::<f64>() / targets.len() as f64;
            let mut scan = Tally::default();
            let work = (ds.num_rows() * (2 * ds.num_attrs() - 1)) as u64;
            scan.add(exact_ms, 1.0, ds.num_rows(), work);
            rows.push(scan.row("fig5", &name, "Exact", k as f64));

            // One loop, two stopping rules; EntropyRank ignores ε. The
            // paper's SWOPE-MI samples its marginals; the last row reads
            // them from the sketch and samples only the joint.
            let swope = SwopeConfig::with_epsilon(SWOPE_EPSILON);
            for (algo, base, rule, sketch) in [
                ("EntropyRank", SwopeConfig::default(), Rule::Rank { k }, None),
                ("SWOPE", swope.clone(), Rule::TopK { k }, None),
                (SKETCH_MARGINALS, swope, Rule::TopK { k }, Some(&sketch)),
            ] {
                let mut tally = Tally::default();
                for (t, exact_order, _) in &per_target {
                    let qcfg = base.clone().with_seed(cfg.seed ^ (k as u64) << 8 ^ *t as u64);
                    let exact_topk = &exact_order[..k.min(exact_order.len())];
                    let shape = Shape::mi(*t, rule);
                    tally.run(&ds, shape, sketch, &qcfg, |got| topk_accuracy(got, exact_topk));
                }
                rows.push(tally.row("fig5", &name, algo, k as f64));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_full_grid() {
        // Two profiles keep the per-dataset grid honest; `pus` and `enem`
        // hold 80 % of the rows and would only repeat it.
        let only_datasets = vec!["cdc".to_owned(), "hus".to_owned()];
        let cfg = ExpConfig { scale: 0.00025, mi_targets: 1, only_datasets, ..Default::default() };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2 * KS.len() * 4);
        for r in &rows {
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0, "{r:?}");
        }
        // EntropyRank answers are exact: accuracy 1 (up to p_f).
        assert!(
            rows.iter().filter(|r| r.algo == "EntropyRank").all(|r| r.accuracy > 0.999),
            "rank should be exact"
        );
    }
}
