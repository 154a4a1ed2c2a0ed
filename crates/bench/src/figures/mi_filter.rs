//! Figures 7–8: mutual-information filtering query time and accuracy.
//!
//! Paper protocol (§6.3): vary `η ∈ {0.1, 0.2, 0.3, 0.4, 0.5}` (MI scores
//! are smaller than entropy scores, hence the lower thresholds); average
//! over target attributes; SWOPE at tuned ε = 0.5.

use swope_baselines::exact_mi_scores;
use swope_columnar::snapshot::build_sketch;
use swope_core::{Rule, Shape, SwopeConfig};

use crate::figures::mi_topk::SKETCH_MARGINALS;
use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::filter_accuracy;

/// The paper's η sweep for MI filtering.
pub const ETAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// SWOPE's tuned ε for MI queries (paper Figure 12).
pub const SWOPE_EPSILON: f64 = 0.5;

/// Runs the Figure 7/8 sweep.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let targets = cfg.pick_targets(ds.num_attrs());
        let sketch = build_sketch(&ds);
        let mut per_target: Vec<(usize, Vec<f64>, f64)> = Vec::new();
        for &t in &targets {
            let (ms, scores) = time_ms(|| exact_mi_scores(&ds, t));
            per_target.push((t, scores, ms));
        }

        for &eta in &ETAS {
            let exact_ms =
                per_target.iter().map(|(_, _, ms)| ms).sum::<f64>() / targets.len() as f64;
            let mut scan = Tally::default();
            let work = (ds.num_rows() * (2 * ds.num_attrs() - 1)) as u64;
            scan.add(exact_ms, 1.0, ds.num_rows(), work);
            rows.push(scan.row("fig7", &name, "Exact", eta));

            // One loop, two stopping rules; EntropyFilter ignores ε. The
            // paper's SWOPE-MI samples its marginals; the last row reads
            // them from the sketch and samples only the joint.
            let swope = SwopeConfig::with_epsilon(SWOPE_EPSILON);
            for (algo, base, rule, sketch) in [
                ("EntropyFilter", SwopeConfig::default(), Rule::FilterExact { eta }, None),
                ("SWOPE", swope.clone(), Rule::Filter { eta }, None),
                (SKETCH_MARGINALS, swope, Rule::Filter { eta }, Some(&sketch)),
            ] {
                let mut tally = Tally::default();
                for (t, scores, _) in &per_target {
                    let exact_answer: Vec<usize> =
                        (0..ds.num_attrs()).filter(|&a| a != *t && scores[a] >= eta).collect();
                    let qcfg = base.clone().with_seed(cfg.seed ^ eta.to_bits() ^ *t as u64);
                    tally.run(&ds, Shape::mi(*t, rule), sketch, &qcfg, |got| {
                        filter_accuracy(got, &exact_answer).f1
                    });
                }
                rows.push(tally.row("fig7", &name, algo, eta));
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
        assert_eq!(rows.len(), 2 * ETAS.len() * 4);
        // EntropyFilter is exact up to p_f.
        assert!(rows.iter().filter(|r| r.algo == "EntropyFilter").all(|r| r.accuracy > 0.999));
        // SWOPE at ε=0.5 should still track well (paper: 100%).
        let swope_acc: Vec<f64> =
            rows.iter().filter(|r| r.algo == "SWOPE").map(|r| r.accuracy).collect();
        let mean = swope_acc.iter().sum::<f64>() / swope_acc.len() as f64;
        assert!(mean > 0.7, "mean SWOPE MI filtering F1 {mean}");
    }
}
