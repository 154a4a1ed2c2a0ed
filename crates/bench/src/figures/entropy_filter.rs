//! Figures 3–4: entropy filtering query time and accuracy.
//!
//! Paper protocol (§6.2): vary `η ∈ {0.5, 1, 1.5, 2, 2.5, 3}` on all four
//! datasets; compare SWOPE (ε = 0.05, tuned via Figure 10) against
//! EntropyFilter and Exact.

use swope_baselines::exact_entropy_scores;
use swope_core::{Rule, Shape, SwopeConfig};

use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::filter_accuracy;

/// The paper's η sweep for entropy filtering.
pub const ETAS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

/// SWOPE's tuned ε for entropy filtering (paper Figure 10).
pub const SWOPE_EPSILON: f64 = 0.05;

/// Runs the Figure 3/4 sweep.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let scores = exact_entropy_scores(&ds);
        let (exact_ms, _) = time_ms(|| exact_entropy_scores(&ds));

        for &eta in &ETAS {
            let exact_answer: Vec<usize> =
                scores.iter().enumerate().filter(|&(_, &s)| s >= eta).map(|(a, _)| a).collect();

            let mut scan = Tally::default();
            scan.add(exact_ms, 1.0, ds.num_rows(), (ds.num_rows() * ds.num_attrs()) as u64);
            rows.push(scan.row("fig3", &name, "Exact", eta));

            // One loop, two stopping rules; EntropyFilter ignores ε.
            for (algo, rule, qcfg) in [
                ("EntropyFilter", Rule::FilterExact { eta }, SwopeConfig::default()),
                ("SWOPE", Rule::Filter { eta }, SwopeConfig::with_epsilon(SWOPE_EPSILON)),
            ] {
                let qcfg = qcfg.with_seed(cfg.seed ^ eta.to_bits());
                let mut tally = Tally::default();
                let shape = Shape::entropy(rule);
                tally.run(&ds, shape, None, &qcfg, |got| filter_accuracy(got, &exact_answer).f1);
                rows.push(tally.row("fig3", &name, algo, eta));
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
        let cfg = ExpConfig { scale: 0.001, ..Default::default() };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 4 * ETAS.len() * 3);
        // SWOPE at ε=0.05 should track the exact answer closely.
        let swope_acc: Vec<f64> =
            rows.iter().filter(|r| r.algo == "SWOPE").map(|r| r.accuracy).collect();
        let mean = swope_acc.iter().sum::<f64>() / swope_acc.len() as f64;
        assert!(mean > 0.85, "mean SWOPE filtering F1 {mean}");
        // EntropyFilter is exact (up to p_f): expect F1 == 1 everywhere.
        assert!(rows.iter().filter(|r| r.algo == "EntropyFilter").all(|r| r.accuracy > 0.999));
    }
}
