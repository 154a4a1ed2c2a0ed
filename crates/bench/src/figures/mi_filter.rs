//! Figures 7–8: mutual-information filtering query time and accuracy.
//!
//! Paper protocol (§6.3): vary `η ∈ {0.1, 0.2, 0.3, 0.4, 0.5}` (MI scores
//! are smaller than entropy scores, hence the lower thresholds); average
//! over target attributes; SWOPE at tuned ε = 0.5.

use swope_baselines::{exact_mi_scores, mi_filter_exact_sampling};
use swope_core::{Shape, SwopeConfig};
use swope_obs::{Phase, PhaseAccumulator};

use crate::harness::{swope_phased, time_ms, ExpConfig, Row};
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
        let mut per_target: Vec<(usize, Vec<f64>, f64)> = Vec::new();
        for &t in &targets {
            let (ms, scores) = time_ms(|| exact_mi_scores(&ds, t));
            per_target.push((t, scores, ms));
        }

        for &eta in &ETAS {
            let exact_ms =
                per_target.iter().map(|(_, _, ms)| ms).sum::<f64>() / targets.len() as f64;
            rows.push(Row {
                experiment: "fig7".into(),
                dataset: name.clone(),
                algo: "Exact".into(),
                param: eta,
                millis: exact_ms,
                accuracy: 1.0,
                sample_size: ds.num_rows(),
                rows_scanned: (ds.num_rows() * (2 * ds.num_attrs() - 1)) as u64,
                phase_ns: [0; Phase::COUNT],
            });

            for (algo, eps) in [("EntropyFilter", None), ("SWOPE", Some(SWOPE_EPSILON))] {
                let mut ms_sum = 0.0;
                let mut acc_sum = 0.0;
                let mut sample_sum = 0usize;
                let mut scanned_sum = 0u64;
                // Accumulates across targets; stays all-zero for the
                // baseline branch.
                let mut phases = PhaseAccumulator::new();
                for (t, scores, _) in &per_target {
                    let exact_answer: Vec<usize> =
                        (0..ds.num_attrs()).filter(|&a| a != *t && scores[a] >= eta).collect();
                    let qcfg = match eps {
                        Some(e) => SwopeConfig::with_epsilon(e),
                        None => SwopeConfig::default(),
                    }
                    .with_seed(cfg.seed ^ eta.to_bits() ^ *t as u64);
                    let (ms, res) = time_ms(|| match eps {
                        Some(_) => {
                            let shape = Shape::MiFilter { target: *t, eta };
                            swope_phased(&ds, shape, &qcfg, &mut phases).into()
                        }
                        None => mi_filter_exact_sampling(&ds, *t, eta, &qcfg).unwrap(),
                    });
                    ms_sum += ms;
                    acc_sum += filter_accuracy(&res.attr_indices(), &exact_answer).f1;
                    sample_sum += res.stats.sample_size;
                    scanned_sum += res.stats.rows_scanned;
                }
                let n_t = targets.len() as f64;
                rows.push(Row {
                    experiment: "fig7".into(),
                    dataset: name.clone(),
                    algo: algo.into(),
                    param: eta,
                    millis: ms_sum / n_t,
                    accuracy: acc_sum / n_t,
                    sample_size: sample_sum / targets.len(),
                    rows_scanned: scanned_sum / targets.len() as u64,
                    phase_ns: phases.nanos.map(|n| n / targets.len() as u64),
                });
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
        assert_eq!(rows.len(), 2 * ETAS.len() * 3);
        // EntropyFilter is exact up to p_f.
        assert!(rows.iter().filter(|r| r.algo == "EntropyFilter").all(|r| r.accuracy > 0.999));
        // SWOPE at ε=0.5 should still track well (paper: 100%).
        let swope_acc: Vec<f64> =
            rows.iter().filter(|r| r.algo == "SWOPE").map(|r| r.accuracy).collect();
        let mean = swope_acc.iter().sum::<f64>() / swope_acc.len() as f64;
        assert!(mean > 0.7, "mean SWOPE MI filtering F1 {mean}");
    }
}
