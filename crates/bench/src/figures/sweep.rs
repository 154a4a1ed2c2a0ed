//! Figures 1–12: a table of sweeps and the one runner they share.
//!
//! The paper's §6 measures every query the same way: sweep one parameter
//! over the four datasets, run each algorithm once per cell (averaged
//! over MI targets), and score its answer against the exact one — top-k
//! recall for the top-k family, F1 for the filter family.
//!
//! * Figures 1–8 sweep `k` or `η` (§6.2–6.3) and run Exact, the
//!   comparator (EntropyRank or EntropyFilter, \[32\]) and SWOPE at the ε
//!   Figures 9–12 tuned. The MI figures add a row that reads both
//!   marginals from the dataset's partition sketch (a `2λ + b(α_t, α)`
//!   interval) beside the paper's SWOPE-MI, which samples them. Each time
//!   figure and its accuracy twin (1–2, …, 7–8) come from the same runs.
//! * Figures 9–12 sweep ε at a fixed rule (§6.4) and run SWOPE alone.

use swope_baselines::exact::select;
use swope_baselines::{exact_entropy_scores, exact_mi_scores};
use swope_columnar::snapshot::build_sketch;
use swope_columnar::AttrIndex;
use swope_core::{Rule, Shape, SwopeConfig, WorkKind};

use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::{filter_accuracy, topk_accuracy};

/// One of the paper's parameter sweeps.
#[derive(Debug, PartialEq)]
pub struct Sweep {
    /// The figures its rows reproduce: the time view, then the accuracy
    /// view when it is a separate figure.
    pub ids: &'static [&'static str],
    /// Scores candidates by mutual information against each of
    /// [`ExpConfig::pick_targets`]'s targets instead of by entropy.
    mi: bool,
    /// The swept parameter.
    axis: Axis,
}

/// What a [`Sweep`] varies.
#[derive(Debug, PartialEq)]
enum Axis {
    /// `k` of a top-k query: Exact, EntropyRank and SWOPE at `epsilon`.
    K {
        /// The swept values.
        ks: &'static [usize],
        /// SWOPE's tuned ε.
        epsilon: f64,
    },
    /// `η` of a filter: Exact, EntropyFilter and SWOPE at `epsilon`.
    Eta {
        /// The swept values.
        etas: &'static [f64],
        /// SWOPE's tuned ε.
        epsilon: f64,
    },
    /// SWOPE's ε over [`EPSILONS`], at a fixed rule.
    Epsilon(Rule),
}

/// The paper's k sweep.
const KS: [usize; 5] = [1, 2, 4, 8, 10];

/// The paper's ε sweep.
const EPSILONS: [f64; 6] = [0.01, 0.025, 0.05, 0.1, 0.25, 0.5];

/// The row beside the paper's SWOPE-MI that reads both marginals from the
/// dataset's partition sketch.
const SKETCH_MARGINALS: &str = "SWOPE-MI (sketch marginals)";

/// Figures 1–12 in paper order. MI scores are smaller than entropy
/// scores, hence Figure 7's lower thresholds.
pub const SWEEPS: [Sweep; 8] = [
    Sweep { ids: &["fig1", "fig2"], mi: false, axis: Axis::K { ks: &KS, epsilon: 0.1 } },
    Sweep {
        ids: &["fig3", "fig4"],
        mi: false,
        axis: Axis::Eta { etas: &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0], epsilon: 0.05 },
    },
    Sweep { ids: &["fig5", "fig6"], mi: true, axis: Axis::K { ks: &KS, epsilon: 0.5 } },
    Sweep {
        ids: &["fig7", "fig8"],
        mi: true,
        axis: Axis::Eta { etas: &[0.1, 0.2, 0.3, 0.4, 0.5], epsilon: 0.5 },
    },
    Sweep { ids: &["fig9"], mi: false, axis: Axis::Epsilon(Rule::TopK { k: 4 }) },
    Sweep { ids: &["fig10"], mi: false, axis: Axis::Epsilon(Rule::Filter { eta: 2.0 }) },
    Sweep { ids: &["fig11"], mi: true, axis: Axis::Epsilon(Rule::TopK { k: 4 }) },
    Sweep { ids: &["fig12"], mi: true, axis: Axis::Epsilon(Rule::Filter { eta: 0.3 }) },
];

/// One swept value: the row's `param`, SWOPE's rule and ε there, the
/// comparator run beside Exact (`k`/`η` sweeps), and the bits the value
/// mixes into the query seed.
struct Cell {
    param: f64,
    rule: Rule,
    epsilon: f64,
    comparator: Option<(&'static str, Rule)>,
    seed: u64,
}

impl Sweep {
    /// The swept parameter's name, for table headers.
    pub fn param_name(&self) -> &'static str {
        match self.axis {
            Axis::K { .. } => "k",
            Axis::Eta { .. } => "eta",
            Axis::Epsilon(_) => "epsilon",
        }
    }

    fn cells(&self) -> Vec<Cell> {
        match self.axis {
            // MI shifts k clear of the target index its seed also mixes in.
            Axis::K { ks, epsilon } => ks
                .iter()
                .map(|&k| Cell {
                    param: k as f64,
                    rule: Rule::TopK { k },
                    epsilon,
                    comparator: Some(("EntropyRank", Rule::Rank { k })),
                    seed: (k as u64) << if self.mi { 8 } else { 0 },
                })
                .collect(),
            Axis::Eta { etas, epsilon } => etas
                .iter()
                .map(|&eta| Cell {
                    param: eta,
                    rule: Rule::Filter { eta },
                    epsilon,
                    comparator: Some(("EntropyFilter", Rule::FilterExact { eta })),
                    seed: eta.to_bits(),
                })
                .collect(),
            Axis::Epsilon(rule) => EPSILONS
                .iter()
                .map(|&epsilon| Cell {
                    param: epsilon,
                    rule,
                    epsilon,
                    comparator: None,
                    seed: epsilon.to_bits(),
                })
                .collect(),
        }
    }

    /// Runs the sweep: per dataset and cell, the Exact row and the
    /// comparator's (`k`/`η` sweeps), SWOPE's, and the sketch-marginals
    /// row (MI `k`/`η` sweeps), each the mean over the MI targets.
    pub fn run(&self, cfg: &ExpConfig) -> Vec<Row> {
        let id = self.ids[0];
        let sketch_row = self.mi && !matches!(self.axis, Axis::Epsilon(_));
        let mut rows = Vec::new();
        for (name, ds) in cfg.datasets() {
            let (n, h) = (ds.num_rows(), ds.num_attrs());
            let targets: Vec<Option<AttrIndex>> = match self.mi {
                false => vec![None],
                true => cfg.pick_targets(h).into_iter().map(Some).collect(),
            };
            // Exact scores once per target, and what the scan took.
            let exact: Vec<(Option<AttrIndex>, Vec<f64>, f64)> = targets
                .iter()
                .map(|&t| {
                    let (ms, scores) = time_ms(|| match t {
                        None => exact_entropy_scores(&ds),
                        Some(t) => exact_mi_scores(&ds, t),
                    });
                    (t, scores, ms)
                })
                .collect();
            let sketch = sketch_row.then(|| build_sketch(&ds));

            for cell in self.cells() {
                let mut algos = Vec::new();
                if let Some((comparator, rule)) = cell.comparator {
                    // Exact's cost is the same in every cell: the mean scan.
                    let ms = exact.iter().map(|(_, _, ms)| ms).sum::<f64>() / exact.len() as f64;
                    let (work, candidates) = match self.mi {
                        false => (WorkKind::EntropyMarginals, h),
                        true => (WorkKind::MiPerTarget, h - 1),
                    };
                    let mut scan = Tally::default();
                    scan.add(ms, 1.0, n, work.units(n, candidates));
                    rows.push(scan.row(id, &name, "Exact", cell.param));
                    // One loop, two stopping rules; the comparator ignores ε.
                    algos.push((comparator, rule, SwopeConfig::default(), None));
                }
                let swope = SwopeConfig::with_epsilon(cell.epsilon);
                algos.push(("SWOPE", cell.rule, swope.clone(), None));
                if let Some(sketch) = &sketch {
                    algos.push((SKETCH_MARGINALS, cell.rule, swope, Some(sketch)));
                }
                for (algo, rule, base, sketch) in algos {
                    let mut tally = Tally::default();
                    for (target, scores, _) in &exact {
                        let shape = Shape { target: *target, rule };
                        let want = select(scores, &shape);
                        let seed = cfg.seed ^ cell.seed ^ target.map_or(0, |t| t as u64);
                        let qcfg = base.clone().with_seed(seed);
                        tally.run(&ds, shape, sketch, &qcfg, |got| match rule {
                            Rule::TopK { .. } | Rule::Rank { .. } => topk_accuracy(got, &want),
                            _ => filter_accuracy(got, &want).f1,
                        });
                    }
                    rows.push(tally.row(id, &name, algo, cell.param));
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(id: &str) -> &'static Sweep {
        SWEEPS.iter().find(|s| s.ids[0] == id).unwrap()
    }

    fn mean_accuracy(rows: &[Row], algo: &str) -> f64 {
        let acc: Vec<f64> = rows.iter().filter(|r| r.algo == algo).map(|r| r.accuracy).collect();
        acc.iter().sum::<f64>() / acc.len() as f64
    }

    /// Two profiles keep the per-dataset grid honest; `pus` and `enem`
    /// hold 80 % of the rows and would only repeat it.
    fn mi_cfg() -> ExpConfig {
        let only_datasets = vec!["cdc".to_owned(), "hus".to_owned()];
        ExpConfig { scale: 0.00025, mi_targets: 1, only_datasets, ..Default::default() }
    }

    #[test]
    fn fig1_entropy_topk_grid_and_accuracy() {
        let rows = sweep("fig1").run(&ExpConfig { scale: 0.001, ..Default::default() });
        // 4 datasets x 5 k x 3 algorithms.
        assert_eq!(rows.len(), 4 * 5 * 3);
        for r in &rows {
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
            assert!(r.millis >= 0.0);
        }
        assert!(rows.iter().filter(|r| r.algo == "Exact").all(|r| r.accuracy == 1.0));
        // SWOPE at ε=0.1 should be highly accurate.
        let mean = mean_accuracy(&rows, "SWOPE");
        assert!(mean > 0.8, "mean SWOPE accuracy {mean}");
    }

    #[test]
    fn fig3_entropy_filter_grid_and_accuracy() {
        let rows = sweep("fig3").run(&ExpConfig { scale: 0.001, ..Default::default() });
        assert_eq!(rows.len(), 4 * 6 * 3);
        // SWOPE at ε=0.05 should track the exact answer closely.
        let mean = mean_accuracy(&rows, "SWOPE");
        assert!(mean > 0.85, "mean SWOPE filtering F1 {mean}");
        // EntropyFilter is exact (up to p_f): expect F1 == 1 everywhere.
        assert!(rows.iter().filter(|r| r.algo == "EntropyFilter").all(|r| r.accuracy > 0.999));
    }

    #[test]
    fn fig5_mi_topk_grid() {
        let rows = sweep("fig5").run(&mi_cfg());
        assert_eq!(rows.len(), 2 * 5 * 4);
        for r in &rows {
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0, "{r:?}");
        }
        // EntropyRank answers are exact: accuracy 1 (up to p_f).
        assert!(
            rows.iter().filter(|r| r.algo == "EntropyRank").all(|r| r.accuracy > 0.999),
            "rank should be exact"
        );
    }

    #[test]
    fn fig7_mi_filter_grid_and_accuracy() {
        let rows = sweep("fig7").run(&mi_cfg());
        assert_eq!(rows.len(), 2 * 5 * 4);
        // EntropyFilter is exact up to p_f.
        assert!(rows.iter().filter(|r| r.algo == "EntropyFilter").all(|r| r.accuracy > 0.999));
        // SWOPE at ε=0.5 should still track well (paper: 100%).
        let mean = mean_accuracy(&rows, "SWOPE");
        assert!(mean > 0.7, "mean SWOPE MI filtering F1 {mean}");
    }

    fn tuning_cfg() -> ExpConfig {
        ExpConfig { scale: 0.001, mi_targets: 2, ..Default::default() }
    }

    #[test]
    fn fig9_entropy_topk_work_falls_with_epsilon() {
        let rows = sweep("fig9").run(&tuning_cfg());
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
    fn fig10_entropy_filter_epsilon_grid() {
        let rows = sweep("fig10").run(&tuning_cfg());
        assert_eq!(rows.len(), 4 * EPSILONS.len());
        // Tight ε must give (near-)exact answers.
        for r in rows.iter().filter(|r| r.param <= 0.025) {
            assert!(r.accuracy > 0.95, "{r:?}");
        }
    }

    #[test]
    fn fig11_fig12_mi_epsilon_grids() {
        for id in ["fig11", "fig12"] {
            assert_eq!(sweep(id).run(&mi_cfg()).len(), 2 * EPSILONS.len(), "{id}");
        }
    }
}
