//! Ablation experiments for the design choices called out in DESIGN.md.
//! These go beyond the paper's figures; ids are prefixed `ext-`.

use swope_baselines::exact::select;
use swope_baselines::{exact_entropy_scores, oneshot_entropy_top_k};
use swope_core::{Rule, Shape, SwopeConfig};

use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::topk_accuracy;

/// The entropy top-k every ablation runs.
const TOP_4: Shape = Shape::entropy(Rule::TopK { k: 4 });

/// `ext-threads`: parallel per-attribute evaluation scaling, entropy and
/// MI top-k (k = 4). `param` is the thread count.
pub fn run_threads(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        for threads in [1usize, 2, 4, 8] {
            for (algo, shape, epsilon) in [
                ("SWOPE-entropy", TOP_4, 0.1),
                ("SWOPE-mi", Shape::mi(0, Rule::TopK { k: 4 }), 0.5),
            ] {
                let qcfg =
                    SwopeConfig::with_epsilon(epsilon).with_seed(cfg.seed).with_threads(threads);
                let mut tally = Tally::default();
                tally.run(&ds, shape, None, &qcfg, |_| 1.0);
                rows.push(tally.row("ext-threads", &name, algo, threads as f64));
            }
        }
    }
    rows
}

/// `ext-oneshot`: guarantee vs none at equal budget. SWOPE (k = 4,
/// ε = 0.1) sets the reference sample size S; OneShot then answers from
/// single samples of S, S/4, and S/16 rows. `param` is the budget as a
/// fraction of S. SWOPE certifies its answer; OneShot's accuracy decays
/// silently as the budget shrinks.
pub fn run_oneshot(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let exact_topk = &select(&exact_entropy_scores(&ds), &TOP_4);

        let qcfg = SwopeConfig::with_epsilon(0.1).with_seed(cfg.seed);
        let mut tally = Tally::default();
        let swope = tally.run(&ds, TOP_4, None, &qcfg, |got| topk_accuracy(got, exact_topk));
        let budget = swope.stats.sample_size;
        rows.push(tally.row("ext-oneshot", &name, "SWOPE", 1.0));

        for (frac, div) in [(1.0, 1usize), (0.25, 4), (0.0625, 16)] {
            let m = (budget / div).max(1);
            let (ms, res) = time_ms(|| oneshot_entropy_top_k(&ds, 4, m, cfg.seed).unwrap());
            let accuracy = topk_accuracy(&res.attr_indices(), exact_topk);
            let mut tally = Tally::default();
            tally.add(ms, accuracy, res.stats.sample_size, res.stats.rows_scanned);
            rows.push(tally.row("ext-oneshot", &name, "OneShot", frac));
        }
    }
    rows
}

/// `ext-m0`: sensitivity to the initial sample size. `param` multiplies
/// the paper's `M0`; too small wastes iterations on useless bounds, too
/// large overshoots the stopping point. The paper's choice should sit
/// near the flat bottom.
pub fn run_m0(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let exact_topk = &select(&exact_entropy_scores(&ds), &TOP_4);
        // The paper's M0 for this dataset.
        let base_cfg = SwopeConfig::with_epsilon(0.1);
        let p_f = base_cfg.resolve_p_f(&ds);
        let m0 = base_cfg.resolve_m0(&ds, p_f);
        for mult in [0.25f64, 1.0, 4.0, 16.0] {
            let mut qcfg = SwopeConfig::with_epsilon(0.1).with_seed(cfg.seed);
            qcfg.initial_sample = Some(((m0 as f64 * mult) as usize).max(2));
            let mut tally = Tally::default();
            tally.run(&ds, TOP_4, None, &qcfg, |got| topk_accuracy(got, exact_topk));
            rows.push(tally.row("ext-m0", &name, format!("M0x{mult}"), mult));
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
    fn threads_ablation_grid() {
        // A quarter of the other grids' rows: this one runs an MI query
        // per (dataset, thread count) cell as well.
        let rows = run_threads(&ExpConfig { scale: 0.00025, ..small_cfg() });
        assert_eq!(rows.len(), 4 * 4 * 2);
        // Thread count must not change the amount of sampling work.
        for ds in ["cdc", "hus", "pus", "enem"] {
            let work: Vec<u64> = rows
                .iter()
                .filter(|r| r.dataset == ds && r.algo == "SWOPE-entropy")
                .map(|r| r.rows_scanned)
                .collect();
            assert!(work.windows(2).all(|w| w[0] == w[1]), "{ds}: {work:?}");
        }
    }

    #[test]
    fn oneshot_ablation_grid() {
        let rows = run_oneshot(&small_cfg());
        assert_eq!(rows.len(), 4 * 4);
        // SWOPE rows must be perfectly accurate at ε=0.1 on this corpus.
        assert!(rows.iter().filter(|r| r.algo == "SWOPE").all(|r| r.accuracy > 0.74));
    }

    #[test]
    fn m0_ablation_grid() {
        let rows = run_m0(&small_cfg());
        assert_eq!(rows.len(), 4 * 4);
        for r in &rows {
            assert!(r.sample_size > 0);
        }
    }
}
