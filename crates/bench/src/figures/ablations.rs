//! Ablation experiments for the design choices called out in DESIGN.md.
//! These go beyond the paper's figures; ids are prefixed `ext-`.

use swope_baselines::{exact_entropy_scores, oneshot_entropy_top_k};
use swope_core::{SamplingStrategy, Shape, SwopeConfig};
use swope_datagen::generate_with_locality;

use crate::figures::entropy_topk::order_desc;
use crate::harness::{time_ms, ExpConfig, Row, Tally};
use crate::metrics::topk_accuracy;

/// The entropy top-k every ablation but `ext-locality` runs.
const TOP_4: Shape = Shape::EntropyTopK { k: 4 };

/// `ext-sampling`: row-level vs page-level sampling, end-to-end entropy
/// top-k (k = 4, ε = 0.1). `param` is the page size in rows (0 = row
/// sampling). Page sampling trades per-row randomness for sequential
/// access; accuracy should hold while time drops on large scans.
pub fn run_sampling(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        let exact_order = order_desc(&exact_entropy_scores(&ds));
        let exact_topk = &exact_order[..4.min(exact_order.len())];
        for page_rows in [0usize, 256, 1024, 4096] {
            let mut qcfg = SwopeConfig::with_epsilon(0.1);
            qcfg.sampling = if page_rows == 0 {
                SamplingStrategy::Row { seed: cfg.seed }
            } else {
                SamplingStrategy::Page { page_rows, seed: cfg.seed }
            };
            let algo = if page_rows == 0 { "row".into() } else { format!("page{page_rows}") };
            let mut tally = Tally::default();
            tally.run(&ds, TOP_4, &qcfg, |got| topk_accuracy(got, exact_topk));
            rows.push(tally.row("ext-sampling", &name, algo, page_rows as f64));
        }
    }
    rows
}

/// `ext-threads`: parallel per-attribute evaluation scaling, entropy and
/// MI top-k (k = 4). `param` is the thread count.
pub fn run_threads(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, ds) in cfg.datasets() {
        for threads in [1usize, 2, 4, 8] {
            for (algo, shape, epsilon) in [
                ("SWOPE-entropy", TOP_4, 0.1),
                ("SWOPE-mi", Shape::MiTopK { target: 0, k: 4 }, 0.5),
            ] {
                let qcfg =
                    SwopeConfig::with_epsilon(epsilon).with_seed(cfg.seed).with_threads(threads);
                let mut tally = Tally::default();
                tally.run(&ds, shape, &qcfg, |_| 1.0);
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
        let exact_order = order_desc(&exact_entropy_scores(&ds));
        let exact_topk = &exact_order[..4.min(exact_order.len())];

        let qcfg = SwopeConfig::with_epsilon(0.1).with_seed(cfg.seed);
        let mut tally = Tally::default();
        let swope = tally.run(&ds, TOP_4, &qcfg, |got| topk_accuracy(got, exact_topk));
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

/// `ext-locality`: page sampling on physically clustered data.
///
/// The §6.1 page optimization assumes rows within a page are roughly as
/// informative as random rows. On data sorted/bulk-loaded by a latent
/// key, whole-page samples are redundant: page sampling keeps its speed,
/// but the confidence intervals — whose math (Lemma 2) assumes row-level
/// exchangeability — can become *invalid*. `param` is the latent run
/// length (1 = i.i.d.); `algo` distinguishes `row` vs `page4096`
/// sampling. The `accuracy` column here is **interval coverage**: over
/// multiple seeds, the fraction of profiled attributes whose exact
/// entropy lies inside the reported `[H̲, H̄]`. Row sampling must stay at
/// 1.0; page sampling degrades as runs approach the page size.
pub fn run_locality(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    const SEEDS: u64 = 8;
    for run_len in [1usize, 512, 4096] {
        let profile = swope_datagen::corpus::tiny(200_000, 20);
        let ds = generate_with_locality(&profile, cfg.seed, run_len);
        let exact = exact_entropy_scores(&ds);
        for (algo, page_rows) in [("row", 0usize), ("page4096", 4096)] {
            let mut covered = 0usize;
            let mut total = 0usize;
            let mut tally = Tally::default();
            for s in 0..SEEDS {
                let mut qcfg = SwopeConfig::with_epsilon(0.1).with_seed(cfg.seed ^ s);
                qcfg.sampling = if page_rows == 0 {
                    SamplingStrategy::Row { seed: cfg.seed ^ s }
                } else {
                    SamplingStrategy::Page { page_rows, seed: cfg.seed ^ s }
                };
                let res = tally.run(&ds, Shape::EntropyProfile { floor: 0.05 }, &qcfg, |_| 0.0);
                for score in &res.scores {
                    total += 1;
                    let truth = exact[score.attr];
                    if score.lower - 1e-9 <= truth && truth <= score.upper + 1e-9 {
                        covered += 1;
                    }
                }
            }
            // Coverage is over every interval of every seed, not a mean
            // of per-run scores.
            rows.push(Row {
                accuracy: covered as f64 / total.max(1) as f64,
                ..tally.row("ext-locality", &format!("runlen{run_len}"), algo, run_len as f64)
            });
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
        let exact_order = order_desc(&exact_entropy_scores(&ds));
        let exact_topk = &exact_order[..4.min(exact_order.len())];
        // The paper's M0 for this dataset.
        let base_cfg = SwopeConfig::with_epsilon(0.1);
        let p_f = base_cfg.resolve_p_f(&ds);
        let m0 = base_cfg.resolve_m0(&ds, p_f);
        for mult in [0.25f64, 1.0, 4.0, 16.0] {
            let mut qcfg = SwopeConfig::with_epsilon(0.1).with_seed(cfg.seed);
            qcfg.initial_sample = Some(((m0 as f64 * mult) as usize).max(2));
            let mut tally = Tally::default();
            tally.run(&ds, TOP_4, &qcfg, |got| topk_accuracy(got, exact_topk));
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
    fn sampling_ablation_grid_and_accuracy() {
        let rows = run_sampling(&small_cfg());
        assert_eq!(rows.len(), 4 * 4);
        // Page sampling must not wreck accuracy on this corpus.
        let mean: f64 = rows.iter().map(|r| r.accuracy).sum::<f64>() / rows.len() as f64;
        assert!(mean > 0.8, "mean accuracy {mean}");
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
    fn locality_ablation_row_sampling_always_covers() {
        let rows = run_locality(&small_cfg());
        assert_eq!(rows.len(), 3 * 2);
        // Row sampling's intervals must be valid regardless of row order
        // (the permutation model does not care about physical layout).
        for r in rows.iter().filter(|r| r.algo == "row") {
            assert!(r.accuracy > 0.99, "{r:?}");
        }
        // Page sampling on i.i.d. data is fine too.
        let iid_page = rows.iter().find(|r| r.algo == "page4096" && r.param == 1.0).unwrap();
        assert!(iid_page.accuracy > 0.99, "{iid_page:?}");
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
