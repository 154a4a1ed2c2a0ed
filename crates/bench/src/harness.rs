//! Shared experiment plumbing: configuration, timing, and result rows.

use std::path::PathBuf;
use std::time::Instant;

use swope_columnar::{AttrIndex, Dataset, DatasetSketch, DEFAULT_MAX_SUPPORT};
use swope_core::{run, Answer, Executor, Scope, Shape, SwopeConfig};
use swope_datagen::{corpus, generate};
use swope_obs::{Phase, PhaseAccumulator};

/// One measured cell of an experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (`fig1`, …).
    pub experiment: String,
    /// Dataset profile name (`cdc`, `hus`, `pus`, `enem`).
    pub dataset: String,
    /// Algorithm (`SWOPE`, `EntropyRank`, `EntropyFilter`, `Exact`).
    pub algo: String,
    /// The swept parameter for this cell (`k`, `η`, or `ε`).
    pub param: f64,
    /// Wall-clock query time in milliseconds.
    pub millis: f64,
    /// Accuracy vs the exact answer (top-k recall or filtering F1).
    pub accuracy: f64,
    /// Final sample size `M` when the query stopped.
    pub sample_size: usize,
    /// Counter-update work units (the paper's cost model).
    pub rows_scanned: u64,
    /// Per-phase wall-clock nanoseconds, indexed by `swope_obs::Phase`
    /// (sample_grow, ingest, update_bounds, decide, store_sketch). All
    /// zeros for Exact and OneShot, which don't run the adaptive loop.
    pub phase_ns: [u64; Phase::COUNT],
}

/// Experiment-wide configuration shared by all runners.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Row-count scale versus the paper's datasets (1.0 = paper size).
    pub scale: f64,
    /// Seed controlling both data generation and query sampling.
    pub seed: u64,
    /// Number of MI target attributes to average over (paper: 20).
    pub mi_targets: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Restrict to these dataset profiles (empty = all four).
    pub only_datasets: Vec<String>,
    /// Drop columns with support above this before querying.
    ///
    /// The paper caps at 1000 with `N` up to 33.7M, i.e. `N/u_max ≈ 3×10⁴`
    /// and `N/ū ≈ 33` for the worst attribute *pair*. At a reduced row
    /// scale the same 1000-cap puts MI queries in a different regime
    /// (`ū ≥ N`: the joint-support bias term cannot converge before the
    /// sample reaches `N`). Use a proportionally smaller cap (e.g. 100 at
    /// scale 1/64) to study the paper's regime — see EXPERIMENTS.md.
    pub max_support: u32,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            // 1/64 of the paper's rows: pus ≈ 489k × 179 columns — large
            // enough for sampling to matter, small enough for a laptop.
            scale: 1.0 / 64.0,
            seed: 0x5170,
            // Paper averages over 20 targets; 5 keeps `all` under ~15 min.
            // Raise with --targets to match the paper exactly.
            mi_targets: 5,
            out_dir: PathBuf::from("results"),
            only_datasets: Vec::new(),
            max_support: DEFAULT_MAX_SUPPORT,
        }
    }
}

impl ExpConfig {
    /// Generates the four census-like datasets at this config's scale.
    ///
    /// Generation is deterministic, so every experiment sees identical
    /// data for a given `(scale, seed)`.
    pub fn datasets(&self) -> Vec<(String, Dataset)> {
        corpus::all(self.scale)
            .into_iter()
            .filter(|p| self.only_datasets.is_empty() || self.only_datasets.contains(&p.name))
            .map(|p| {
                let name = p.name.clone();
                let ds = generate(&p, self.seed);
                let (ds, _) = ds.cap_support(self.max_support);
                (name, ds)
            })
            .collect()
    }

    /// Deterministically picks `mi_targets` target attributes for MI
    /// experiments: spread across the attribute range so targets cover
    /// different archetypes.
    pub fn pick_targets(&self, num_attrs: usize) -> Vec<usize> {
        let want = self.mi_targets.clamp(1, num_attrs);
        (0..want).map(|i| (i * num_attrs / want + (self.seed as usize % 7)) % num_attrs).collect()
    }
}

/// The runs behind one [`Row`], which reports their mean (a single run,
/// or one per MI target or seed).
#[derive(Default)]
pub struct Tally {
    runs: usize,
    millis: f64,
    accuracy: f64,
    sample_size: usize,
    rows_scanned: u64,
    phases: PhaseAccumulator,
}

impl Tally {
    /// Times `shape` — SWOPE's or a comparator's — over the whole of `ds`
    /// on the adaptive loop and adds the run, per-phase wall clock
    /// included; `accuracy` scores the returned attributes. A `sketch`
    /// gives MI shapes their exact marginals (read inside the timed call),
    /// the paper's rows run without one.
    pub fn run(
        &mut self,
        ds: &Dataset,
        shape: Shape,
        sketch: Option<&DatasetSketch>,
        cfg: &SwopeConfig,
        accuracy: impl FnOnce(&[AttrIndex]) -> f64,
    ) -> Answer {
        let (millis, answer) = time_ms(|| {
            let exec = Executor::new(cfg.threads);
            run(ds, &shape, &Scope::all(), sketch, cfg, &mut self.phases, &exec).unwrap()
        });
        let attrs: Vec<AttrIndex> = answer.scores.iter().map(|s| s.attr).collect();
        self.add(millis, accuracy(&attrs), answer.stats.sample_size, answer.stats.rows_scanned);
        answer
    }

    /// Adds a run measured elsewhere (Exact, OneShot): no phases.
    pub fn add(&mut self, millis: f64, accuracy: f64, sample_size: usize, rows_scanned: u64) {
        self.runs += 1;
        self.millis += millis;
        self.accuracy += accuracy;
        self.sample_size += sample_size;
        self.rows_scanned += rows_scanned;
    }

    /// The mean run, as the row of one cell.
    pub fn row(self, experiment: &str, dataset: &str, algo: impl Into<String>, param: f64) -> Row {
        let runs = self.runs.max(1);
        Row {
            experiment: experiment.into(),
            dataset: dataset.into(),
            algo: algo.into(),
            param,
            millis: self.millis / runs as f64,
            accuracy: self.accuracy / runs as f64,
            sample_size: self.sample_size / runs,
            rows_scanned: self.rows_scanned / runs as u64,
            phase_ns: self.phases.nanos.map(|n| n / runs as u64),
        }
    }
}

/// Times one closure invocation, returning `(elapsed_ms, output)`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ExpConfig::default();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
        assert!(c.mi_targets >= 1);
    }

    #[test]
    fn pick_targets_unique_and_in_range() {
        let c = ExpConfig { mi_targets: 5, ..Default::default() };
        let t = c.pick_targets(100);
        assert_eq!(t.len(), 5);
        let unique: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(t.iter().all(|&a| a < 100));
    }

    #[test]
    fn pick_targets_clamps_to_attr_count() {
        let c = ExpConfig { mi_targets: 50, ..Default::default() };
        let t = c.pick_targets(3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tally_reports_the_mean_run() {
        let mut tally = Tally::default();
        tally.add(2.0, 1.0, 100, 1_000);
        tally.add(4.0, 0.5, 201, 3_000);
        let row = tally.row("fig5", "cdc", "Exact", 4.0);
        assert_eq!((row.millis, row.accuracy), (3.0, 0.75));
        assert_eq!((row.sample_size, row.rows_scanned), (150, 2_000));
        assert_eq!(row.phase_ns, [0; Phase::COUNT]);
    }

    #[test]
    fn time_ms_returns_output() {
        let (ms, v) = time_ms(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn datasets_have_table2_shapes() {
        let c = ExpConfig { scale: 0.0005, ..Default::default() };
        let ds = c.datasets();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds[0].0, "cdc");
        assert_eq!(ds[0].1.num_attrs(), 100);
        assert_eq!(ds[2].1.num_attrs(), 179);
    }
}
