//! The paper's experiments (Table 2, Figures 1–12) and the ablations.
//!
//! Figures 1–12 are rows of one table, [`sweep::SWEEPS`], run by one
//! runner; a time figure and its accuracy twin come from the same runs,
//! and the report writes whichever views were requested.

pub mod ablations;
pub mod sweep;
pub mod table2;

use crate::harness::{ExpConfig, Row};
use crate::report;
use sweep::{Sweep, SWEEPS};

/// The paper's experiments, deduplicated by underlying run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Experiment {
    /// Table 2: dataset summary.
    Table2,
    /// Figures 1–12: one parameter sweep.
    Sweep(&'static Sweep),
    /// Ablation: parallel per-attribute scaling (DESIGN.md choice 4).
    ExtThreads,
    /// Ablation: SWOPE vs naive one-shot sampling at equal budgets.
    ExtOneshot,
    /// Ablation: initial-sample-size (M0) sensitivity.
    ExtM0,
}

impl Experiment {
    /// All experiments, in paper order, followed by the ablations.
    pub fn all() -> impl Iterator<Item = Experiment> {
        std::iter::once(Experiment::Table2).chain(SWEEPS.iter().map(Experiment::Sweep)).chain([
            Experiment::ExtThreads,
            Experiment::ExtOneshot,
            Experiment::ExtM0,
        ])
    }

    /// Parses a CLI experiment id (`table2`, `fig1` … `fig12`, `ext-…`).
    pub fn parse(id: &str) -> Option<Experiment> {
        Self::all().find(|e| e.figure_ids().contains(&id))
    }

    /// The figure/table ids this experiment's rows reproduce.
    pub fn figure_ids(&self) -> &'static [&'static str] {
        match self {
            Experiment::Table2 => &["table2"],
            Experiment::Sweep(sweep) => sweep.ids,
            Experiment::ExtThreads => &["ext-threads"],
            Experiment::ExtOneshot => &["ext-oneshot"],
            Experiment::ExtM0 => &["ext-m0"],
        }
    }

    /// The swept parameter's name, for table headers.
    pub fn param_name(&self) -> &'static str {
        match self {
            Experiment::Table2 => "columns",
            Experiment::Sweep(sweep) => sweep.param_name(),
            Experiment::ExtThreads => "threads",
            Experiment::ExtOneshot => "budget",
            Experiment::ExtM0 => "m0_mult",
        }
    }

    /// Runs the experiment, returning one row per measured cell.
    pub fn run(&self, cfg: &ExpConfig) -> Vec<Row> {
        match self {
            Experiment::Table2 => table2::run(cfg),
            Experiment::Sweep(sweep) => sweep.run(cfg),
            Experiment::ExtThreads => ablations::run_threads(cfg),
            Experiment::ExtOneshot => ablations::run_oneshot(cfg),
            Experiment::ExtM0 => ablations::run_m0(cfg),
        }
    }

    /// Prints the paper-style tables and writes per-figure CSV and JSON
    /// reports (the JSON carries the per-phase timing breakdown).
    pub fn report(&self, rows: &[Row], cfg: &ExpConfig) -> std::io::Result<()> {
        let ids = self.figure_ids();
        // Time view (first id) and accuracy view (second id, if any).
        println!("=== {} ===", ids.join(" + "));
        if *self == Experiment::Table2 {
            println!("{}", table2::render(rows));
        } else {
            println!(
                "{}",
                report::series_table(rows, |r| r.millis, "query time (ms)", self.param_name())
            );
            println!(
                "{}",
                report::series_table(rows, |r| r.accuracy, "accuracy", self.param_name())
            );
        }
        for id in ids {
            let mut renamed: Vec<Row> = rows.to_vec();
            for r in &mut renamed {
                r.experiment = id.to_string();
            }
            report::write_csv(&renamed, &cfg.out_dir, id)?;
            report::write_json(&renamed, &cfg.out_dir, id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_all_ids() {
        for id in ["table2", "fig1", "fig2", "fig5", "fig9", "fig12"] {
            assert!(Experiment::parse(id).is_some(), "{id}");
        }
        assert!(Experiment::parse("fig13").is_none());
        assert!(Experiment::parse("").is_none());
    }

    #[test]
    fn figure_ids_cover_every_paper_figure() {
        let mut ids: Vec<&str> = Experiment::all()
            .flat_map(|e| e.figure_ids().iter().copied())
            .filter(|id| !id.starts_with("ext-"))
            .collect();
        ids.sort_unstable();
        let mut expected = vec![
            "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12",
        ];
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn ext_ids_parse() {
        for id in ["ext-threads", "ext-oneshot", "ext-m0"] {
            assert!(Experiment::parse(id).is_some(), "{id}");
        }
    }

    #[test]
    fn fig_pairs_map_to_same_experiment() {
        assert_eq!(Experiment::parse("fig1"), Experiment::parse("fig2"));
        assert_eq!(Experiment::parse("fig7"), Experiment::parse("fig8"));
        assert_ne!(Experiment::parse("fig1"), Experiment::parse("fig3"));
    }
}
