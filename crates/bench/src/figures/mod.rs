//! One runner per paper experiment (Table 2, Figures 1–12).
//!
//! Time and accuracy figures that share runs are produced by a single
//! runner: the paper's Figure 1 (time) and Figure 2 (accuracy) come from
//! the same set of queries, so `entropy_topk::run` measures both and the
//! dispatcher emits whichever view was requested.

pub mod ablations;
pub mod entropy_filter;
pub mod entropy_topk;
pub mod mi_filter;
pub mod mi_topk;
pub mod table2;
pub mod tuning;

use crate::harness::{ExpConfig, Row};
use crate::report;

/// The paper's experiments, deduplicated by underlying run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 2: dataset summary.
    Table2,
    /// Figures 1–2: entropy top-k time and accuracy.
    EntropyTopk,
    /// Figures 3–4: entropy filtering time and accuracy.
    EntropyFilter,
    /// Figures 5–6: MI top-k time and accuracy.
    MiTopk,
    /// Figures 7–8: MI filtering time and accuracy.
    MiFilter,
    /// Figure 9: tuning ε, entropy top-k (k = 4).
    TuneEntropyTopk,
    /// Figure 10: tuning ε, entropy filtering (η = 2).
    TuneEntropyFilter,
    /// Figure 11: tuning ε, MI top-k (k = 4).
    TuneMiTopk,
    /// Figure 12: tuning ε, MI filtering (η = 0.3).
    TuneMiFilter,
    /// Ablation: parallel per-attribute scaling (DESIGN.md choice 4).
    ExtThreads,
    /// Ablation: SWOPE vs naive one-shot sampling at equal budgets.
    ExtOneshot,
    /// Ablation: initial-sample-size (M0) sensitivity.
    ExtM0,
}

impl Experiment {
    /// All experiments, in paper order, followed by the ablations.
    pub const ALL: [Experiment; 12] = [
        Experiment::Table2,
        Experiment::EntropyTopk,
        Experiment::EntropyFilter,
        Experiment::MiTopk,
        Experiment::MiFilter,
        Experiment::TuneEntropyTopk,
        Experiment::TuneEntropyFilter,
        Experiment::TuneMiTopk,
        Experiment::TuneMiFilter,
        Experiment::ExtThreads,
        Experiment::ExtOneshot,
        Experiment::ExtM0,
    ];

    /// Parses a CLI experiment id (`table2`, `fig1` … `fig12`).
    pub fn parse(id: &str) -> Option<Experiment> {
        Some(match id {
            "table2" => Experiment::Table2,
            "fig1" | "fig2" => Experiment::EntropyTopk,
            "fig3" | "fig4" => Experiment::EntropyFilter,
            "fig5" | "fig6" => Experiment::MiTopk,
            "fig7" | "fig8" => Experiment::MiFilter,
            "fig9" => Experiment::TuneEntropyTopk,
            "fig10" => Experiment::TuneEntropyFilter,
            "fig11" => Experiment::TuneMiTopk,
            "fig12" => Experiment::TuneMiFilter,
            "ext-threads" => Experiment::ExtThreads,
            "ext-oneshot" => Experiment::ExtOneshot,
            "ext-m0" => Experiment::ExtM0,
            _ => return None,
        })
    }

    /// The figure/table ids this experiment's rows reproduce.
    pub fn figure_ids(&self) -> &'static [&'static str] {
        match self {
            Experiment::Table2 => &["table2"],
            Experiment::EntropyTopk => &["fig1", "fig2"],
            Experiment::EntropyFilter => &["fig3", "fig4"],
            Experiment::MiTopk => &["fig5", "fig6"],
            Experiment::MiFilter => &["fig7", "fig8"],
            Experiment::TuneEntropyTopk => &["fig9"],
            Experiment::TuneEntropyFilter => &["fig10"],
            Experiment::TuneMiTopk => &["fig11"],
            Experiment::TuneMiFilter => &["fig12"],
            Experiment::ExtThreads => &["ext-threads"],
            Experiment::ExtOneshot => &["ext-oneshot"],
            Experiment::ExtM0 => &["ext-m0"],
        }
    }

    /// The swept parameter's name, for table headers.
    pub fn param_name(&self) -> &'static str {
        match self {
            Experiment::Table2 => "columns",
            Experiment::EntropyTopk | Experiment::MiTopk => "k",
            Experiment::EntropyFilter | Experiment::MiFilter => "eta",
            Experiment::ExtThreads => "threads",
            Experiment::ExtOneshot => "budget",
            Experiment::ExtM0 => "m0_mult",
            _ => "epsilon",
        }
    }

    /// Runs the experiment, returning one row per measured cell.
    pub fn run(&self, cfg: &ExpConfig) -> Vec<Row> {
        match self {
            Experiment::Table2 => table2::run(cfg),
            Experiment::EntropyTopk => entropy_topk::run(cfg),
            Experiment::EntropyFilter => entropy_filter::run(cfg),
            Experiment::MiTopk => mi_topk::run(cfg),
            Experiment::MiFilter => mi_filter::run(cfg),
            Experiment::TuneEntropyTopk => tuning::run_entropy_topk(cfg),
            Experiment::TuneEntropyFilter => tuning::run_entropy_filter(cfg),
            Experiment::TuneMiTopk => tuning::run_mi_topk(cfg),
            Experiment::TuneMiFilter => tuning::run_mi_filter(cfg),
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
        let mut ids: Vec<&str> = Experiment::ALL
            .iter()
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
