use swope_columnar::Dataset;
use swope_estimate::bounds::initial_sample_size;

use crate::SwopeError;

/// Tunable parameters shared by every SWOPE query.
///
/// The defaults follow the paper's experimental settings where one exists:
/// `ε = 0.1` (the entropy top-k default; see [`SwopeConfig::with_epsilon`]
/// to use the paper's per-query defaults), `p_f` resolved to `1/N` at query
/// time. Every scope samples by page prefixes over its rows' slots in the
/// page layout ([`swope_sampling::PagePrefix`]), which draws the nested
/// uniform samples Lemma 2 assumes, so [`SwopeConfig::seed`] is the only
/// sampling setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SwopeConfig {
    /// Approximation parameter `ε ∈ (0, 1)` of Definitions 5–6. Smaller is
    /// more accurate and more expensive.
    pub epsilon: f64,
    /// Failure probability `p_f ∈ (0, 1)`, or `None` to use the paper's
    /// setting `p_f = 1/N` resolved against the queried dataset.
    pub failure_probability: Option<f64>,
    /// Override for the initial sample size `M0`. `None` computes the
    /// paper's `M0 = log(h·log N / p_f)·log²N / log2²(u_max)`.
    pub initial_sample: Option<usize>,
    /// Seed of the row permutation; queries with equal seeds are fully
    /// reproducible.
    pub seed: u64,
    /// Worker threads for per-attribute work. `1` (default) is fully
    /// sequential; values above the candidate count are clamped.
    pub threads: usize,
}

impl Default for SwopeConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            failure_probability: None,
            initial_sample: None,
            seed: 0x5170_5e00,
            threads: 1,
        }
    }
}

impl SwopeConfig {
    /// A config with the given `ε` and all other fields default.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self { epsilon, ..Self::default() }
    }

    /// Returns a copy with the sampling seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Validates the parameter ranges shared by all queries.
    pub fn validate(&self) -> Result<(), SwopeError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SwopeError::InvalidEpsilon(self.epsilon));
        }
        if let Some(p) = self.failure_probability {
            if !(p > 0.0 && p < 1.0) {
                return Err(SwopeError::InvalidFailureProbability(p));
            }
        }
        Ok(())
    }

    /// The failure probability to use for `dataset`: the explicit value if
    /// set, otherwise the paper's `1/N` (clamped into `(0, 0.5]` for tiny
    /// datasets where `1/N` would not be a meaningful probability).
    pub fn resolve_p_f(&self, dataset: &Dataset) -> f64 {
        self.resolve_p_f_rows(dataset.num_rows())
    }

    /// [`SwopeConfig::resolve_p_f`] against an explicit population size.
    /// Scoped queries resolve against the scope's row count `n_s`, not the
    /// dataset's `N` — the guarantees hold over the scoped population.
    pub fn resolve_p_f_rows(&self, num_rows: usize) -> f64 {
        match self.failure_probability {
            Some(p) => p,
            None => (1.0 / num_rows.max(2) as f64).min(0.5),
        }
    }

    /// The initial sample size `M0` to use for `dataset`.
    pub fn resolve_m0(&self, dataset: &Dataset, p_f: f64) -> usize {
        let max_support = dataset.schema().max_support();
        self.resolve_m0_meta(dataset.num_rows(), dataset.num_attrs(), max_support, p_f)
    }

    /// [`SwopeConfig::resolve_m0`] from a population size and schema
    /// facts alone. The driver resolves `M0` through this for every
    /// source, so a scoped query uses its scope's row count and a wire
    /// coordinator — which knows each peer's attribute metadata but holds
    /// no local `Dataset` — lands on exactly the same `M0` as a
    /// single-box run over the union population.
    pub fn resolve_m0_meta(
        &self,
        num_rows: usize,
        num_attrs: usize,
        max_support: u32,
        p_f: f64,
    ) -> usize {
        match self.initial_sample {
            Some(m0) => m0.clamp(1, num_rows.max(1)),
            None => {
                initial_sample_size(num_rows as u64, num_attrs, p_f, max_support as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};

    fn tiny_dataset(rows: usize) -> Dataset {
        let schema = Schema::new(vec![Field::new("a", 2)]);
        let col = Column::new(vec![0; rows], 2).unwrap();
        Dataset::new(schema, vec![col]).unwrap()
    }

    #[test]
    fn default_validates() {
        assert!(SwopeConfig::default().validate().is_ok());
    }

    #[test]
    fn epsilon_bounds_rejected() {
        assert!(SwopeConfig::with_epsilon(0.0).validate().is_err());
        assert!(SwopeConfig::with_epsilon(1.0).validate().is_err());
        assert!(SwopeConfig::with_epsilon(-0.5).validate().is_err());
        assert!(SwopeConfig::with_epsilon(0.999).validate().is_ok());
    }

    #[test]
    fn p_f_bounds_rejected() {
        let bad = |p| SwopeConfig { failure_probability: Some(p), ..Default::default() };
        assert!(bad(0.0).validate().is_err());
        assert!(bad(1.0).validate().is_err());
        assert!(bad(1e-9).validate().is_ok());
    }

    #[test]
    fn p_f_resolves_to_one_over_n() {
        let c = SwopeConfig::default();
        let ds = tiny_dataset(1000);
        assert!((c.resolve_p_f(&ds) - 0.001).abs() < 1e-12);
        // Tiny dataset clamps to 0.5.
        assert_eq!(c.resolve_p_f(&tiny_dataset(1)), 0.5);
    }

    #[test]
    fn m0_override_is_clamped() {
        let ds = tiny_dataset(100);
        let big = SwopeConfig { initial_sample: Some(1_000_000), ..Default::default() };
        assert_eq!(big.resolve_m0(&ds, 0.01), 100);
        let zero = SwopeConfig { initial_sample: Some(0), ..Default::default() };
        assert_eq!(zero.resolve_m0(&ds, 0.01), 1);
    }

    #[test]
    fn with_seed_replaces_the_seed() {
        assert_eq!(SwopeConfig::default().seed, 0x5170_5e00);
        let c = SwopeConfig::with_epsilon(0.2).with_seed(7);
        assert_eq!(c, SwopeConfig { epsilon: 0.2, seed: 7, ..Default::default() });
    }

    #[test]
    fn debug_format_mentions_key_parameters() {
        let c = SwopeConfig::with_epsilon(0.25).with_threads(4);
        let text = format!("{c:?}");
        assert!(text.contains("0.25"));
        assert!(text.contains("threads: 4"));
    }
}
