//! # swope-core
//!
//! **SWOPE** — *Sampling WithOut replacement for emPirical Entropy* — the
//! approximate top-k and filtering query algorithms of
//! *"Efficient Approximate Algorithms for Empirical Entropy and Mutual
//! Information"* (Chen & Wang, SIGMOD 2021).
//!
//! ## Queries
//!
//! Given a columnar [`swope_columnar::Dataset`] with `N` records and `h`
//! categorical attributes:
//!
//! * [`entropy_top_k`] (Algorithm 1) — the k attributes with (approximately)
//!   the highest empirical entropy, satisfying Definition 5: every returned
//!   attribute's estimate is within `(1−ε)` of its exact score, and its
//!   exact score is within `(1−ε)` of the true i-th largest.
//! * [`entropy_filter`] (Algorithm 2) — attributes with empirical entropy
//!   (approximately) above a threshold `η`, satisfying Definition 6:
//!   attributes scoring `≥ (1+ε)η` are always returned, attributes scoring
//!   `< (1−ε)η` never, and the band between is unconstrained.
//! * [`mi_top_k`] (Algorithm 3) and [`mi_filter`] (Algorithm 4) — the same
//!   queries on empirical mutual information against a target attribute.
//!
//! All guarantees hold with probability `1 − p_f` (the failure probability
//! in [`SwopeConfig`]).
//!
//! Those four, [`entropy_profile`] and [`mi_profile`] are conveniences
//! over the one entry point [`run`], which answers any [`Shape`] — entropy
//! or mutual information under one of five [`Rule`]s — over a
//! [`Scope`] of the dataset (optionally backed by its partition sketch),
//! with a [`QueryObserver`] and an [`Executor`] attached; [`run_sharded`]
//! answers the same shapes from the merged integer counts of a
//! [`ShardTransport`].
//!
//! ## How it works
//!
//! Each query adaptively doubles a sample drawn *without replacement*
//! (modelled as a growing prefix of a random permutation — see
//! `swope-sampling`), maintains per-attribute confidence intervals from the
//! permutation concentration bounds in `swope-estimate::bounds`, and stops
//! as soon as the paper's relative-width stopping rule certifies the
//! approximate answer. Expected cost is
//! `O(min{hN, h·log(h·log N / p_f)·log²N / (ε²·s²)})` where `s` is the k-th
//! best score (top-k) or the threshold `η` (filtering) — *independent of
//! the gap* between adjacent scores that the exact algorithms
//! (EntropyRank/EntropyFilter) pay for.
//!
//! ## Example
//!
//! ```
//! use swope_columnar::DatasetBuilder;
//! use swope_core::{entropy_top_k, SwopeConfig};
//!
//! let mut b = DatasetBuilder::new(vec!["skewed".into(), "uniform".into()]);
//! for i in 0..1000u32 {
//!     let skewed = if i % 10 == 0 { "rare" } else { "common" };
//!     b.push_row(&[skewed.to_string(), format!("v{}", i % 16)]).unwrap();
//! }
//! let ds = b.finish();
//!
//! let result = entropy_top_k(&ds, 1, &SwopeConfig::default()).unwrap();
//! assert_eq!(result.top[0].name, "uniform"); // ~4 bits vs ~0.47 bits
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod config;
pub mod count;
mod driver;
mod error;
pub mod exec;
mod filter;
mod measure;
mod observe;
mod profile;
mod report;
mod scope;
pub mod shard;
mod state;
mod topk;

pub use config::SwopeConfig;
pub use count::{
    count_candidate, count_target, CountScratch, CountState, PairCountState, TargetBuf, TargetCodes,
};
pub use driver::{run, run_sharded, Answer, Rule, Shape};
pub use error::SwopeError;
pub use exec::{ExecPool, ExecStats, Executor};
pub use filter::{entropy_filter, mi_filter};
pub use profile::{entropy_profile, mi_profile, ProfileResult};
pub use report::{AttrScore, FilterResult, IterationTrace, QueryStats, TopKResult, WorkKind};
pub use scope::{entropy_filter_scoped_exec, entropy_top_k_scoped_exec, sketch_marginals, Scope};
pub use shard::{AttrMeta, CountRequest, LocalShardSource, ShardCounts, ShardPlan, ShardTransport};
pub use topk::{entropy_top_k, mi_top_k};

// Re-export the observer vocabulary so downstream crates can attach
// observers without depending on `swope-obs` directly.
pub use swope_obs::{
    ComposedObserver, JsonlSink, MetricsRegistry, NoopObserver, Phase, QueryKind, QueryObserver,
};

// Re-export the storage layer's gather instrumentation for the server's
// request tracer (the server depends on core, not on swope-store).
pub use swope_store::gather_stats;
