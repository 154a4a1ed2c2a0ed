//! # swope-baselines
//!
//! The comparator algorithms of the SWOPE paper's evaluation (§6):
//!
//! * [`exact`] — the full-scan exact answer to any [`swope_core::Shape`]
//!   ([`exact_answer`]), and the selection ([`exact::select`]) that turns
//!   exact scores into it. The `O(hN)` baseline every sampling method is
//!   measured against.
//! * [`rank`] — **EntropyRank** (Wang & Ding, KDD'19, the paper's reference \[32\]):
//!   adaptive sampling that returns the *exact* top-k, stopping only when
//!   the k-th largest lower bound separates from the (k+1)-th largest
//!   upper bound. Its cost scales with `1/Δ²` where `Δ` is the score gap —
//!   the weakness SWOPE's approximate stopping rule removes.
//! * [`filter`] — **EntropyFilter** (same paper): exact filtering,
//!   deciding each attribute only when its interval clears the threshold
//!   entirely; cost scales with `1/δ²` where `δ` is the smallest
//!   score-to-threshold distance.
//! * [`mi`] — the EntropyRank/EntropyFilter machinery lifted to empirical
//!   mutual information, as used in the paper's §6.3 comparisons.
//!
//! * [`oneshot`] — one fixed-size sample and plug-in scores, no
//!   intervals: the strawman of the `ext-oneshot` ablation.
//!
//! EntropyRank, EntropyFilter and their MI lifts are not copies of
//! SWOPE's loop: each is a stopping rule on `swope-core`'s one adaptive
//! loop ([`swope_core::run`] with a comparator [`swope_core::Rule`]), so sampler,
//! schedule, failure-budget split, counting, bounds and pruning are the
//! same code and a measured difference *is* the stopping rule — the
//! paper's contribution. OneShot samples and counts through a one-shard
//! [`swope_core::LocalShardSource`]; only [`exact`] walks the columns
//! itself.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod exact;
pub mod filter;
pub mod mi;
pub mod oneshot;
pub mod rank;

use swope_columnar::Dataset;
use swope_core::{run, Answer, Executor, NoopObserver, Scope, Shape, SwopeConfig, SwopeError};

pub use oneshot::{oneshot_entropy_top_k, oneshot_mi_top_k};

pub use exact::{exact_answer, exact_entropy_scores, exact_mi_scores};
pub use filter::entropy_filter_exact_sampling;
pub use mi::{mi_filter_exact_sampling, mi_rank_top_k};
pub use rank::entropy_rank_top_k;

/// `shape` over the whole of `dataset`, unobserved, on `config.threads`
/// workers — what `swope-core`'s paper-named functions do for Alg. 1–4.
fn run_whole(dataset: &Dataset, shape: Shape, config: &SwopeConfig) -> Result<Answer, SwopeError> {
    let exec = Executor::new(config.threads);
    run(dataset, &shape, &Scope::all(), None, config, &mut NoopObserver, &exec)
}
