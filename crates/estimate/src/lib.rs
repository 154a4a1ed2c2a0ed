//! # swope-estimate
//!
//! Estimation substrate for the SWOPE framework: empirical entropy and
//! mutual information computation, incremental frequency counting, and the
//! permutation concentration bounds the paper's algorithms are built on.
//!
//! ## Layout
//!
//! * [`xlog`] — fast `x·log2(x)` with a precomputed small-value table.
//! * [`freq`] — counters: dense per-value counts, an Fx-hashed sparse map
//!   for attribute-pair counting, and an adaptive [`freq::PairCounter`].
//! * [`entropy`] — O(1)-update entropy accumulators over those counters
//!   ([`entropy::EntropyCounter`]) plus one-shot helpers
//!   ([`entropy::entropy_from_counts`], [`entropy::column_entropy`]).
//! * [`joint`] — the pairwise analogue ([`joint::JointEntropyCounter`]) and
//!   exact joint-entropy / mutual-information helpers.
//! * [`bounds`] — Lemmas 1–4 of the paper: the bias bound `b(α)`, the
//!   deviation radius `λ`, entropy/MI confidence intervals, and the
//!   `M*` sample-size inversion used in the complexity analysis.
//!
//! All entropies are in bits (`log2`), matching the paper's definitions.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod entropy;
pub mod freq;
pub mod joint;
pub mod xlog;
