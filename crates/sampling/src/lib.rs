//! # swope-sampling
//!
//! Sampling-without-replacement substrate for the SWOPE framework.
//!
//! The SWOPE paper models a random sample of size `M` as **the first `M`
//! records after a random shuffle** of the input (§2.2). Its algorithms
//! adaptively *double* `M`, reusing all previously sampled records; the
//! concentration bound survives this dependency because the conditional
//! expectations form a martingale (§3.1). This crate provides exactly that
//! sampling model, and no other:
//!
//! * [`PrefixShuffle`] — an incrementally extended Fisher–Yates shuffle,
//!   the one sampler every query path draws from. `grow_to(2M)` continues
//!   the *same* shuffle, so the size-`M` sample is a prefix of the
//!   size-`2M` sample (the nesting the martingale argument needs), and
//!   newly added rows are returned for incremental counting.
//! * [`DoublingSchedule`] — the `M0, 2·M0, 4·M0, …, N` sample size ladder
//!   with the paper's `i_max = ceil(log2(N/M0)) + 1` iteration count.
//! * [`hypergeometric`] — one exact variate for "how many of these `k`
//!   without-replacement draws land in that subset", so samplers that
//!   only need counts never loop per record.
//! * [`rng::SplitMix64`] / [`rng::Xoshiro256pp`] — small, fast, fully
//!   deterministic PRNGs so experiments reproduce bit-for-bit across
//!   platforms and library versions.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod hypergeometric;
pub mod rng;
mod schedule;
mod shuffle;

pub use hypergeometric::{hypergeometric, ln_factorial};
pub use schedule::DoublingSchedule;
pub use shuffle::PrefixShuffle;
