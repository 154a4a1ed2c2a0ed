//! # swope-sampling
//!
//! Sampling-without-replacement substrate for the SWOPE framework.
//!
//! The SWOPE paper models a random sample of size `M` as **the first `M`
//! records after a random shuffle** of the input (§2.2). Its algorithms
//! adaptively *double* `M`, reusing all previously sampled records; the
//! concentration bound survives this dependency because the conditional
//! expectations form a martingale (§3.1). This crate provides exactly that
//! sampling model:
//!
//! * [`PrefixShuffle`] — an incrementally extended Fisher–Yates shuffle.
//!   `grow_to(2M)` continues the *same* shuffle, so the size-`M` sample is a
//!   prefix of the size-`2M` sample (the nesting the martingale argument
//!   needs), and newly added rows are returned for incremental counting.
//! * [`PageShuffle`] — the paper's §6.1 cache optimization: shuffle fixed
//!   size row *pages* instead of rows, so columnar scans of the sample are
//!   sequential within pages.
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
mod page;
pub mod rng;
mod schedule;
mod shuffle;

pub use hypergeometric::{hypergeometric, ln_factorial};
pub use page::PageShuffle;
pub use schedule::DoublingSchedule;
pub use shuffle::PrefixShuffle;

/// A growable sample-without-replacement over rows `0..N`.
///
/// Implementations maintain a *sample prefix*: a uniformly random subset of
/// rows whose identity is stable as the sample grows (old rows are never
/// replaced). This is the contract the SWOPE doubling loop relies on.
pub trait Sampler {
    /// Total number of rows `N` in the population.
    fn num_rows(&self) -> usize;

    /// Current sample size `M`.
    fn sampled(&self) -> usize;

    /// Grows the sample to at least `target` rows, capped at `N`.
    ///
    /// Returns the slice of **newly added** row indices (the delta between
    /// the old and new sample), enabling O(ΔM) incremental counter updates.
    /// Implementations may overshoot `target` (e.g. to a page boundary).
    fn grow_to(&mut self, target: usize) -> &[u32];

    /// All currently sampled row indices, in sampling order.
    fn rows(&self) -> &[u32];

    /// Grows the sample like [`Sampler::grow_to`], but returns the delta
    /// as a **range into [`Sampler::rows`]** instead of a borrowed slice.
    ///
    /// This is the zero-copy form the adaptive loops use: holding
    /// `grow_to`'s returned slice borrows the sampler mutably for the
    /// whole iteration, so callers historically copied it into a fresh
    /// `Vec` every iteration. With a range, the caller re-slices
    /// `self.rows()[range]` immutably and nothing is allocated.
    fn grow_delta(&mut self, target: usize) -> std::ops::Range<usize> {
        let before = self.sampled();
        self.grow_to(target);
        before..self.sampled()
    }
}
