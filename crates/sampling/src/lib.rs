//! # swope-sampling
//!
//! Sampling-without-replacement substrate for the SWOPE framework.
//!
//! The SWOPE paper models a random sample of size `M` as **the first `M`
//! records after a random shuffle** of the input (§2.2). Its algorithms
//! adaptively *double* `M`, reusing all previously sampled records; the
//! concentration bound survives this dependency because the conditional
//! expectations form a martingale (§3.1). This crate provides that
//! sampling model in two forms, one per kind of population:
//!
//! * [`PagePrefix`] over [`PageMembers`] of a [`PageLayout`] — every
//!   query's sampler. The layout is a fixed, seeded shuffle of the rows
//!   *within* each 65 536-row page, which heap columns store their codes
//!   in; a population is, per page, the slots of its rows. Each doubling
//!   splits its draws over the pages with [`hypergeometric`] variates and
//!   takes every page's next members from a per-query start, so a whole
//!   page is read as one or two runs (`docs/THEORY.md` § "Page-prefix
//!   sampling": uniform and nested, as a prefix shuffle's).
//! * [`PrefixShuffle`] — §2.2's model as an incrementally extended
//!   Fisher–Yates shuffle over `0..n`, for examples, benches and tests.
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
pub use page::{PageLayout, PageMembers, PagePrefix, Positions, LAYOUT_SEED};
pub use schedule::DoublingSchedule;
pub use shuffle::PrefixShuffle;
