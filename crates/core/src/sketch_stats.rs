//! Process-global counts of what the hybrid sampler synthesized from
//! sketch histograms instead of reading from the store.
//!
//! `rows_scanned` charges covered-region draws zero by design (it
//! measures store traffic), which leaves them invisible; these
//! counters are the other half of the ledger, plus which sampler each
//! row-range scope was given and where each MI query's marginals came
//! from. Like
//! [`swope_store::gather_stats`] they are bumped on exec worker threads
//! far below any per-request context, so they are plain relaxed
//! atomics: statistics that publish no other data. One add per
//! attribute per iteration (and one per range or MI query), so they are
//! always on.

use std::sync::atomic::{AtomicU64, Ordering};

static COVERED_DRAWS: AtomicU64 = AtomicU64::new(0);
static HYBRID_QUERIES: AtomicU64 = AtomicU64::new(0);
static PHYSICAL_RANGES: AtomicU64 = AtomicU64::new(0);
static MI_SKETCH_MARGINALS: AtomicU64 = AtomicU64::new(0);
static MI_SAMPLED_MARGINALS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time totals of the sketch-synthesis counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchUse {
    /// Covered-region draws synthesized, summed over attributes — the
    /// unit `rows_scanned` uses for the rows it does charge.
    pub covered_draws: u64,
    /// Range-scoped entropy queries that ran the hybrid sampler.
    pub hybrid_queries: u64,
    /// Row-range scopes sampled physically: too little of the range in
    /// whole pages for the simulation to pay, an MI query, or no usable
    /// sketch.
    pub physical_ranges: u64,
    /// MI queries whose marginal entropies were read exactly from sketch
    /// histograms, sampling only the joint.
    pub mi_sketch_marginals: u64,
    /// MI queries that sampled their marginals: a scope short of the
    /// whole population, no usable sketch, or a shard without one.
    pub mi_sampled_marginals: u64,
}

/// Reads the current totals (relaxed; safe to race with queries).
pub fn snapshot() -> SketchUse {
    SketchUse {
        covered_draws: COVERED_DRAWS.load(Ordering::Relaxed),
        hybrid_queries: HYBRID_QUERIES.load(Ordering::Relaxed),
        physical_ranges: PHYSICAL_RANGES.load(Ordering::Relaxed),
        mi_sketch_marginals: MI_SKETCH_MARGINALS.load(Ordering::Relaxed),
        mi_sampled_marginals: MI_SAMPLED_MARGINALS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_covered_draws(draws: u64) {
    COVERED_DRAWS.fetch_add(draws, Ordering::Relaxed);
}

/// Counts one row-range scope under the sampler it was given.
pub(crate) fn record_range_path(hybrid: bool) {
    let path = if hybrid { &HYBRID_QUERIES } else { &PHYSICAL_RANGES };
    path.fetch_add(1, Ordering::Relaxed);
}

/// Counts one MI query under where its marginals came from.
pub(crate) fn record_mi_marginals(from_sketch: bool) {
    let source = if from_sketch { &MI_SKETCH_MARGINALS } else { &MI_SAMPLED_MARGINALS };
    source.fetch_add(1, Ordering::Relaxed);
}
