//! What an adaptive query scores: empirical entropy of every attribute
//! (Alg. 1–2) or mutual information of every candidate against a target
//! (Alg. 3–4).
//!
//! The paper presents Alg. 3–4 as Alg. 1–2 with the §4.1 interval
//! substituted. [`Measure`] is that substitution: the per-candidate
//! state, the failure budget's divisor, the interval width, and how one
//! iteration's new rows — gathered locally or merged from shards — reach
//! the states. [`crate::driver`] runs the one doubling loop over it.

use swope_columnar::{AttrIndex, Dataset};

use crate::driver::CountSource;
use crate::exec::Executor;
use crate::report::WorkKind;
use crate::scope::Growth;
use crate::shard::{merge_apply_entropy, merge_apply_mi, CountRequest, ShardCounts};
use crate::state::{EntropyState, GatherScratch, MiState, TargetState};
use crate::SwopeError;

/// The interval view the top-k, filter and profile rules decide on;
/// [`EntropyState`] answers from its Lemma-3 bounds, [`MiState`] from its
/// §4.1 bounds.
pub(crate) trait Candidate {
    fn attr(&self) -> AttrIndex;
    fn lower(&self) -> f64;
    fn upper(&self) -> f64;
    fn width(&self) -> f64;
    fn point_estimate(&self) -> f64;
    /// The bias part of the width: `b(α)`, or `b′(α)` for MI.
    fn bias(&self) -> f64;
}

impl Candidate for EntropyState {
    fn attr(&self) -> AttrIndex {
        self.attr
    }
    fn lower(&self) -> f64 {
        self.bounds.lower
    }
    fn upper(&self) -> f64 {
        self.bounds.upper
    }
    fn width(&self) -> f64 {
        self.bounds.width()
    }
    fn point_estimate(&self) -> f64 {
        self.bounds.point_estimate()
    }
    fn bias(&self) -> f64 {
        self.bounds.bias
    }
}

impl Candidate for MiState {
    fn attr(&self) -> AttrIndex {
        self.attr
    }
    fn lower(&self) -> f64 {
        self.bounds.lower
    }
    fn upper(&self) -> f64 {
        self.bounds.upper
    }
    fn width(&self) -> f64 {
        self.bounds.width()
    }
    fn point_estimate(&self) -> f64 {
        self.bounds.point_estimate()
    }
    fn bias(&self) -> f64 {
        self.bounds.bias_total
    }
}

/// One of the two scores, as the driver and the count sources use it.
pub(crate) trait Measure {
    /// Per-candidate counters and current interval.
    type State: Candidate + Send;

    /// Lemma-3 applications per candidate and iteration. The failure
    /// budget is split over every application the query can make:
    /// `p′ = p_f / (APPLICATIONS · i_max · candidates)` (Theorem 1's union
    /// bound; three for MI — `H(α_t)`, `H(α)`, `H(α_t, α)` — Alg. 3 line 1).
    const APPLICATIONS: f64;

    /// The interval is `WIDTH_LAMBDAS·λ + bias` wide: `2λ + b`, or
    /// `6λ + b′` for the three combined entropy intervals of §4.1.
    const WIDTH_LAMBDAS: f64;

    /// What `rows_scanned` charges per sampled record.
    const WORK: WorkKind;

    /// One state per candidate, in attribute order.
    fn states<S: CountSource>(&self, source: &S) -> Vec<Self::State>;

    /// Counts `grown`'s rows of a local dataset straight into the states.
    fn ingest(
        &mut self,
        states: &mut [Self::State],
        dataset: &Dataset,
        grown: &Growth<'_>,
        scratch: &mut GatherScratch,
        exec: &Executor,
    );

    /// What a sharded iteration asks every shard to count.
    fn request(&self, states: &[Self::State]) -> CountRequest;

    /// Merges the shards' replies to [`Measure::request`] and drains them
    /// into the states in canonical order.
    fn apply_merged(
        &mut self,
        shards: Vec<ShardCounts>,
        states: &mut [Self::State],
    ) -> Result<(), SwopeError>;

    /// Refreshes every state's interval at population `n` and budget `p`.
    fn update_bounds(&self, states: &mut [Self::State], n: u64, p: f64, exec: &Executor);

    /// The exact score of `st` once the sample is the whole population.
    fn exact_score(&self, st: &Self::State) -> f64;
}

/// Empirical entropy of every attribute.
pub(crate) struct Entropy;

impl Measure for Entropy {
    type State = EntropyState;
    const APPLICATIONS: f64 = 1.0;
    const WIDTH_LAMBDAS: f64 = 2.0;
    const WORK: WorkKind = WorkKind::EntropyMarginals;

    fn states<S: CountSource>(&self, source: &S) -> Vec<EntropyState> {
        (0..source.num_attrs())
            .map(|attr| {
                let mut st = EntropyState::with_support(attr, source.support(attr));
                if let Some(dist) = source.covered(attr) {
                    st.set_covered(dist);
                }
                st
            })
            .collect()
    }

    fn ingest(
        &mut self,
        states: &mut [EntropyState],
        dataset: &Dataset,
        grown: &Growth<'_>,
        scratch: &mut GatherScratch,
        exec: &Executor,
    ) {
        exec.for_each2(states, scratch.slots(states.len()), |st, buf| {
            st.ingest_covered(grown.covered_k);
            st.ingest_staged(dataset.column(st.attr), grown.delta, buf);
        });
    }

    fn request(&self, states: &[EntropyState]) -> CountRequest {
        CountRequest { target: None, live: states.iter().map(|st| st.attr).collect() }
    }

    fn apply_merged(
        &mut self,
        shards: Vec<ShardCounts>,
        states: &mut [EntropyState],
    ) -> Result<(), SwopeError> {
        merge_apply_entropy(shards, states)
    }

    fn update_bounds(&self, states: &mut [EntropyState], n: u64, p: f64, exec: &Executor) {
        exec.for_each_mut(states, |st| st.update_bounds(n, p));
    }

    fn exact_score(&self, st: &EntropyState) -> f64 {
        st.sample_entropy()
    }
}

/// Mutual information of every other attribute with a target. The
/// target's marginal is shared by all candidates and lives here.
pub(crate) struct Mi {
    target: TargetState,
}

impl Mi {
    /// MI against `target`, which the caller has checked is in range.
    pub(crate) fn new<S: CountSource>(target: AttrIndex, source: &S) -> Self {
        Self { target: TargetState::with_support(target, source.support(target)) }
    }
}

impl Measure for Mi {
    type State = MiState;
    const APPLICATIONS: f64 = 3.0;
    const WIDTH_LAMBDAS: f64 = 6.0;
    const WORK: WorkKind = WorkKind::MiPerTarget;

    /// The joint support is bounded by `ū = u_t·u_α`: tracking exact pair
    /// supports for all pairs in advance is impractical (§4.1).
    fn states<S: CountSource>(&self, source: &S) -> Vec<MiState> {
        let (target, u_t) = (self.target.attr, self.target.support);
        (0..source.num_attrs())
            .filter(|&a| a != target)
            .map(|a| MiState::new(a, u_t, source.support(a)))
            .collect()
    }

    fn ingest(
        &mut self,
        states: &mut [MiState],
        dataset: &Dataset,
        grown: &Growth<'_>,
        scratch: &mut GatherScratch,
        exec: &Executor,
    ) {
        // Gather the target codes once; every candidate reuses them.
        let (t_buf, slots) = scratch.target_and_slots(states.len());
        self.target.ingest_into(dataset.column(self.target.attr), grown.delta, t_buf);
        let t_codes = t_buf.codes();
        exec.for_each2(states, slots, |st, buf| {
            st.ingest_staged(dataset.column(st.attr), t_codes, grown.delta, buf);
        });
    }

    fn request(&self, states: &[MiState]) -> CountRequest {
        CountRequest {
            target: Some(self.target.attr),
            live: states.iter().map(|st| st.attr).collect(),
        }
    }

    fn apply_merged(
        &mut self,
        shards: Vec<ShardCounts>,
        states: &mut [MiState],
    ) -> Result<(), SwopeError> {
        merge_apply_mi(shards, &mut self.target, states)
    }

    fn update_bounds(&self, states: &mut [MiState], n: u64, p: f64, exec: &Executor) {
        let (h_t, u_t) = (self.target.sample_entropy(), self.target.support);
        exec.for_each_mut(states, |st| st.update_bounds(h_t, u_t, n, p));
    }

    fn exact_score(&self, st: &MiState) -> f64 {
        (self.target.sample_entropy() + st.sample_entropy() - st.sample_joint_entropy()).max(0.0)
    }
}
