//! What an adaptive query scores: empirical entropy of every attribute
//! (Alg. 1–2) or mutual information of every candidate against a target
//! (Alg. 3–4).
//!
//! The paper presents Alg. 3–4 as Alg. 1–2 with the §4.1 interval
//! substituted. [`Measure`] is that substitution: the per-candidate
//! state, the [`Interval`] (failure budget's divisor and width), and how
//! one iteration's new rows — gathered locally or merged from shards —
//! reach the states. [`crate::driver`] runs the one doubling loop over it.

use swope_columnar::{AttrIndex, Dataset};
use swope_estimate::entropy::entropy_from_counts;
use swope_obs::{Phase, QueryObserver};

use crate::driver::CountSource;
use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::report::WorkKind;
use crate::scope::Growth;
use crate::shard::{merge, CountRequest, ShardCounts};
use crate::state::{EntropyState, GatherScratch, MiState, TargetState};
use crate::{sketch_stats, SwopeError};

/// How a query's interval spends λ, fixed once per query before the
/// first iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Interval {
    /// Lemma-3 applications per candidate and iteration. The failure
    /// budget is split over every application the query can make:
    /// `p′ = p_f / (applications · i_max · candidates)` (Theorem 1's
    /// union bound).
    pub applications: f64,
    /// The interval is `width_lambdas·λ + bias` wide; the top-k rule's
    /// stopping test subtracts that many λ.
    pub width_lambdas: f64,
}

impl Interval {
    /// Lemma 3 on one sampled entropy: `2λ + b`. An entropy query's
    /// interval, and MI's once both marginals are exact and only the
    /// joint is sampled (`2λ + b(α_t, α)`).
    pub const ONE_ENTROPY: Self = Self { applications: 1.0, width_lambdas: 2.0 };

    /// §4.1's three sampled entropies — `H(α_t)`, `H(α)`, `H(α_t, α)`
    /// (Alg. 3 line 1): `6λ + b′`.
    pub const THREE_ENTROPIES: Self = Self { applications: 3.0, width_lambdas: 6.0 };
}

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

    /// What `rows_scanned` charges per sampled record.
    const WORK: WorkKind;

    /// One state per candidate, in attribute order.
    fn states<S: CountSource>(&self, source: &S) -> Vec<Self::State>;

    /// Takes what `source` knows exactly before the first iteration and
    /// returns the query's interval; `it` times any work that costs.
    fn prepare<S: CountSource, O: QueryObserver>(
        &mut self,
        source: &mut S,
        it: &mut Instrumented<'_, O>,
    ) -> Result<Interval, SwopeError>;

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

    fn prepare<S: CountSource, O: QueryObserver>(
        &mut self,
        _source: &mut S,
        _it: &mut Instrumented<'_, O>,
    ) -> Result<Interval, SwopeError> {
        Ok(Interval::ONE_ENTROPY)
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
        let mut merged = merge(shards, states.len())?;
        for (st, delta) in states.iter_mut().zip(&mut merged.attrs) {
            st.apply_delta(delta);
        }
        Ok(())
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
    /// Every attribute's exact entropy `H_D`, when the source holds the
    /// population's marginals; the interval then samples only the joint.
    exact: Option<Vec<f64>>,
}

impl Mi {
    /// MI against `target`, which the caller has checked is in range.
    pub(crate) fn new<S: CountSource>(target: AttrIndex, source: &S) -> Self {
        Self { target: TargetState::with_support(target, source.support(target)), exact: None }
    }
}

impl Measure for Mi {
    type State = MiState;
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

    /// Asks the source for the population's marginals. Both paths turn
    /// the same integer counts into `H_D` through the same function, so
    /// a single box and a cluster over the same rows answer alike.
    fn prepare<S: CountSource, O: QueryObserver>(
        &mut self,
        source: &mut S,
        it: &mut Instrumented<'_, O>,
    ) -> Result<Interval, SwopeError> {
        let span = it.phase_start();
        let marginals = source.marginals()?;
        self.exact =
            marginals.map(|counts| counts.iter().map(|c| entropy_from_counts(c)).collect());
        it.phase_end(Phase::StoreSketch, span);
        sketch_stats::record_mi_marginals(self.exact.is_some());
        Ok(match self.exact {
            Some(_) => Interval::ONE_ENTROPY,
            None => Interval::THREE_ENTROPIES,
        })
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
        let mut merged = merge(shards, states.len())?;
        let mut target = merged
            .target
            .ok_or_else(|| SwopeError::Transport("shard omitted the target histogram".into()))?;
        self.target.apply_delta(&mut target);
        let candidates = merged.attrs.iter_mut().zip(&mut merged.joints);
        for (st, (delta, joint)) in states.iter_mut().zip(candidates) {
            st.apply_delta(delta, joint);
        }
        Ok(())
    }

    fn update_bounds(&self, states: &mut [MiState], n: u64, p: f64, exec: &Executor) {
        let u_t = self.target.support;
        match &self.exact {
            Some(h) => {
                let h_t = h[self.target.attr];
                exec.for_each_mut(states, |st| st.update_bounds_exact(h_t, h[st.attr], u_t, n, p));
            }
            None => {
                let h_t = self.target.sample_entropy();
                exec.for_each_mut(states, |st| st.update_bounds(h_t, u_t, n, p));
            }
        }
    }

    fn exact_score(&self, st: &MiState) -> f64 {
        let (h_t, h_a) = match &self.exact {
            Some(h) => (h[self.target.attr], h[st.attr]),
            None => (self.target.sample_entropy(), st.sample_entropy()),
        };
        (h_t + h_a - st.sample_joint_entropy()).max(0.0)
    }
}
