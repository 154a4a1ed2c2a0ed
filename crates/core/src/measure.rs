//! What an adaptive query scores: empirical entropy of every attribute
//! (Alg. 1–2) or mutual information of every candidate against a target
//! (Alg. 3–4).
//!
//! The paper presents Alg. 3–4 as Alg. 1–2 with the §4.1 interval
//! substituted. [`Measure`] is that substitution: the per-candidate
//! state, what an iteration counts, and how those counts — one
//! [`ShardCounts`], counted locally or merged from shards — reach the
//! states. The [`Interval`] (failure budget's divisor and width) is part
//! of the query's plan. [`crate::driver`] runs the one doubling loop over
//! it.

use swope_columnar::{AttrIndex, Code};

use crate::driver::CountSource;
use crate::exec::Executor;
use crate::report::WorkKind;
use crate::shard::{CountRequest, CountSink, ShardCounts};
use crate::state::{EntropyState, MiState, TargetState};
use crate::SwopeError;

/// How a query's interval spends λ, fixed by the query's plan: its
/// measure, and for MI whether the marginals are exact.
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

    /// The attribute every candidate's codes pair with, if any.
    fn target(&self) -> Option<AttrIndex> {
        None
    }

    /// Refills `req` with what an iteration counts: the target and every
    /// live candidate, in state order.
    fn request(&self, states: &[Self::State], req: &mut CountRequest) {
        req.target = self.target();
        req.live.clear();
        req.live.extend(states.iter().map(Candidate::attr));
    }

    /// Whether the states read the sampled marginal histograms. Only the
    /// local source acts on it: shards and cluster peers count every
    /// histogram a request shapes, since the wire carries no such flag.
    fn reads_marginals(&self) -> bool {
        true
    }

    /// Drains one iteration's counts for [`Measure::request`] into the
    /// states in canonical order, leaving every histogram empty.
    fn apply(
        &mut self,
        counts: &mut ShardCounts,
        states: &mut [Self::State],
    ) -> Result<(), SwopeError>;

    /// Refreshes every state's interval at population `n` and budget `p`.
    fn update_bounds(&self, states: &mut [Self::State], n: u64, p: f64, exec: &Executor);

    /// The exact score of `st` once the sample is the whole population.
    fn exact_score(&self, st: &Self::State) -> f64;

    /// Adds one entry of a merged delta: `k` occurrences of the target's
    /// `code`. Entries reach a counter in canonical order, as
    /// [`Measure::apply`] drains them.
    fn add_target(&mut self, _code: Code, _k: u64) {}

    /// Adds `k` occurrences of `code` to a candidate's marginal.
    fn add_marginal(st: &mut Self::State, code: Code, k: u64);

    /// Adds `k` co-occurrences of a packed pair `key` to a candidate's
    /// joint.
    fn add_joint(_st: &mut Self::State, _key: u64, _k: u64) {}
}

/// Empirical entropy of every attribute.
pub(crate) struct Entropy;

impl Measure for Entropy {
    type State = EntropyState;
    const WORK: WorkKind = WorkKind::EntropyMarginals;

    fn states<S: CountSource>(&self, source: &S) -> Vec<EntropyState> {
        (0..source.num_attrs()).map(|a| EntropyState::with_support(a, source.support(a))).collect()
    }

    fn apply(
        &mut self,
        counts: &mut ShardCounts,
        states: &mut [EntropyState],
    ) -> Result<(), SwopeError> {
        for (st, delta) in states.iter_mut().zip(&mut counts.attrs) {
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

    #[inline]
    fn add_marginal(st: &mut EntropyState, code: Code, k: u64) {
        st.add_count(code, k);
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
    /// MI against `target`, which the caller has checked is in range,
    /// with every attribute's exact entropy when the plan read them.
    pub(crate) fn new<S: CountSource>(
        target: AttrIndex,
        source: &S,
        exact: Option<Vec<f64>>,
    ) -> Self {
        Self { target: TargetState::with_support(target, source.support(target)), exact }
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

    fn target(&self) -> Option<AttrIndex> {
        Some(self.target.attr)
    }

    /// With exact marginals, [`MiState::update_bounds_exact`] and
    /// [`Measure::exact_score`] read `H_D` and the joint alone.
    fn reads_marginals(&self) -> bool {
        self.exact.is_none()
    }

    fn apply(
        &mut self,
        counts: &mut ShardCounts,
        states: &mut [MiState],
    ) -> Result<(), SwopeError> {
        let target = counts
            .target
            .as_mut()
            .ok_or_else(|| SwopeError::Transport("shard omitted the target histogram".into()))?;
        self.target.apply_delta(target);
        let candidates = counts.attrs.iter_mut().zip(&mut counts.joints);
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

    #[inline]
    fn add_target(&mut self, code: Code, k: u64) {
        self.target.add_count(code, k);
    }

    #[inline]
    fn add_marginal(st: &mut MiState, code: Code, k: u64) {
        st.add_count(code, k);
    }

    #[inline]
    fn add_joint(st: &mut MiState, key: u64, k: u64) {
        st.add_joint(key, k);
    }
}

/// A query's states as the place a merge hands its summed counts: the
/// `i`th live attribute is the `i`th state, as [`Measure::request`]
/// lists them.
pub(crate) struct States<'a, M: Measure> {
    pub measure: &'a mut M,
    pub states: &'a mut [M::State],
}

impl<M: Measure> CountSink for States<'_, M> {
    #[inline]
    fn target(&mut self, code: Code, k: u64) {
        self.measure.add_target(code, k);
    }

    #[inline]
    fn marginal(&mut self, i: usize, code: Code, k: u64) {
        M::add_marginal(&mut self.states[i], code, k);
    }

    #[inline]
    fn joint(&mut self, i: usize, key: u64, k: u64) {
        M::add_joint(&mut self.states[i], key, k);
    }
}
