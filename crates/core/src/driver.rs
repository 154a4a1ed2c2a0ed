//! The adaptive loop, written once.
//!
//! Alg. 1–4 and the two profile queries share one skeleton: grow the
//! sample prefix, count the new rows, refresh every live candidate's
//! interval, let the query's rule retire what it can, double. This module
//! holds that skeleton — [`run`] and [`run_sharded`] — generic over three
//! things:
//!
//! * a [`Measure`] — what is scored and how wide its interval is
//!   ([`crate::measure`]);
//! * a rule — when a candidate leaves the race and when the query is
//!   over: [`crate::topk::decide`], [`crate::filter::decide`],
//!   [`crate::profile::decide`], and the paper's comparators
//!   [`crate::topk::decide_exact`] (EntropyRank) and
//!   [`crate::filter::decide_exact`] (EntropyFilter), which differ from
//!   SWOPE in nothing else;
//! * a [`CountSource`] — where an iteration's counts come from: the local
//!   dataset through a (possibly scoped, possibly sketch-backed)
//!   population ([`crate::scope::LocalSource`]), or the merged integer
//!   histograms of a [`ShardTransport`] ([`crate::shard::ShardedSource`]).
//!
//! Argument validation, the query's [`Plan`] — population, marginals,
//! `M0`, `i_max` and `p′`, decided once before `query_start` — the
//! observer lifecycle, score building, result ordering and the answer
//! over an empty population each live here once, so every path — heap,
//! paged, scoped, sharded, remote — answers bit for bit alike.

use std::time::Instant;

use swope_columnar::{AttrIndex, Dataset, DatasetSketch};
use swope_estimate::bounds::lambda;
use swope_estimate::entropy::entropy_from_counts;
use swope_obs::{NoopObserver, Phase, Plan, QueryKind, QueryObserver};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::measure::{Candidate, Entropy, Interval, Measure, Mi};
use crate::observe::Instrumented;
use crate::profile::ProfileResult;
use crate::report::{AttrScore, FilterResult, QueryStats, TopKResult, WorkKind};
use crate::scope::{LocalSource, Scope};
use crate::shard::{ShardTransport, ShardedSource};
use crate::{filter, profile, topk, SwopeConfig, SwopeError};

/// One of the adaptive queries: a measure — empirical entropy, or mutual
/// information with `target` — and the [`Rule`] that decides it.
///
/// Alg. 3–4 are Alg. 1–2 with §4.1's interval in place of Lemma 3's, and
/// the comparators differ from SWOPE only in the rule, so every
/// combination of the two halves is a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// The target attribute `α_t` that candidates are scored against by
    /// mutual information; `None` scores empirical entropy.
    pub target: Option<AttrIndex>,
    /// When candidates retire and the query stops.
    pub rule: Rule,
}

/// When candidates retire and the query stops: SWOPE's three rules, and
/// the two exact-separation comparators of the paper's §6, which ignore
/// `ε`. Below, `h` is the number of candidates: every attribute for
/// entropy, all but the target for mutual information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Alg. 1 / Alg. 3 — the `k` attributes of highest score
    /// ([`crate::entropy_top_k`], [`crate::mi_top_k`]).
    TopK {
        /// How many attributes to return, `1..=h`.
        k: usize,
    },
    /// Alg. 2 / Alg. 4 — the attributes whose score is at least `eta`
    /// ([`crate::entropy_filter`], [`crate::mi_filter`]).
    Filter {
        /// The threshold η, finite and nonnegative.
        eta: f64,
    },
    /// Every candidate's score to relative error ε
    /// ([`crate::entropy_profile`], [`crate::mi_profile`]).
    Profile {
        /// Absolute width below which an interval is tight enough.
        floor: f64,
    },
    /// EntropyRank (the paper's reference \[32\]; over mutual information,
    /// §6.3's lift) — the exact top-`k`: samples until the `k`-th lower
    /// bound clears every upper bound outside the answer.
    Rank {
        /// How many attributes to return, `1..=h`.
        k: usize,
    },
    /// EntropyFilter (same reference) — exactly the attributes whose
    /// score is at least `eta`: an attribute is decided only once its
    /// interval clears the threshold.
    FilterExact {
        /// The threshold η, finite and nonnegative.
        eta: f64,
    },
}

impl Shape {
    /// `rule` over empirical entropy.
    pub const fn entropy(rule: Rule) -> Self {
        Self { target: None, rule }
    }

    /// `rule` over mutual information with `target`.
    pub const fn mi(target: AttrIndex, rule: Rule) -> Self {
        Self { target: Some(target), rule }
    }

    /// The observer vocabulary's name for this query; a comparator
    /// reports as the query it answers exactly.
    pub fn kind(&self) -> QueryKind {
        match (self.rule, self.target.is_some()) {
            (Rule::TopK { .. } | Rule::Rank { .. }, false) => QueryKind::EntropyTopK,
            (Rule::Filter { .. } | Rule::FilterExact { .. }, false) => QueryKind::EntropyFilter,
            (Rule::Profile { .. }, false) => QueryKind::EntropyProfile,
            (Rule::TopK { .. } | Rule::Rank { .. }, true) => QueryKind::MiTopK,
            (Rule::Filter { .. } | Rule::FilterExact { .. }, true) => QueryKind::MiFilter,
            (Rule::Profile { .. }, true) => QueryKind::MiProfile,
        }
    }

    /// Checks the shape against a dataset of `num_attrs` attributes and
    /// returns its number of candidates — in order: the threshold or
    /// floor, a population to query (`no_data` is the caller's "nothing
    /// to sample from at all"), the target, at least one candidate, and
    /// `k` within the candidates. [`run`], [`run_sharded`] and the
    /// baselines check their arguments here (the first two check the
    /// config's `ε`/`p_f` before it).
    pub fn check(&self, num_attrs: usize, no_data: bool) -> Result<usize, SwopeError> {
        if let Rule::Filter { eta: bound }
        | Rule::FilterExact { eta: bound }
        | Rule::Profile { floor: bound } = self.rule
        {
            if !bound.is_finite() || bound < 0.0 {
                return Err(SwopeError::InvalidThreshold(bound));
            }
        }
        if num_attrs == 0 || no_data {
            return Err(SwopeError::EmptyDataset);
        }
        let mut candidates = num_attrs;
        if let Some(target) = self.target {
            if target >= num_attrs {
                return Err(SwopeError::TargetOutOfRange { target, num_attrs });
            }
            if num_attrs < 2 {
                return Err(SwopeError::NoCandidates);
            }
            candidates = num_attrs - 1;
        }
        match self.rule {
            Rule::TopK { k } | Rule::Rank { k } if k == 0 || k > candidates => {
                Err(SwopeError::InvalidK { k, candidates })
            }
            _ => Ok(candidates),
        }
    }
}

/// What every shape answers: scored attributes plus execution statistics.
///
/// `scores` holds the top-k by descending upper bound (EntropyRank's by
/// descending lower bound), the accepted attributes by descending
/// estimate, or the whole profile in attribute order; [`crate::TopKResult`], [`crate::FilterResult`] and
/// [`crate::ProfileResult`] are its typed views (`From<Answer>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The returned attributes, in the shape's order.
    pub scores: Vec<AttrScore>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl From<Answer> for TopKResult {
    fn from(answer: Answer) -> Self {
        Self { top: answer.scores, stats: answer.stats }
    }
}

impl From<Answer> for FilterResult {
    fn from(answer: Answer) -> Self {
        Self { accepted: answer.scores, stats: answer.stats }
    }
}

impl From<Answer> for ProfileResult {
    fn from(answer: Answer) -> Self {
        Self { scores: answer.scores, stats: answer.stats }
    }
}

/// Where an iteration's counts come from.
///
/// A source owns the sampler and knows the attributes; the driver owns
/// the states and the statistics. [`CountSource::count`] is the only step
/// that differs between a local and a sharded run.
pub(crate) trait CountSource {
    /// What the source resolved to: the population `n` the guarantees
    /// hold over (`N`, or a scope's `n_s`) and, for a local scope, its
    /// scan rows. The driver decides the rest.
    fn plan(&self) -> Plan;

    /// Attributes of the queried schema.
    fn num_attrs(&self) -> usize;

    /// Support size of `attr`.
    fn support(&self, attr: AttrIndex) -> u32;

    /// Name of `attr`, looked up when a score is built.
    fn name(&self, attr: AttrIndex) -> String;

    /// Every attribute's exact code counts over the whole population,
    /// when a partition sketch holds them; asked once, while the plan is
    /// made, by MI queries over a nonempty population only.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError>;

    /// Grows the sample to `m_target` rows, [announces](Round::announce)
    /// the iteration, and counts the new rows into `states`.
    fn count<M: Measure, O: QueryObserver>(
        &mut self,
        m_target: usize,
        measure: &mut M,
        states: &mut [M::State],
        round: &mut Round<'_, O>,
        exec: &Executor,
    ) -> Result<(), SwopeError>;
}

/// The running query as sources and rules see it: the instrumented
/// lifecycle, the plan, and the current iteration's sample.
pub(crate) struct Round<'a, O: QueryObserver> {
    pub it: Instrumented<'a, O>,
    /// What the query decided before sampling; `plan.n` is the
    /// population size.
    pub plan: Plan,
    /// The query's ε.
    pub epsilon: f64,
    /// Sample size `M` of the current iteration (the previous one's
    /// until [`Round::announce`]; 0 before the first).
    pub m: usize,
    /// Deviation radius λ at `M` (Lemma 3), shared by every candidate.
    pub lambda: f64,
}

impl<O: QueryObserver> Round<'_, O> {
    /// Records the iteration whose sample a source has just fixed: `m`
    /// rows drawn in total, `delta_len` of them physically new, `live`
    /// candidates about to be counted, charged as `work`.
    pub fn announce(&mut self, m: usize, delta_len: usize, live: usize, work: WorkKind) {
        self.m = m;
        self.lambda = lambda(m as u64, self.plan.n as u64, self.plan.p_prime);
        self.it.iteration(m, live, self.lambda);
        self.it.record_work(delta_len, live, work);
    }

    /// Marks `st` as leaving the race now; returns the iteration for the
    /// score's `retired_iteration`.
    pub fn retire(&mut self, st: &impl Candidate) -> usize {
        self.it.attr_retired(st.attr(), st.lower(), st.upper())
    }
}

/// A rule's "the query is over".
pub(crate) struct Verdict {
    /// Whether the rule stopped before the sample reached the population.
    pub converged_early: bool,
    /// Indices of still-live states to return, in answer order (top-k;
    /// the other rules have scored everything by the time they stop).
    pub winners: Vec<usize>,
}

impl Verdict {
    /// Every candidate has been decided.
    pub fn done(converged_early: bool) -> Option<Self> {
        Some(Self { converged_early, winners: Vec::new() })
    }
}

impl Rule {
    fn decide<M: Measure, O: QueryObserver>(
        self,
        measure: &M,
        interval: Interval,
        states: &mut Vec<M::State>,
        round: &mut Round<'_, O>,
        accept: &mut impl FnMut(&M::State, usize),
    ) -> Option<Verdict> {
        match self {
            Rule::TopK { k } => topk::decide(k, interval.width_lambdas, states, round),
            Rule::Filter { eta } => {
                filter::decide(eta, |st| measure.exact_score(st), states, round, accept)
            }
            Rule::Profile { floor } => profile::decide(floor, states, round, accept),
            Rule::Rank { k } => topk::decide_exact(k, states, round),
            Rule::FilterExact { eta } => filter::decide_exact(eta, states, round, accept),
        }
    }

    /// The answer over an empty population, where every score is 0 with
    /// collapsed bounds: the first `k` candidates, every candidate iff
    /// `η = 0`, or the whole profile.
    fn over_nothing(self, candidates: impl Iterator<Item = AttrIndex>) -> Vec<AttrIndex> {
        match self {
            Rule::TopK { k } | Rule::Rank { k } => candidates.take(k).collect(),
            Rule::Filter { eta } | Rule::FilterExact { eta } if eta != 0.0 => Vec::new(),
            Rule::Filter { .. } | Rule::FilterExact { .. } | Rule::Profile { .. } => {
                candidates.collect()
            }
        }
    }

    /// Answer order: top-k is already by descending upper bound (the
    /// paper's return order), EntropyRank's by descending lower bound.
    fn sort(self, scores: &mut [AttrScore]) {
        match self {
            Rule::TopK { .. } | Rule::Rank { .. } => {}
            Rule::Filter { .. } | Rule::FilterExact { .. } => scores.sort_by(|a, b| {
                b.estimate
                    .partial_cmp(&a.estimate)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.attr.cmp(&b.attr))
            }),
            Rule::Profile { .. } => scores.sort_by_key(|s| s.attr),
        }
    }
}

fn score<S: CountSource>(source: &S, st: &impl Candidate, retired_iteration: usize) -> AttrScore {
    AttrScore {
        attr: st.attr(),
        name: source.name(st.attr()),
        estimate: st.point_estimate(),
        lower: st.lower(),
        upper: st.upper(),
        retired_iteration,
    }
}

/// Runs `shape` over `scope` of a local dataset.
///
/// The sample is uniform without replacement *from the scope*, bounds
/// use the scope's row count and `p_f` defaults to its reciprocal, so the
/// paper's guarantees hold over the scoped rows; [`Scope::all`] is the
/// plain query. A `sketch` that matches the dataset lets a predicate
/// skip pages without matches (see [`crate::Scope`]); a row range
/// answers alike with or without one. Over a full scope it changes the
/// MI shapes only:
/// their marginal entropies are read exactly from the sketch, and only
/// the joint is sampled — an interval of `2λ + b(α_t, α)` instead of
/// `6λ + b′` (`swope_estimate::bounds::mi_bounds_exact_marginals`), with
/// the same Definition 5/6 guarantee. With `sketch = None` every shape
/// samples as the paper does.
///
/// `observer` receives the query lifecycle (`query_start`, per doubling
/// round an `iteration` event and `sample_grow` / `ingest` /
/// `update_bounds` / `decide` phase spans, one `attr_retired` per
/// candidate, `query_end`); pass [`NoopObserver`] for none. `exec`
/// supplies the worker pool for per-candidate fan-outs. Neither changes
/// a bit of the answer (see [`crate::exec`] for the argument).
///
/// # Errors
///
/// Fails before sampling on an invalid `ε`/`p_f`, a negative or
/// non-finite threshold or floor, an empty dataset, a target out of
/// range, no candidates (`h < 2` for MI), `k` outside the candidates, or
/// a malformed scope. A scope that selects no rows is not an error:
/// every score is 0 and `stats.iterations` is 0.
pub fn run<O: QueryObserver>(
    dataset: &Dataset,
    shape: &Shape,
    scope: &Scope,
    sketch: Option<&DatasetSketch>,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<Answer, SwopeError> {
    config.validate()?;
    shape.check(dataset.num_attrs(), dataset.num_rows() == 0)?;
    let started = observer.enabled().then(Instant::now);
    let source = LocalSource::open(dataset, scope, sketch, config)?;
    // A full scope is the plain query; it reports no resolution span.
    let resolved = started.filter(|_| source.scoped()).map(|t| t.elapsed().as_nanos() as u64);
    plan_query(shape, source, resolved, config, observer, exec)
}

/// [`run`] over the whole dataset, unobserved, on `config.threads`
/// workers — what the paper-named functions call.
pub(crate) fn run_plain(
    dataset: &Dataset,
    shape: Shape,
    config: &SwopeConfig,
) -> Result<Answer, SwopeError> {
    let exec = Executor::new(config.threads);
    run(dataset, &shape, &Scope::all(), None, config, &mut NoopObserver, &exec)
}

/// Runs `shape` over the population a [`ShardTransport`] reports —
/// in-process row shards ([`crate::LocalShardSource`]) or remote peers.
///
/// Shards return pure integer histograms, merged by addition and drained
/// in canonical order, so the answer is bit for bit [`run`]'s over the
/// same rows for any shard count (see [`crate::shard`]). Per doubling
/// round the observer sees `ingest` (the scatter-gather), `shard_merge`,
/// `update_bounds` and `decide`.
///
/// # Errors
///
/// [`run`]'s argument checks, and any [`SwopeError::Transport`] the
/// transport raises mid-query. A transport over no attributes is
/// [`SwopeError::EmptyDataset`]; one over attributes but zero rows (a
/// coordinator's empty row range) answers like an empty scope.
pub fn run_sharded<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    shape: &Shape,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<Answer, SwopeError> {
    config.validate()?;
    shape.check(transport.attrs().len(), false)?;
    plan_query(shape, ShardedSource(transport), None, config, observer, exec)
}

/// Makes the query's [`Plan`] once, before `query_start`, answers an
/// empty population, and runs the doubling loop on the measure the plan
/// picked. `resolved` is the observed time scope resolution took.
///
/// An MI shape asks the source for the population's marginals here. Both
/// kinds of source turn the same integer counts into `H_D` through the
/// same function, so a single box and a cluster over the same rows
/// answer alike; the call is timed as a `store_sketch` span.
fn plan_query<S: CountSource, O: QueryObserver>(
    shape: &Shape,
    mut source: S,
    resolved: Option<u64>,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<Answer, SwopeError> {
    let (h, mut plan) = (source.num_attrs(), source.plan());
    let (mut exact, mut marginals_nanos) = (None, None);
    if shape.target.is_some() && plan.n > 0 {
        let started = observer.enabled().then(Instant::now);
        let marginals = source.marginals()?;
        marginals_nanos = started.map(|t| t.elapsed().as_nanos() as u64);
        plan.sketch_marginals = Some(marginals.is_some());
        exact = marginals.map(|counts| counts.iter().map(|c| entropy_from_counts(c)).collect());
    }
    // Exact marginals leave one sampled entropy per candidate: the joint.
    let interval = match (shape.target, &exact) {
        (Some(_), None) => Interval::THREE_ENTROPIES,
        _ => Interval::ONE_ENTROPY,
    };
    if plan.n > 0 {
        let p_f = config.resolve_p_f_rows(plan.n);
        let max_support = (0..h).map(|a| source.support(a)).max().unwrap_or(0);
        let m0 = config.resolve_m0_meta(plan.n, h, max_support, p_f);
        let schedule = DoublingSchedule::new(plan.n, m0);
        let candidates = h - usize::from(shape.target.is_some());
        (plan.m0, plan.i_max) = (schedule.m0(), schedule.i_max());
        // Union-bound budget: Lemma 3 is applied `interval.applications`
        // times to each candidate in each of at most i_max iterations
        // (Theorem 1's proof).
        plan.p_prime = p_f / (interval.applications * plan.i_max as f64 * candidates as f64);
    }

    let mut it = Instrumented::start(observer, shape.kind(), h, config, plan);
    it.store_sketch(resolved);
    it.store_sketch(marginals_nanos);
    if plan.n == 0 {
        // The empirical entropy of an empty population is 0 by convention:
        // no iteration runs and the query is trivially converged.
        let candidates = (0..h).filter(|&a| Some(a) != shape.target);
        let scores = shape
            .rule
            .over_nothing(candidates)
            .into_iter()
            .map(|attr| AttrScore {
                attr,
                name: source.name(attr),
                estimate: 0.0,
                lower: 0.0,
                upper: 0.0,
                retired_iteration: 0,
            })
            .collect();
        return Ok(Answer { scores, stats: it.finish(true) });
    }
    let round = Round { it, plan, epsilon: config.epsilon, m: 0, lambda: f64::INFINITY };
    match shape.target {
        None => drive(Entropy, source, interval, shape.rule, round, exec),
        Some(target) => {
            let mi = Mi::new(target, &source, exact);
            drive(mi, source, interval, shape.rule, round, exec)
        }
    }
}

/// The doubling loop, on the ladder the plan fixed.
fn drive<M: Measure, S: CountSource, O: QueryObserver>(
    mut measure: M,
    mut source: S,
    interval: Interval,
    rule: Rule,
    mut round: Round<'_, O>,
    exec: &Executor,
) -> Result<Answer, SwopeError> {
    let Plan { n, m0, p_prime, .. } = round.plan;
    let mut states = measure.states(&source);
    let mut scores: Vec<AttrScore> = Vec::new();
    // Every source grows its sample to exactly `min(m_target, N)`, so the
    // ladder that runs is the one `i_max`, and with it `p′`, counted.
    let schedule = DoublingSchedule::new(n, m0);
    let mut ladder = schedule.iter();
    let converged_early = loop {
        let m_target = ladder.next().expect("every rule decides at M = N, the last step");
        round.it.begin_iteration();
        source.count(m_target, &mut measure, &mut states, &mut round, exec)?;

        let span = round.it.phase_start();
        measure.update_bounds(&mut states, n as u64, p_prime, exec);
        round.it.phase_end(Phase::UpdateBounds, span);

        let span = round.it.phase_start();
        let mut accept =
            |st: &M::State, iteration: usize| scores.push(score(&source, st, iteration));
        let verdict = rule.decide(&measure, interval, &mut states, &mut round, &mut accept);
        round.it.phase_end(Phase::Decide, span);

        if let Some(verdict) = verdict {
            // Everything still alive leaves the race now, returned or not.
            for st in &states {
                round.retire(st);
            }
            let iteration = round.it.current_iteration();
            scores.extend(verdict.winners.iter().map(|&i| score(&source, &states[i], iteration)));
            break verdict.converged_early;
        }
    };

    rule.sort(&mut scores);
    Ok(Answer { scores, stats: round.it.finish(converged_early) })
}
