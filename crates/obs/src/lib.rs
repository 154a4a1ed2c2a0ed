//! Query observability for SWOPE.
//!
//! Every adaptive query loop in `swope-core` shares one lifecycle: a
//! `query_start`, a sequence of doubling iterations (each growing the
//! sample, ingesting the delta, updating bounds, and deciding), attributes
//! retiring from the race one by one, and a `query_end`. [`QueryObserver`]
//! names those points; the loops call the hooks and implementations decide
//! what to keep.
//!
//! Three implementations ship here:
//!
//! * [`NoopObserver`] — the zero-cost default. `enabled()` returns `false`,
//!   every hook is an empty default method, and the loops are generic over
//!   the observer type, so an unobserved query monomorphizes to exactly the
//!   un-instrumented code (no timer reads, no branches on `Option`).
//! * [`MetricsRegistry`] — atomic counters and fixed-bucket histograms,
//!   renderable as a text table or Prometheus exposition text.
//! * [`JsonlSink`] — one JSON event per line into any `Write`, for
//!   convergence plots and offline analysis.
//!
//! [`ComposedObserver`] fans hooks out to two observers (compose further by
//! nesting); `Option<O>` and `&mut O` also implement the trait, so call
//! sites can assemble "JSONL if requested, metrics if requested" without
//! boxing.
//!
//! The [`trace`] module builds on the same hooks to record per-request
//! span trees ([`trace::TraceObserver`] into a [`trace::SpanSink`]) and
//! keep a bounded flight recorder of finished traces
//! ([`trace::TraceRecorder`]) behind the server's `/debug` endpoints.

pub mod json;
mod jsonl;
mod metrics;
pub mod names;
pub mod trace;

pub use jsonl::{parse_jsonl, JsonlSink};
pub use metrics::{Histogram, MetricsRegistry};

/// Which adaptive query produced an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`entropy_top_k`](https://docs.rs/swope-core) — Algorithm 1.
    EntropyTopK,
    /// `entropy_filter` — Algorithm 2.
    EntropyFilter,
    /// `mi_top_k` — Algorithm 3.
    MiTopK,
    /// `mi_filter` — Algorithm 4.
    MiFilter,
    /// `entropy_profile` — all-attribute entropy estimates.
    EntropyProfile,
    /// `mi_profile` — all-attribute MI estimates against one target.
    MiProfile,
}

impl QueryKind {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 6;

    /// All variants, in `index()` order.
    pub const ALL: [QueryKind; Self::COUNT] = [
        QueryKind::EntropyTopK,
        QueryKind::EntropyFilter,
        QueryKind::MiTopK,
        QueryKind::MiFilter,
        QueryKind::EntropyProfile,
        QueryKind::MiProfile,
    ];

    /// Stable dense index for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            QueryKind::EntropyTopK => 0,
            QueryKind::EntropyFilter => 1,
            QueryKind::MiTopK => 2,
            QueryKind::MiFilter => 3,
            QueryKind::EntropyProfile => 4,
            QueryKind::MiProfile => 5,
        }
    }

    /// Snake-case name used in events and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::EntropyTopK => "entropy_top_k",
            QueryKind::EntropyFilter => "entropy_filter",
            QueryKind::MiTopK => "mi_top_k",
            QueryKind::MiFilter => "mi_filter",
            QueryKind::EntropyProfile => "entropy_profile",
            QueryKind::MiProfile => "mi_profile",
        }
    }
}

/// The four phases every doubling iteration passes through, plus the
/// one-shot scope-setup phase a scoped query runs before its first
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Extending the sample from `M` to the next target.
    SampleGrow,
    /// Feeding the ΔM new records into per-candidate counters.
    Ingest,
    /// Recomputing per-candidate confidence bounds at the new `M`.
    UpdateBounds,
    /// Applying the stopping rule and pruning/retiring candidates.
    Decide,
    /// Resolving a query scope against the partition sketch: summing
    /// covered-page histograms, materializing fringe/predicate rows.
    /// Emitted once per scoped query with iteration 0.
    StoreSketch,
    /// Merging per-shard count deltas and applying the merged histogram
    /// to the master counters in canonical code order. Emitted only by
    /// the shard-parallel loops (`swope_core::shard`), once per doubling
    /// iteration, between ingest and the bounds update.
    ShardMerge,
}

impl Phase {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 6;

    /// All variants, in `index()` order.
    pub const ALL: [Phase; Self::COUNT] = [
        Phase::SampleGrow,
        Phase::Ingest,
        Phase::UpdateBounds,
        Phase::Decide,
        Phase::StoreSketch,
        Phase::ShardMerge,
    ];

    /// Stable dense index for per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::SampleGrow => 0,
            Phase::Ingest => 1,
            Phase::UpdateBounds => 2,
            Phase::Decide => 3,
            Phase::StoreSketch => 4,
            Phase::ShardMerge => 5,
        }
    }

    /// Snake-case name used in events and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SampleGrow => "sample_grow",
            Phase::Ingest => "ingest",
            Phase::UpdateBounds => "update_bounds",
            Phase::Decide => "decide",
            Phase::StoreSketch => "store_sketch",
            Phase::ShardMerge => "shard_merge",
        }
    }
}

/// Everything a query decided before its first doubling: the population
/// it samples, how, and the ladder's constants. `swope_core`'s driver
/// builds it once, before `query_start`; it is the only record of those
/// choices. The interval's λ multiplier and Lemma-3 applications follow
/// from the query kind and [`Plan::sketch_marginals`], so it holds
/// neither. Over an empty population nothing is sampled, and `m0`,
/// `i_max` and `p_prime` are 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Plan {
    /// The population `n` the guarantees hold over: the dataset's `N`,
    /// or a scope's `n_s`.
    pub n: usize,
    /// Physical rows the scope's resolution examined (a predicate's
    /// scan), charged to `rows_scanned`.
    pub scope_rows: u64,
    /// For a mutual-information query over a nonempty population:
    /// whether every marginal entropy was read exactly from a partition
    /// sketch, so only the joint is sampled. `None` for entropy queries
    /// and empty populations.
    pub sketch_marginals: Option<bool>,
    /// The first sample size `M0`.
    pub m0: usize,
    /// The ladder's iteration bound `i_max = ceil(log2(n/M0)) + 1`.
    pub i_max: usize,
    /// The failure budget of one Lemma-3 application,
    /// `p′ = p_f / (applications · i_max · candidates)`.
    pub p_prime: f64,
}

/// Static facts about a query, reported once at `query_start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMeta {
    /// Which algorithm is running.
    pub kind: QueryKind,
    /// Number of candidate attributes `h` entering the query.
    pub num_attrs: usize,
    /// Approximation parameter ε.
    pub epsilon: f64,
    /// Worker threads configured for per-attribute work.
    pub threads: usize,
    /// What the query decided before sampling.
    pub plan: Plan,
}

/// Aggregate outcome of a query, reported once at `query_end`.
///
/// Mirrors `swope_core::QueryStats`'s scalar fields (the trace stays in
/// core; observers that want per-iteration data subscribe to the
/// `iteration` hook instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Final sample size `M` when the query stopped.
    pub sample_size: usize,
    /// Number of doubling iterations executed.
    pub iterations: usize,
    /// Total counter-update work units (the paper's `O(h·M*)` quantity).
    pub rows_scanned: u64,
    /// Whether the stopping rule fired before the sample reached `N`.
    pub converged_early: bool,
}

/// Final confidence interval of a retiring attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrBounds {
    /// Lower confidence bound at retirement.
    pub lower: f64,
    /// Upper confidence bound at retirement.
    pub upper: f64,
}

/// Lifecycle hooks shared by every adaptive SWOPE query loop.
///
/// All hooks have empty defaults, so an implementation subscribes only to
/// what it needs. Hooks are invoked from the serial sections of the loops
/// only — never from inside per-attribute worker threads — so `&mut self`
/// receivers need no synchronization.
pub trait QueryObserver {
    /// Whether this observer wants events at all.
    ///
    /// The instrumented loops skip clock reads (and any other
    /// observation-only work) when this returns `false`, which is how
    /// [`NoopObserver`] monomorphizes to zero overhead.
    fn enabled(&self) -> bool {
        true
    }

    /// A query began.
    fn query_start(&mut self, meta: &QueryMeta) {
        let _ = meta;
    }

    /// A doubling iteration reached its decision point: the sample is at
    /// `m` rows, `live_candidates` attributes are still in the race, and
    /// the shared deviation radius is `lambda`.
    fn iteration(&mut self, iteration: usize, m: usize, live_candidates: usize, lambda: f64) {
        let _ = (iteration, m, live_candidates, lambda);
    }

    /// A phase of iteration `iteration` took `nanos` wall-clock
    /// nanoseconds. Only emitted when [`enabled`](Self::enabled) observers
    /// are attached (timing is skipped otherwise).
    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        let _ = (phase, iteration, nanos);
    }

    /// Attribute `attr` left the race during `iteration` (pruned, accepted,
    /// rejected, or resolved) with final confidence interval `bounds`.
    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        let _ = (attr, iteration, bounds);
    }

    /// The query finished.
    fn query_end(&mut self, stats: &RunStats) {
        let _ = stats;
    }
}

/// The zero-cost default observer: disabled, all hooks empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl QueryObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// Fans every hook out to two observers (`a` first, then `b`). Nest for
/// more than two.
#[derive(Debug, Default)]
pub struct ComposedObserver<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A, B> ComposedObserver<A, B> {
    /// Composes two observers.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }
}

impl<A: QueryObserver, B: QueryObserver> QueryObserver for ComposedObserver<A, B> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn query_start(&mut self, meta: &QueryMeta) {
        self.a.query_start(meta);
        self.b.query_start(meta);
    }

    fn iteration(&mut self, iteration: usize, m: usize, live_candidates: usize, lambda: f64) {
        self.a.iteration(iteration, m, live_candidates, lambda);
        self.b.iteration(iteration, m, live_candidates, lambda);
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        self.a.phase(phase, iteration, nanos);
        self.b.phase(phase, iteration, nanos);
    }

    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        self.a.attr_retired(attr, iteration, bounds);
        self.b.attr_retired(attr, iteration, bounds);
    }

    fn query_end(&mut self, stats: &RunStats) {
        self.a.query_end(stats);
        self.b.query_end(stats);
    }
}

impl<O: QueryObserver + ?Sized> QueryObserver for &mut O {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn query_start(&mut self, meta: &QueryMeta) {
        (**self).query_start(meta);
    }

    fn iteration(&mut self, iteration: usize, m: usize, live_candidates: usize, lambda: f64) {
        (**self).iteration(iteration, m, live_candidates, lambda);
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        (**self).phase(phase, iteration, nanos);
    }

    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        (**self).attr_retired(attr, iteration, bounds);
    }

    fn query_end(&mut self, stats: &RunStats) {
        (**self).query_end(stats);
    }
}

/// `None` behaves like [`NoopObserver`]; `Some(o)` forwards to `o`.
impl<O: QueryObserver> QueryObserver for Option<O> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(|o| o.enabled())
    }

    fn query_start(&mut self, meta: &QueryMeta) {
        if let Some(o) = self {
            o.query_start(meta);
        }
    }

    fn iteration(&mut self, iteration: usize, m: usize, live_candidates: usize, lambda: f64) {
        if let Some(o) = self {
            o.iteration(iteration, m, live_candidates, lambda);
        }
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        if let Some(o) = self {
            o.phase(phase, iteration, nanos);
        }
    }

    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        if let Some(o) = self {
            o.attr_retired(attr, iteration, bounds);
        }
    }

    fn query_end(&mut self, stats: &RunStats) {
        if let Some(o) = self {
            o.query_end(stats);
        }
    }
}

/// In-memory accumulator of per-phase wall-clock nanoseconds.
///
/// The bench harness attaches one per measured query to report phase
/// breakdowns without paying for a full registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseAccumulator {
    /// Total nanoseconds per phase, indexed by [`Phase::index`].
    pub nanos: [u64; Phase::COUNT],
    /// Hook invocations per phase, indexed by [`Phase::index`].
    pub calls: [u64; Phase::COUNT],
}

impl PhaseAccumulator {
    /// Fresh, all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl QueryObserver for PhaseAccumulator {
    fn phase(&mut self, phase: Phase, _iteration: usize, nanos: u64) {
        self.nanos[phase.index()] += nanos;
        self.calls[phase.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl QueryObserver for Recorder {
        fn query_start(&mut self, meta: &QueryMeta) {
            self.events.push(format!("start:{}", meta.kind.name()));
        }
        fn iteration(&mut self, it: usize, m: usize, live: usize, _lambda: f64) {
            self.events.push(format!("iter:{it}:{m}:{live}"));
        }
        fn phase(&mut self, phase: Phase, it: usize, _nanos: u64) {
            self.events.push(format!("phase:{}:{it}", phase.name()));
        }
        fn attr_retired(&mut self, attr: usize, it: usize, _b: AttrBounds) {
            self.events.push(format!("retired:{attr}:{it}"));
        }
        fn query_end(&mut self, stats: &RunStats) {
            self.events.push(format!("end:{}", stats.iterations));
        }
    }

    fn meta() -> QueryMeta {
        QueryMeta {
            kind: QueryKind::EntropyTopK,
            num_attrs: 10,
            epsilon: 0.1,
            threads: 1,
            plan: Plan { n: 1000, ..Plan::default() },
        }
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopObserver.enabled());
        assert!(!None::<NoopObserver>.enabled());
        assert!(!Some(NoopObserver).enabled());
    }

    #[test]
    fn composed_fans_out_in_order() {
        let mut c = ComposedObserver::new(Recorder::default(), Recorder::default());
        c.query_start(&meta());
        c.iteration(1, 64, 10, 0.5);
        c.attr_retired(3, 1, AttrBounds { lower: 0.0, upper: 1.0 });
        c.query_end(&RunStats { iterations: 1, ..Default::default() });
        assert_eq!(c.a.events, c.b.events);
        assert_eq!(c.a.events, vec!["start:entropy_top_k", "iter:1:64:10", "retired:3:1", "end:1"]);
    }

    #[test]
    fn composed_enabled_is_or() {
        assert!(ComposedObserver::new(NoopObserver, Recorder::default()).enabled());
        assert!(!ComposedObserver::new(NoopObserver, NoopObserver).enabled());
    }

    #[test]
    fn option_none_swallows_events() {
        let mut o: Option<Recorder> = None;
        o.query_start(&meta());
        let mut some = Some(Recorder::default());
        some.query_start(&meta());
        assert_eq!(some.as_ref().unwrap().events.len(), 1);
    }

    #[test]
    fn phase_accumulator_sums() {
        let mut acc = PhaseAccumulator::new();
        acc.phase(Phase::Ingest, 1, 100);
        acc.phase(Phase::Ingest, 2, 50);
        acc.phase(Phase::Decide, 2, 25);
        assert_eq!(acc.nanos[Phase::Ingest.index()], 150);
        assert_eq!(acc.nanos[Phase::Decide.index()], 25);
        assert_eq!(acc.nanos.iter().sum::<u64>(), 175);
        assert_eq!(acc.calls[Phase::Ingest.index()], 2);
    }

    #[test]
    fn kind_and_phase_indices_are_dense() {
        for (i, k) in QueryKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
