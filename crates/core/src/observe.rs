//! Glue between the adaptive loops and [`swope_obs::QueryObserver`].
//!
//! Each loop owns one [`Instrumented`] for its whole run. It keeps the
//! [`QueryStats`] bookkeeping (trace, aggregates, retirement counts) and
//! mirrors every recorded fact to the attached observer, so `QueryStats`
//! is effectively "just another observer" without the loops calling two
//! APIs. The loops stay generic over the observer type: with
//! [`swope_obs::NoopObserver`] every hook body is empty and
//! [`phase_start`](Instrumented::phase_start) never reads the clock, so
//! the unobserved monomorphization is the pre-observability hot path.
//!
//! Observer hooks are invoked from the serial sections of the loops only.
//! `QueryStats` deliberately carries no wall-clock data — observed and
//! unobserved runs of the same seeded query return bitwise-identical
//! results (the determinism tests compare them with `==`).

use std::time::Instant;

use swope_obs::{AttrBounds, Phase, Plan, QueryKind, QueryMeta, QueryObserver, RunStats};

use crate::report::{QueryStats, WorkKind};
use crate::SwopeConfig;

/// Per-query instrumentation context: stats bookkeeping + observer fanout.
pub(crate) struct Instrumented<'a, O: QueryObserver> {
    obs: &'a mut O,
    /// The stats being assembled for the query result.
    pub stats: QueryStats,
    /// Current 1-based doubling iteration (0 before the first
    /// [`begin_iteration`](Self::begin_iteration)).
    iter: usize,
}

impl<'a, O: QueryObserver> Instrumented<'a, O> {
    /// Starts an instrumented query under its `plan`, emits
    /// `query_start`, and charges the plan's scope scan to
    /// `rows_scanned`.
    pub fn start(
        obs: &'a mut O,
        kind: QueryKind,
        num_attrs: usize,
        config: &SwopeConfig,
        plan: Plan,
    ) -> Self {
        let (epsilon, threads) = (config.epsilon, config.threads);
        obs.query_start(&QueryMeta { kind, num_attrs, epsilon, threads, plan });
        let stats = QueryStats { rows_scanned: plan.scope_rows, ..QueryStats::default() };
        Self { obs, stats, iter: 0 }
    }

    /// Emits work the plan timed before `query_start` — resolving a
    /// scope, reading marginals — as a `store_sketch` phase at
    /// iteration 0; `None` emits nothing.
    pub fn store_sketch(&mut self, nanos: Option<u64>) {
        if let Some(ns) = nanos {
            self.obs.phase(Phase::StoreSketch, 0, ns);
        }
    }

    /// Advances to the next doubling iteration. Call at the top of the
    /// loop, before any phase of that iteration.
    pub fn begin_iteration(&mut self) {
        self.iter += 1;
    }

    /// The current 1-based iteration.
    pub fn current_iteration(&self) -> usize {
        self.iter
    }

    /// Reads the clock iff the observer wants phase timings. Pair with
    /// [`phase_end`](Self::phase_end) around the phase's code; a
    /// start/stop pair (rather than a closure) lets the enclosed code
    /// borrow `self` for retirement events.
    #[inline]
    pub fn phase_start(&self) -> Option<Instant> {
        if self.obs.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a phase span opened by [`phase_start`](Self::phase_start).
    #[inline]
    pub fn phase_end(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(s) = start {
            self.obs.phase(phase, self.iter, s.elapsed().as_nanos() as u64);
        }
    }

    /// Records the iteration snapshot (trace + observer event).
    pub fn iteration(&mut self, m: usize, candidates: usize, lambda: f64) {
        self.stats.record_iteration(m, candidates, lambda);
        debug_assert_eq!(self.stats.iterations, self.iter, "begin_iteration not called");
        self.obs.iteration(self.iter, m, candidates, lambda);
    }

    /// Accounts this iteration's ingestion work.
    pub fn record_work(&mut self, delta_len: usize, candidates: usize, kind: WorkKind) {
        self.stats.record_work(delta_len, candidates, kind);
    }

    /// Marks `attr` as having left the race this iteration, and returns
    /// the iteration for stamping `AttrScore::retired_iteration`.
    pub fn attr_retired(&mut self, attr: usize, lower: f64, upper: f64) -> usize {
        self.stats.note_retirement(self.iter);
        self.obs.attr_retired(attr, self.iter, AttrBounds { lower, upper });
        self.iter
    }

    /// Finalizes the query: emits `query_end` and yields the stats for
    /// the result struct.
    pub fn finish(mut self, converged_early: bool) -> QueryStats {
        self.stats.converged_early = converged_early;
        self.obs.query_end(&RunStats {
            sample_size: self.stats.sample_size,
            iterations: self.stats.iterations,
            rows_scanned: self.stats.rows_scanned,
            converged_early,
        });
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_obs::NoopObserver;

    #[derive(Default)]
    struct Log(Vec<String>);

    impl QueryObserver for Log {
        fn query_start(&mut self, meta: &QueryMeta) {
            self.0.push(format!("start {}", meta.kind.name()));
        }
        fn iteration(&mut self, it: usize, m: usize, c: usize, _l: f64) {
            self.0.push(format!("iter {it} m={m} c={c}"));
        }
        fn phase(&mut self, p: Phase, it: usize, _ns: u64) {
            self.0.push(format!("phase {} it={it}", p.name()));
        }
        fn attr_retired(&mut self, attr: usize, it: usize, _b: AttrBounds) {
            self.0.push(format!("retired {attr} it={it}"));
        }
        fn query_end(&mut self, s: &RunStats) {
            self.0.push(format!("end iters={}", s.iterations));
        }
    }

    #[test]
    fn lifecycle_mirrors_stats_and_observer() {
        let mut log = Log::default();
        let cfg = SwopeConfig::default();
        let plan = Plan { n: 100, ..Plan::default() };
        let mut it = Instrumented::start(&mut log, QueryKind::EntropyTopK, 4, &cfg, plan);
        it.begin_iteration();
        let span = it.phase_start();
        it.iteration(10, 4, 0.5);
        it.record_work(10, 4, WorkKind::EntropyMarginals);
        let retired_at = it.attr_retired(2, 0.1, 0.9);
        assert_eq!(retired_at, 1);
        it.phase_end(Phase::Decide, span);
        let stats = it.finish(true);

        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.rows_scanned, 40);
        assert!(stats.converged_early);
        assert_eq!(stats.trace[0].retired, 1);
        assert_eq!(
            log.0,
            vec![
                "start entropy_top_k",
                "iter 1 m=10 c=4",
                "retired 2 it=1",
                "phase decide it=1",
                "end iters=1"
            ]
        );
    }

    #[test]
    fn noop_observer_skips_clock() {
        let mut noop = NoopObserver;
        let cfg = SwopeConfig::default();
        let plan = Plan { n: 10, ..Plan::default() };
        let it = Instrumented::start(&mut noop, QueryKind::MiTopK, 2, &cfg, plan);
        assert!(it.phase_start().is_none());
    }
}
