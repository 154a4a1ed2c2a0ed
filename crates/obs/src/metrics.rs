//! Atomic metrics registry: counters and fixed-bucket histograms fed by
//! the observer hooks, renderable as a human text table or as
//! Prometheus-style exposition text.
//!
//! All cells are relaxed `AtomicU64`s, so one registry can be shared
//! across threads and queries for process-lifetime aggregates; the
//! observer hooks only ever run in serial query sections, but render can
//! race with updates harmlessly.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{names, AttrBounds, Phase, QueryKind, QueryMeta, QueryObserver, RunStats};

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are inclusive upper bounds (Prometheus `le` semantics) plus an
/// implicit overflow bucket; bounds are fixed at construction.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given ascending inclusive bucket
    /// bounds (an overflow bucket is added automatically).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self { bounds, counts, sum: AtomicU64::new(0) }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The inclusive upper bounds (without the overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the observed values
    /// by rank interpolation within the owning bucket.
    ///
    /// When the bucket bounds enumerate every distinct observed value the
    /// estimate is exact; otherwise it is linear within one bucket. A
    /// quantile landing in the overflow bucket is clamped to the last
    /// finite bound (the histogram cannot know how far past it the tail
    /// reaches). An empty histogram reports `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if cumulative + count >= rank {
                if i == self.bounds.len() {
                    break; // overflow bucket
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] } as f64;
                let upper = self.bounds[i] as f64;
                return lower + (upper - lower) * (rank - cumulative) as f64 / count as f64;
            }
            cumulative += count;
        }
        *self.bounds.last().unwrap() as f64
    }

    /// Appends this histogram to `out` as a Prometheus `histogram` family
    /// named `name` (cumulative `_bucket{le=...}` lines plus `_sum` and
    /// `_count`). Public so other subsystems — e.g. the request-duration
    /// histogram in `swope-server` — render through the exact same shape.
    pub fn render_prometheus(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.render_prometheus_labelled(name, "", out);
    }

    /// Like [`render_prometheus`](Self::render_prometheus) but with a
    /// fixed label prefix (e.g. `endpoint="query_mi_top_k",dataset="d"`)
    /// on every sample line and no `# TYPE` header — the caller emits one
    /// header per family and then renders each labelled instance through
    /// this. An empty `labels` renders the plain family.
    pub fn render_prometheus_labelled(&self, name: &str, labels: &str, out: &mut String) {
        let prefix = if labels.is_empty() { String::new() } else { format!("{labels},") };
        let mut cumulative = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{bound}\"}} {cumulative}");
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {cumulative}");
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", self.sum());
            let _ = writeln!(out, "{name}_count {cumulative}");
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum());
            let _ = writeln!(out, "{name}_count{{{labels}}} {cumulative}");
        }
    }

    /// Appends p50/p95/p99 estimates as `<name>_approx_quantile` gauge
    /// samples (`quantile="0.5" | "0.95" | "0.99"` labels, merged after
    /// `labels` if non-empty). The caller emits the family's `# TYPE
    /// <name>_approx_quantile gauge` header once.
    pub fn render_quantiles(&self, name: &str, labels: &str, out: &mut String) {
        let prefix = if labels.is_empty() { String::new() } else { format!("{labels},") };
        for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "{name}_approx_quantile{{{prefix}quantile=\"{tag}\"}} {}",
                self.quantile(q)
            );
        }
    }
}

fn zeros<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Process-lifetime aggregates over every observed query.
///
/// Implements [`QueryObserver`]; attach it (optionally composed with a
/// [`crate::JsonlSink`]) to accumulate counters, then render with
/// [`render_table`](Self::render_table) or
/// [`render_prometheus`](Self::render_prometheus).
#[derive(Debug)]
pub struct MetricsRegistry {
    queries: [AtomicU64; QueryKind::COUNT],
    rows_scanned: AtomicU64,
    iterations: AtomicU64,
    sample_rows: AtomicU64,
    converged_early: AtomicU64,
    attrs_retired: AtomicU64,
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_calls: [AtomicU64; Phase::COUNT],
    /// Iteration at which attributes left the race.
    retirement_iteration: Histogram,
    /// Doubling iterations per query.
    iterations_per_query: Histogram,
    /// Counter-update work units per query.
    rows_scanned_per_query: Histogram,
    /// MI queries by where their plan took the marginal entropies from.
    sketch_marginals: AtomicU64,
    sampled_marginals: AtomicU64,
}

impl MetricsRegistry {
    /// A fresh registry with the default bucket layouts.
    pub fn new() -> Self {
        Self {
            queries: zeros(),
            rows_scanned: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            sample_rows: AtomicU64::new(0),
            converged_early: AtomicU64::new(0),
            attrs_retired: AtomicU64::new(0),
            phase_ns: zeros(),
            phase_calls: zeros(),
            // Doubling means iteration counts are small; resolve 1..16
            // exactly, then coarsen.
            retirement_iteration: Histogram::new(vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32]),
            iterations_per_query: Histogram::new(vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32]),
            // Work units span orders of magnitude; powers of four from 4Ki.
            rows_scanned_per_query: Histogram::new((6..=15).map(|i| 1u64 << (2 * i)).collect()),
            sketch_marginals: AtomicU64::new(0),
            sampled_marginals: AtomicU64::new(0),
        }
    }

    /// Queries observed for `kind`.
    pub fn queries_total(&self, kind: QueryKind) -> u64 {
        self.queries[kind.index()].load(Ordering::Relaxed)
    }

    /// Queries observed across all kinds.
    pub fn queries_all_kinds(&self) -> u64 {
        self.queries.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total counter-update work units across observed queries.
    pub fn rows_scanned_total(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Total doubling iterations across observed queries.
    pub fn iterations_total(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Sum of final sample sizes across observed queries.
    pub fn sample_rows_total(&self) -> u64 {
        self.sample_rows.load(Ordering::Relaxed)
    }

    /// Queries whose stopping rule fired before the sample reached `N`.
    pub fn converged_early_total(&self) -> u64 {
        self.converged_early.load(Ordering::Relaxed)
    }

    /// Attribute retirements observed.
    pub fn attrs_retired_total(&self) -> u64 {
        self.attrs_retired.load(Ordering::Relaxed)
    }

    /// Total wall-clock nanoseconds recorded for `phase`.
    pub fn phase_nanos_total(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()].load(Ordering::Relaxed)
    }

    /// The retirement-iteration histogram.
    pub fn retirement_iterations(&self) -> &Histogram {
        &self.retirement_iteration
    }

    /// The iterations-per-query histogram.
    pub fn iterations_per_query(&self) -> &Histogram {
        &self.iterations_per_query
    }

    /// The rows-scanned-per-query histogram.
    pub fn rows_scanned_per_query(&self) -> &Histogram {
        &self.rows_scanned_per_query
    }

    /// Renders a human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metric                         value");
        let _ = writeln!(out, "-----------------------------  ------------");
        let _ = writeln!(out, "{:<29}  {}", "queries_total", self.queries_all_kinds());
        for kind in QueryKind::ALL {
            let n = self.queries_total(kind);
            if n > 0 {
                let _ = writeln!(out, "  {:<27}  {}", kind.name(), n);
            }
        }
        let _ = writeln!(out, "{:<29}  {}", "iterations_total", self.iterations_total());
        let _ = writeln!(out, "{:<29}  {}", "rows_scanned_total", self.rows_scanned_total());
        let _ = writeln!(out, "{:<29}  {}", "sample_rows_total", self.sample_rows_total());
        let _ = writeln!(out, "{:<29}  {}", "converged_early_total", self.converged_early_total());
        let _ = writeln!(out, "{:<29}  {}", "attrs_retired_total", self.attrs_retired_total());
        for phase in Phase::ALL {
            let ns = self.phase_nanos_total(phase);
            let calls = self.phase_calls[phase.index()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{:<29}  {:.3} ms ({} spans)",
                format!("phase_{}_total", phase.name()),
                ns as f64 / 1e6,
                calls
            );
        }
        let hist = &self.retirement_iteration;
        if hist.count() > 0 {
            let _ = writeln!(out, "retirement_iteration histogram:");
            let counts = hist.bucket_counts();
            for (i, &bound) in hist.bounds().iter().enumerate() {
                if counts[i] > 0 {
                    let _ = writeln!(out, "  le={:<5} {}", bound, counts[i]);
                }
            }
            if counts[hist.bounds().len()] > 0 {
                let _ = writeln!(out, "  le=+Inf  {}", counts[hist.bounds().len()]);
            }
        }
        for (name, hist) in [
            ("iterations_per_query", &self.iterations_per_query),
            ("rows_scanned_per_query", &self.rows_scanned_per_query),
        ] {
            if hist.count() > 0 {
                let _ = writeln!(
                    out,
                    "{:<29}  p50={:.1} p95={:.1} p99={:.1}",
                    name,
                    hist.quantile(0.5),
                    hist.quantile(0.95),
                    hist.quantile(0.99)
                );
            }
        }
        out
    }

    /// Renders Prometheus-style exposition text (`swope_*` metric family).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE swope_queries_total counter");
        for kind in QueryKind::ALL {
            let _ = writeln!(
                out,
                "swope_queries_total{{kind=\"{}\"}} {}",
                kind.name(),
                self.queries_total(kind)
            );
        }
        for (name, value) in [
            ("swope_iterations_total", self.iterations_total()),
            ("swope_rows_scanned_total", self.rows_scanned_total()),
            ("swope_sample_rows_total", self.sample_rows_total()),
            ("swope_converged_early_total", self.converged_early_total()),
            ("swope_attrs_retired_total", self.attrs_retired_total()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "# TYPE swope_phase_nanoseconds_total counter");
        for phase in Phase::ALL {
            let _ = writeln!(
                out,
                "swope_phase_nanoseconds_total{{phase=\"{}\"}} {}",
                phase.name(),
                self.phase_nanos_total(phase)
            );
        }
        self.retirement_iteration.render_prometheus("swope_retirement_iteration", &mut out);
        self.iterations_per_query.render_prometheus("swope_iterations_per_query", &mut out);
        self.rows_scanned_per_query.render_prometheus("swope_rows_scanned_per_query", &mut out);
        for (name, hist) in [
            ("swope_retirement_iteration", &self.retirement_iteration),
            ("swope_iterations_per_query", &self.iterations_per_query),
            ("swope_rows_scanned_per_query", &self.rows_scanned_per_query),
        ] {
            let _ = writeln!(out, "# TYPE {name}_approx_quantile gauge");
            hist.render_quantiles(name, "", &mut out);
        }
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let _ = writeln!(out, "# TYPE {} counter", names::MI_MARGINALS_TOTAL);
        for (source, value) in
            [("sketch", load(&self.sketch_marginals)), ("sampled", load(&self.sampled_marginals))]
        {
            let _ = writeln!(out, "{}{{source=\"{source}\"}} {value}", names::MI_MARGINALS_TOTAL);
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryObserver for MetricsRegistry {
    fn query_start(&mut self, meta: &QueryMeta) {
        QueryObserver::query_start(&mut &*self, meta);
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        QueryObserver::phase(&mut &*self, phase, iteration, nanos);
    }

    fn attr_retired(&mut self, attr: usize, iteration: usize, bounds: AttrBounds) {
        QueryObserver::attr_retired(&mut &*self, attr, iteration, bounds);
    }

    fn query_end(&mut self, stats: &RunStats) {
        QueryObserver::query_end(&mut &*self, stats);
    }
}

/// Shared-reference observer: the registry is all atomics, so a `&'_
/// MetricsRegistry` can observe (useful when one registry aggregates many
/// sequential queries while also being rendered elsewhere).
impl QueryObserver for &MetricsRegistry {
    fn query_start(&mut self, meta: &QueryMeta) {
        self.queries[meta.kind.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(sketch) = meta.plan.sketch_marginals {
            let source = if sketch { &self.sketch_marginals } else { &self.sampled_marginals };
            source.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn phase(&mut self, phase: Phase, _iteration: usize, nanos: u64) {
        self.phase_ns[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        self.phase_calls[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn attr_retired(&mut self, _attr: usize, iteration: usize, _bounds: AttrBounds) {
        self.attrs_retired.fetch_add(1, Ordering::Relaxed);
        self.retirement_iteration.observe(iteration as u64);
    }

    fn query_end(&mut self, stats: &RunStats) {
        self.rows_scanned.fetch_add(stats.rows_scanned, Ordering::Relaxed);
        self.iterations.fetch_add(stats.iterations as u64, Ordering::Relaxed);
        self.sample_rows.fetch_add(stats.sample_size as u64, Ordering::Relaxed);
        if stats.converged_early {
            self.converged_early.fetch_add(1, Ordering::Relaxed);
        }
        self.iterations_per_query.observe(stats.iterations as u64);
        self.rows_scanned_per_query.observe(stats.rows_scanned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plan;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5122);
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(vec![10, 10]);
    }

    #[test]
    fn quantiles_exact_on_enumerating_bounds() {
        // Bounds enumerate every distinct value, so rank interpolation
        // must reproduce the textbook order statistics exactly.
        let h = Histogram::new((1..=100).collect());
        for v in 1..=100 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.01), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(vec![10, 20]);
        for _ in 0..4 {
            h.observe(5); // all mass in the first bucket
        }
        // Ranks 1..=4 of 4 spread linearly across (0, 10].
        assert_eq!(h.quantile(0.25), 2.5);
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn quantiles_clamp_to_last_bound_on_overflow() {
        let h = Histogram::new(vec![10, 100]);
        h.observe(5);
        h.observe(1_000_000); // overflow bucket
        assert_eq!(h.quantile(0.99), 100.0, "overflow clamps to last finite bound");
        assert_eq!(h.quantile(0.25), 10.0, "sole observation owns its whole bucket");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(vec![1, 2]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn labelled_exposition_is_valid() {
        let h = Histogram::new(vec![10, 100]);
        h.observe(7);
        h.observe(70);
        h.observe(700);
        let mut out = String::new();
        out.push_str("# TYPE lat histogram\n");
        h.render_prometheus_labelled("lat", "endpoint=\"q\",dataset=\"d\"", &mut out);
        assert!(out.contains("lat_bucket{endpoint=\"q\",dataset=\"d\",le=\"10\"} 1\n"), "{out}");
        assert!(out.contains("lat_bucket{endpoint=\"q\",dataset=\"d\",le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("lat_sum{endpoint=\"q\",dataset=\"d\"} 777\n"), "{out}");
        assert!(out.contains("lat_count{endpoint=\"q\",dataset=\"d\"} 3\n"), "{out}");
        // Every non-comment line is `name{labels} value` with a parseable
        // value — the shape Prometheus' text parser requires.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let (name_and_labels, value) = line.rsplit_once(' ').unwrap();
            assert!(name_and_labels.starts_with("lat"), "{line}");
            assert!(name_and_labels.ends_with('}'), "{line}");
            value.parse::<f64>().unwrap();
        }
        // Labelled quantile gauges merge labels before the quantile tag.
        let mut q = String::new();
        h.render_quantiles("lat", "endpoint=\"q\",dataset=\"d\"", &mut q);
        assert!(q.contains("lat_approx_quantile{endpoint=\"q\",dataset=\"d\",quantile=\"0.5\"}"));
        assert_eq!(q.lines().count(), 3);
    }

    #[test]
    fn registry_accumulates_run_stats() {
        let mut reg = MetricsRegistry::new();
        let meta = QueryMeta {
            kind: QueryKind::EntropyFilter,
            num_attrs: 8,
            epsilon: 0.1,
            threads: 1,
            plan: Plan { n: 100, ..Plan::default() },
        };
        reg.query_start(&meta);
        reg.phase(Phase::Ingest, 1, 500);
        reg.phase(Phase::Ingest, 2, 250);
        reg.attr_retired(3, 2, AttrBounds { lower: 0.0, upper: 1.0 });
        reg.query_end(&RunStats {
            sample_size: 64,
            iterations: 2,
            rows_scanned: 512,
            converged_early: true,
        });
        assert_eq!(reg.queries_total(QueryKind::EntropyFilter), 1);
        assert_eq!(reg.queries_all_kinds(), 1);
        assert_eq!(reg.phase_nanos_total(Phase::Ingest), 750);
        assert_eq!(reg.attrs_retired_total(), 1);
        assert_eq!(reg.retirement_iterations().count(), 1);
        assert_eq!(reg.rows_scanned_total(), 512);
        assert_eq!(reg.iterations_total(), 2);
        assert_eq!(reg.sample_rows_total(), 64);
        assert_eq!(reg.converged_early_total(), 1);
    }

    #[test]
    fn renders_mention_all_families() {
        let mut reg = MetricsRegistry::new();
        reg.query_end(&RunStats {
            sample_size: 4,
            iterations: 1,
            rows_scanned: 40,
            converged_early: false,
        });
        let table = reg.render_table();
        assert!(table.contains("rows_scanned_total"));
        assert!(table.contains("phase_ingest_total"));
        let prom = reg.render_prometheus();
        assert!(prom.contains("swope_queries_total{kind=\"entropy_top_k\"} 0"));
        assert!(prom.contains("swope_rows_scanned_total 40"));
        assert!(prom.contains("swope_iterations_per_query_bucket{le=\"1\"} 1"));
        assert!(prom.contains("swope_rows_scanned_per_query_sum 40"));
        assert!(prom.contains("le=\"+Inf\""));
    }

    #[test]
    fn plan_families_count_each_observed_query_once() {
        let reg = MetricsRegistry::new();
        let mut obs = &reg;
        let start = |obs: &mut &MetricsRegistry, plan: Plan| {
            let kind = QueryKind::MiTopK;
            obs.query_start(&QueryMeta { kind, num_attrs: 4, epsilon: 0.1, threads: 1, plan });
        };
        start(&mut obs, Plan { sketch_marginals: Some(false), ..Plan::default() });
        start(&mut obs, Plan { sketch_marginals: Some(true), ..Plan::default() });
        start(&mut obs, Plan::default());
        let prom = reg.render_prometheus();
        for line in [
            "swope_mi_marginals_total{source=\"sketch\"} 1\n",
            "swope_mi_marginals_total{source=\"sampled\"} 1\n",
        ] {
            assert!(prom.contains(line), "{line}");
        }
    }

    #[test]
    fn shared_reference_observing() {
        let reg = MetricsRegistry::new();
        let mut obs = &reg;
        obs.phase(Phase::Decide, 1, 42);
        assert_eq!(reg.phase_nanos_total(Phase::Decide), 42);
    }
}
