use swope_columnar::AttrIndex;

/// One scored attribute in a query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrScore {
    /// Attribute index in the queried dataset.
    pub attr: AttrIndex,
    /// Attribute name from the schema.
    pub name: String,
    /// Point estimate `(lower + upper) / 2` of the score at termination.
    pub estimate: f64,
    /// Lower confidence bound at termination.
    pub lower: f64,
    /// Upper confidence bound at termination.
    pub upper: f64,
    /// The doubling iteration (1-based) at which this attribute left the
    /// race — pruned, accepted, rejected, or resolved at query end. `0`
    /// means the score was not produced by the adaptive loop (exact scans
    /// and OneShot).
    pub retired_iteration: usize,
}

/// Execution statistics shared by all query results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryStats {
    /// Final sample size `M` when the query stopped.
    pub sample_size: usize,
    /// Number of doubling iterations executed.
    pub iterations: usize,
    /// Total counter-update work: one unit per (record, counter) ingestion.
    /// This is the quantity the paper's `O(h·M*)` complexity counts; see
    /// [`WorkKind`] for exactly what each query shape charges per sampled
    /// record.
    pub rows_scanned: u64,
    /// Whether the stopping rule fired before the sample reached `N`
    /// (if `false`, the query degenerated to an exact scan).
    pub converged_early: bool,
    /// One entry per doubling iteration, recording how the candidate set
    /// and the deviation radius evolved — the raw material for
    /// convergence plots and pruning-effectiveness analysis.
    pub trace: Vec<IterationTrace>,
}

/// Snapshot of one doubling iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// 1-based iteration index.
    pub iteration: usize,
    /// Sample size `M` at this iteration.
    pub sample_size: usize,
    /// Live candidates *entering* the iteration (before this round's
    /// pruning/decisions).
    pub candidates: usize,
    /// The shared deviation radius λ at this iteration's `M`.
    pub lambda: f64,
    /// Candidates that left the race during this iteration (pruned,
    /// accepted, rejected, or resolved at termination).
    pub retired: usize,
}

/// The counter-update cost shape of one doubling iteration, making the
/// `rows_scanned` accounting uniform across every query shape.
///
/// Every variant's unit is one (record, counter) ingestion — the quantity
/// the paper's `O(h·M*)` complexity counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Entropy queries: one marginal-counter update per (record,
    /// candidate) — `Δ·c` units.
    EntropyMarginals,
    /// Single-target MI queries: one target-column scan per record plus a
    /// marginal and a joint update per (record, candidate) —
    /// `Δ·(2c + 1)` units. This is the paper's unit, and it is charged
    /// as such even when the marginals come exact from a sketch and the
    /// local source counts only the joint: `rows_scanned` states the
    /// algorithm's work, not which counters an implementation skips.
    MiPerTarget,
}

impl WorkKind {
    /// Work units charged for ingesting `delta_len` new records across
    /// `candidates` live candidates.
    pub fn units(self, delta_len: usize, candidates: usize) -> u64 {
        let (d, c) = (delta_len as u64, candidates as u64);
        match self {
            WorkKind::EntropyMarginals => d * c,
            WorkKind::MiPerTarget => d * (2 * c + 1),
        }
    }
}

impl QueryStats {
    /// Records one iteration in the trace and updates the aggregates.
    pub(crate) fn record_iteration(&mut self, sample_size: usize, candidates: usize, lambda: f64) {
        self.iterations += 1;
        self.sample_size = sample_size;
        self.trace.push(IterationTrace {
            iteration: self.iterations,
            sample_size,
            candidates,
            lambda,
            retired: 0,
        });
    }

    /// Adds `kind`-shaped ingestion work for one iteration's delta to
    /// `rows_scanned`. Every query shape accounts through here.
    pub fn record_work(&mut self, delta_len: usize, candidates: usize, kind: WorkKind) {
        self.rows_scanned += kind.units(delta_len, candidates);
    }

    /// Marks one candidate as having left the race during `iteration`.
    pub(crate) fn note_retirement(&mut self, iteration: usize) {
        if let Some(t) = self.trace.iter_mut().rfind(|t| t.iteration == iteration) {
            t.retired += 1;
        }
    }
}

/// Result of an approximate top-k query ([`crate::entropy_top_k`],
/// [`crate::mi_top_k`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// The k returned attributes, sorted by descending upper bound (the
    /// paper's return order).
    pub top: Vec<AttrScore>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Result of an approximate filtering query ([`crate::entropy_filter`],
/// [`crate::mi_filter`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterResult {
    /// The accepted attributes, sorted by descending estimate.
    pub accepted: Vec<AttrScore>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl TopKResult {
    /// The returned attribute indices, in order.
    pub fn attr_indices(&self) -> Vec<AttrIndex> {
        self.top.iter().map(|a| a.attr).collect()
    }
}

impl FilterResult {
    /// The accepted attribute indices, in order.
    pub fn attr_indices(&self) -> Vec<AttrIndex> {
        self.accepted.iter().map(|a| a.attr).collect()
    }

    /// Whether `attr` was accepted.
    pub fn contains(&self, attr: AttrIndex) -> bool {
        self.accepted.iter().any(|a| a.attr == attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(attr: usize, est: f64) -> AttrScore {
        AttrScore {
            attr,
            name: format!("a{attr}"),
            estimate: est,
            lower: est - 0.1,
            upper: est + 0.1,
            retired_iteration: 1,
        }
    }

    #[test]
    fn work_kind_units_match_documented_shapes() {
        assert_eq!(WorkKind::EntropyMarginals.units(10, 4), 40);
        assert_eq!(WorkKind::MiPerTarget.units(10, 4), 90);
        assert_eq!(WorkKind::EntropyMarginals.units(0, 4), 0);
    }

    #[test]
    fn record_work_accumulates() {
        let mut s = QueryStats::default();
        s.record_work(100, 3, WorkKind::EntropyMarginals);
        s.record_work(50, 2, WorkKind::MiPerTarget);
        assert_eq!(s.rows_scanned, 300 + 250);
    }

    #[test]
    fn note_retirement_lands_on_matching_trace_entry() {
        let mut s = QueryStats::default();
        s.record_iteration(10, 5, 0.5);
        s.record_iteration(20, 5, 0.4);
        s.note_retirement(2);
        s.note_retirement(2);
        s.note_retirement(1);
        assert_eq!(s.trace[0].retired, 1);
        assert_eq!(s.trace[1].retired, 2);
        // Unknown iteration is ignored rather than panicking.
        s.note_retirement(9);
    }

    #[test]
    fn attr_indices_preserve_order() {
        let r =
            TopKResult { top: vec![score(3, 2.0), score(1, 1.5)], stats: QueryStats::default() };
        assert_eq!(r.attr_indices(), vec![3, 1]);
    }

    #[test]
    fn filter_contains() {
        let r = FilterResult {
            accepted: vec![score(0, 1.0), score(2, 0.9)],
            stats: QueryStats::default(),
        };
        assert!(r.contains(2));
        assert!(!r.contains(1));
        assert_eq!(r.attr_indices(), vec![0, 2]);
    }
}
