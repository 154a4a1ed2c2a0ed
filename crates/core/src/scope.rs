//! Scoped queries: restricting any SWOPE query to a row range and/or a
//! single-attribute predicate, accelerated by the snapshot's per-page
//! partition sketch.
//!
//! A [`Scope`] names a sub-population of the dataset: the rows in
//! `[row_start, row_end)` that also satisfy an optional `attr = code`
//! predicate. [`crate::run`] drives its one loop over the scoped
//! population of size `n_s` — the sample is uniform without replacement
//! *from the scope*, bounds use `n = n_s`, and `p_f` defaults to `1/n_s`
//! — so the paper's guarantees hold verbatim over the scoped rows.
//! [`LocalSource`] is the loop's count source over the scope's rows: it
//! counts each delta through one [`Counter`], the body every shard
//! counts with, and hands the states one [`ShardCounts`] to apply.
//!
//! ## How a scope is sampled
//!
//! Every scope is one population for one sampler: per page of the
//! dataset's layout, its *members* — the slots of the scope's rows there,
//! in slot order — drawn by `swope_sampling::PagePrefix`. Each doubling
//! splits its draws over the pages by the sequential hypergeometric law
//! on the members each has left, and takes every page's next members in
//! slot order from a uniform start member. A layout is a uniform shuffle of each
//! page, independent of the data, and a uniform permutation restricted to
//! a fixed subset is uniform on it, so the draws are prefixes of a
//! uniform permutation of the scope (`docs/THEORY.md` § "Page-prefix
//! sampling"): the paper's guarantees hold verbatim over the scoped rows.
//!
//! * **Full scope** — every page is *whole*: its draws are one or two
//!   runs of positions, slice copies on the heap. A usable sketch adds
//!   one thing, for MI only: every attribute's exact whole-dataset counts
//!   ([`sketch_marginals`]), from which the driver takes `H_D(α_t)` and
//!   `H_D(α)` exactly and samples only the joint. Entropy shapes answer
//!   alike with or without a sketch.
//! * **Range scope** — pages the range holds whole are whole pages; a
//!   fringe page at either end keeps the bounds of the range's rows, and
//!   its draws test its slots' rows against them as far as they reach:
//!   resolving a range costs nothing a page.
//! * **Predicate scope** — the predicate column is scanned once, page by
//!   page, skipping every page whose sketch histogram proves zero
//!   matches; each page keeps a bitmap of the slots of its matching rows
//!   in the range (a page of all matches is whole).
//!
//! A sketch changes how a scope is resolved, never what it samples: a
//! predicate skips the pages it proves empty of matches, and a full-scope
//! MI query takes its marginals from it. A range holds no choice at all,
//! so it answers with the same bytes with or without a sketch, on the
//! heap, paged under a budget, on any thread count and through a
//! coordinator.
//!
//! ## `rows_scanned` accounting
//!
//! Scoped queries charge physical work only: rows examined while
//! resolving a predicate scope (setup) plus rows gathered from the store
//! during sampling.
//!
//! ## Empty scopes
//!
//! A scope selecting zero rows is well-defined, not an error: every score
//! is 0 with collapsed bounds `[0, 0]` (the empirical entropy of an empty
//! population is 0 by convention), top-k returns the first `k`
//! (candidate) attributes in index order, filters accept exactly when
//! `η = 0`, and the stats report zero iterations with
//! `converged_early = true`. The driver builds that answer for any
//! source that reports `n = 0`, charging only the scope-resolution scan.

use std::iter;
use std::ops::Range;

use swope_columnar::{AttrIndex, Code, CodeBuf, Dataset, DatasetSketch};
use swope_obs::{Phase, Plan, QueryObserver};
use swope_sampling::{PageMembers, PagePrefix};

use crate::driver::{run, CountSource, Round, Rule, Shape};
use crate::exec::Executor;
use crate::measure::Measure;
use crate::report::{FilterResult, TopKResult};
use crate::shard::{CountRequest, Counter, ShardCounts, WarmCounter};
use crate::{SwopeConfig, SwopeError};

/// A restriction of a query to part of the dataset: a row range
/// intersected with an optional single-attribute equality predicate.
///
/// `None` bounds mean "unbounded on that side"; `row_end` is exclusive
/// and clamped to the dataset's row count. The default scope selects
/// everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    /// First row of the scope (inclusive). `None` means row 0.
    pub row_start: Option<usize>,
    /// One past the last row of the scope. `None` means the dataset end;
    /// larger values are clamped.
    pub row_end: Option<usize>,
    /// Keep only rows whose `attr` column equals `code`.
    pub predicate: Option<(AttrIndex, Code)>,
}

impl Scope {
    /// The unrestricted scope (every row).
    pub fn all() -> Self {
        Self::default()
    }

    /// A pure row-range scope `[start, end)`.
    pub fn range(start: usize, end: usize) -> Self {
        Self { row_start: Some(start), row_end: Some(end), predicate: None }
    }

    /// Returns a copy with the predicate `attr = code` added.
    pub fn with_predicate(mut self, attr: AttrIndex, code: Code) -> Self {
        self.predicate = Some((attr, code));
        self
    }
}

/// What a [`Scope`] resolved to against a concrete dataset.
pub(crate) enum ResolvedScope {
    /// The scope covers the whole dataset.
    Full,
    /// A proper sub-range of rows, no predicate.
    RowRange(Range<usize>),
    /// The rows a predicate matched, as members of their pages, and the
    /// rows examined to find them.
    Members(PageMembers, u64),
}

/// A sketch is only trusted when its shape and every column's support
/// match the dataset; anything else (stale file, wrong dataset) is
/// treated as absent, which costs speed but never correctness.
fn usable_sketch<'a>(
    dataset: &Dataset,
    sketch: Option<&'a DatasetSketch>,
) -> Option<&'a DatasetSketch> {
    sketch.filter(|sk| {
        sk.grid() == dataset.layout().grid()
            && sk.num_columns() == dataset.num_attrs()
            && (0..dataset.num_attrs())
                .all(|attr| sk.column(attr).is_some_and(|c| c.support() == dataset.support(attr)))
    })
}

/// Every attribute's exact code counts over the whole of `dataset`: the
/// totals of `sketch`'s page histograms, the marginals an MI query over
/// a full scope takes instead of sampling them. `None` unless a sketch
/// matches the dataset (rows, attributes, supports) and every column's
/// totals add up to its rows — a sketch that disagrees costs the query
/// its exact marginals, never its correctness.
pub fn sketch_marginals(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
) -> Option<Vec<Vec<u64>>> {
    let sketch = usable_sketch(dataset, sketch)?;
    let rows = dataset.num_rows() as u64;
    (0..sketch.num_columns())
        .map(|attr| {
            let totals = sketch.column(attr)?.totals();
            (totals.iter().sum::<u64>() == rows).then(|| totals.to_vec())
        })
        .collect()
}

/// Validates `scope` against `dataset` and materializes predicate scopes
/// (with sketch-based page pruning when a matching sketch is supplied).
pub(crate) fn resolve_scope(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
    scope: &Scope,
) -> Result<ResolvedScope, SwopeError> {
    let num_rows = dataset.num_rows();
    let start = scope.row_start.unwrap_or(0);
    let end = scope.row_end.unwrap_or(num_rows).min(num_rows);
    if start > end {
        return Err(SwopeError::InvalidScope(format!(
            "row range starts at {start} but ends at {end}"
        )));
    }
    match scope.predicate {
        None if start == 0 && end == num_rows => Ok(ResolvedScope::Full),
        None => Ok(ResolvedScope::RowRange(start..end)),
        Some((attr, code)) => {
            let h = dataset.num_attrs();
            if attr >= h {
                return Err(SwopeError::InvalidScope(format!(
                    "predicate attribute {attr} out of range (dataset has {h})"
                )));
            }
            let support = dataset.support(attr);
            if code >= support {
                return Err(SwopeError::InvalidScope(format!(
                    "predicate code {code} outside attribute {attr}'s support {support}"
                )));
            }
            let sketch = usable_sketch(dataset, sketch);
            let (members, scanned) = scan_predicate(dataset, sketch, start..end, attr, code);
            Ok(ResolvedScope::Members(members, scanned))
        }
    }
}

/// The rows in `range` whose `attr` code equals `code`, as members of
/// their pages, skipping pages the sketch proves empty of matches; and
/// the number of rows examined.
///
/// Slot `s` of a page holds its in-page row `s ^ deltas[s − first]`,
/// `first` the page's first slot. Each page is read in slot order, so
/// the members come out in slot order.
fn scan_predicate(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
    range: Range<usize>,
    attr: AttrIndex,
    code: Code,
) -> (PageMembers, u64) {
    let column = dataset.column(attr);
    let (to_row, grid) = (dataset.layout().row_deltas(), dataset.layout().grid());
    let mut members = PageMembers::new(grid);
    let mut scanned = 0u64;
    let (mut buf, mut codes) = (CodeBuf::new(), Vec::new());
    for page in grid.pages_of(range.clone()) {
        if let Some(sk) = sketch {
            if sk.column(attr).is_some_and(|c| c.page_count(page, code) == 0) {
                continue;
            }
        }
        let (span, first) = (grid.span(page), grid.first_slot(page));
        let (lo, hi) =
            (range.start.max(span.start) - span.start, range.end.min(span.end) - span.start);
        scanned += (hi - lo) as u64;
        let deltas = &to_row[span.clone()];
        // In 16-bit lanes, on the page's slots: the span only overflows
        // one when it is the whole page.
        let (whole, lo16, len) = (hi - lo == span.len(), (lo + first) as u16, (hi - lo) as u16);
        let in_range = |s: usize, d: u16| whole | ((s as u16 ^ d).wrapping_sub(lo16) < len);
        // Only pages that can hold matches are read: a sketch-skipped
        // page is never faulted (nor CRC-checked).
        codes.clear();
        column.read(iter::once(span.start as u32..span.end as u32), &mut buf, &mut codes);
        members.push_page(page, |slots, flags| {
            let at = slots.start - first..slots.end - first;
            let stored = codes[at.clone()].iter().zip(&deltas[at]);
            for ((flag, (&c, &d)), s) in flags.iter_mut().zip(stored).zip(slots) {
                *flag = (c == code) & in_range(s, d);
            }
        })
    }
    (members, scanned)
}

/// The local [`CountSource`]: a dataset's rows, sampled from the
/// population its scope resolved to — the scope's rows as members of
/// their pages, drawn by one [`PagePrefix`] — and counted the way a shard
/// counts: one [`Counter`], then one [`Measure::apply`].
pub(crate) struct LocalSource<'a> {
    dataset: &'a Dataset,
    /// Whether the scope is short of the whole dataset.
    scoped: bool,
    /// Rows examined to resolve the scope.
    setup_rows: u64,
    sampler: PagePrefix,
    /// The thread's spare counter while the source is open.
    counter: WarmCounter,
    /// The iteration's request and counts, refilled in place.
    req: CountRequest,
    counts: ShardCounts,
    /// The sketch, when the scope is the whole dataset: its page
    /// histograms hold the population's marginals.
    full_sketch: Option<&'a DatasetSketch>,
}

impl<'a> LocalSource<'a> {
    /// Resolves `scope` against `dataset` and sets up its sampler.
    pub(crate) fn open(
        dataset: &'a Dataset,
        scope: &Scope,
        sketch: Option<&'a DatasetSketch>,
        config: &SwopeConfig,
    ) -> Result<Self, SwopeError> {
        let resolved = resolve_scope(dataset, sketch, scope)?;
        let scoped = !matches!(resolved, ResolvedScope::Full);
        let layout = dataset.layout();
        let (members, setup_rows) = match resolved {
            ResolvedScope::Full => (PageMembers::range(layout, 0..dataset.num_rows()), 0),
            ResolvedScope::RowRange(range) => (PageMembers::range(layout, range), 0),
            ResolvedScope::Members(members, scanned) => (members, scanned),
        };
        Ok(Self {
            dataset,
            scoped,
            setup_rows,
            sampler: PagePrefix::new(members, config.seed),
            counter: Counter::warm(),
            req: CountRequest { target: None, live: Vec::new() },
            counts: ShardCounts::empty(None, []),
            full_sketch: sketch.filter(|_| !scoped),
        })
    }

    /// Whether the scope is short of the whole dataset.
    pub(crate) fn scoped(&self) -> bool {
        self.scoped
    }
}

impl CountSource for LocalSource<'_> {
    fn plan(&self) -> Plan {
        Plan { n: self.sampler.num_rows(), scope_rows: self.setup_rows, ..Plan::default() }
    }

    fn num_attrs(&self) -> usize {
        self.dataset.num_attrs()
    }

    fn support(&self, attr: AttrIndex) -> u32 {
        self.dataset.support(attr)
    }

    fn name(&self, attr: AttrIndex) -> String {
        self.dataset.schema().field(attr).map(|f| f.name().to_owned()).unwrap_or_default()
    }

    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        Ok(sketch_marginals(self.dataset, self.full_sketch))
    }

    fn count<M: Measure, O: QueryObserver>(
        &mut self,
        m_target: usize,
        measure: &mut M,
        states: &mut [M::State],
        round: &mut Round<'_, O>,
        exec: &Executor,
    ) -> Result<(), SwopeError> {
        let span = round.it.phase_start();
        self.sampler.grow_to(m_target);
        let delta = self.sampler.positions();
        round.it.phase_end(Phase::SampleGrow, span);
        round.announce(self.sampler.sampled(), delta.len(), states.len(), M::WORK);

        let span = round.it.phase_start();
        let (req, counts) = (&mut self.req, &mut self.counts);
        measure.request(states, req);
        let marginals = measure.reads_marginals();
        self.counter.fill(self.dataset, delta, req, marginals, counts, exec);
        let applied = measure.apply(counts, states);
        self.counter.park(req, counts);
        round.it.phase_end(Phase::Ingest, span);
        applied
    }
}

/// [`crate::entropy_top_k`] restricted to `scope`, observed, on `exec`:
/// [`run`] with [`Rule::TopK`] over entropy and a typed result.
///
/// Kept for `benchmark/src/replay.rs::sketch_over_physical`, its only
/// caller, whose sources this workspace's PRs cannot edit; drop it once
/// that crate calls [`run`].
pub fn entropy_top_k_scoped_exec<O: QueryObserver>(
    dataset: &Dataset,
    k: usize,
    scope: &Scope,
    sketch: Option<&DatasetSketch>,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    run(dataset, &Shape::entropy(Rule::TopK { k }), scope, sketch, config, observer, exec)
        .map(Into::into)
}

/// [`crate::entropy_filter`] restricted to `scope`, observed, on `exec`:
/// [`run`] with [`Rule::Filter`] over entropy and a typed result.
///
/// Kept for `benchmark/src/replay.rs::sketch_over_physical`, its only
/// caller, like [`entropy_top_k_scoped_exec`].
pub fn entropy_filter_scoped_exec<O: QueryObserver>(
    dataset: &Dataset,
    eta: f64,
    scope: &Scope,
    sketch: Option<&DatasetSketch>,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    run(dataset, &Shape::entropy(Rule::Filter { eta }), scope, sketch, config, observer, exec)
        .map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Answer;
    use swope_columnar::{Column, Field, Schema};
    use swope_estimate::entropy::entropy_from_counts;
    use swope_store::page::PAGE_ROWS;

    /// `shape` over `scope`, unobserved, on `cfg.threads` workers.
    fn scoped(
        ds: &Dataset,
        shape: Shape,
        scope: &Scope,
        sk: Option<&DatasetSketch>,
        cfg: &SwopeConfig,
    ) -> Answer {
        let exec = Executor::new(cfg.threads);
        run(ds, &shape, scope, sk, cfg, &mut swope_obs::NoopObserver, &exec).unwrap()
    }

    fn dataset(n: usize, supports: &[u32]) -> Dataset {
        let fields =
            supports.iter().enumerate().map(|(i, &u)| Field::new(format!("c{i}"), u)).collect();
        let columns = supports
            .iter()
            .map(|&u| {
                Column::new(
                    (0..n)
                        .map(|r| (r as u32).wrapping_mul(2654435761u32.wrapping_add(u)) % u)
                        .collect(),
                    u,
                )
                .unwrap()
            })
            .collect();
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    fn sketch_of(ds: &Dataset) -> DatasetSketch {
        swope_columnar::snapshot::build_sketch(ds)
    }

    /// The members a predicate scope resolves to.
    fn members_of(ds: &Dataset, sk: Option<&DatasetSketch>, scope: &Scope) -> PageMembers {
        match resolve_scope(ds, sk, scope).unwrap() {
            ResolvedScope::Members(members, _) => members,
            _ => panic!("a predicate resolves to members"),
        }
    }

    /// The population of `rows` of `ds`, as a range's members are built:
    /// each page's slots whose rows are in `rows`, in slot order.
    fn members_of_rows(ds: &Dataset, rows: &[usize]) -> PageMembers {
        let grid = ds.layout().grid();
        let mut members = PageMembers::new(grid);
        for page in 0..grid.count() {
            let (span, first) = (grid.span(page), grid.first_slot(page));
            let deltas = &ds.layout().row_deltas()[span.clone()];
            members.push_page(page, |slots, flags| {
                for (flag, s) in flags.iter_mut().zip(slots) {
                    let row = span.start + (s ^ usize::from(deltas[s - first])) - first;
                    *flag = rows.binary_search(&row).is_ok();
                }
            })
        }
        members
    }

    /// A predicate scope resolves to the same members on a heap dataset,
    /// whose columns keep a page layout, as on its paged copy, which keeps
    /// row order: the slots of the rows that match, in slot order.
    #[test]
    fn predicate_members_are_equal_on_heap_and_paged_data() {
        let n = 3 * PAGE_ROWS + 1_234;
        let ds = dataset(n, &[5, 300]);
        let path = std::env::temp_dir()
            .join(format!("swope-scope-predicate-rows-{}.swop", std::process::id()));
        swope_columnar::snapshot::write_file(&ds, &path).unwrap();
        let cache = std::sync::Arc::new(swope_columnar::PageCache::new(None));
        let (paged, sk) =
            swope_columnar::snapshot::open(&path, swope_columnar::Residency::Paged(&cache))
                .unwrap();
        std::fs::remove_file(&path).ok();
        for (attr, code) in [(0, 2), (1, 17)] {
            for (start, end) in [(0, n), (1_000, 2 * PAGE_ROWS + 5)] {
                let scope = Scope::range(start, end).with_predicate(attr, code);
                let want: Vec<usize> =
                    (start..end).filter(|&r| ds.column(attr).code(r) == code).collect();
                assert!(!want.is_empty());
                let want = members_of_rows(&ds, &want);
                assert_eq!(members_of(&ds, None, &scope), want, "heap, {scope:?}");
                assert_eq!(members_of(&paged, sk.as_ref(), &scope), want, "paged, {scope:?}");
            }
        }
    }

    fn exact_entropy_over(ds: &Dataset, attr: usize, rows: impl Iterator<Item = usize>) -> f64 {
        let mut counts = vec![0u64; ds.support(attr) as usize];
        for r in rows {
            counts[ds.column(attr).code(r) as usize] += 1;
        }
        entropy_from_counts(&counts)
    }

    #[test]
    fn resolve_rejects_malformed_scopes() {
        let ds = dataset(100, &[4, 8]);
        let inverted = Scope::range(50, 10);
        assert!(matches!(resolve_scope(&ds, None, &inverted), Err(SwopeError::InvalidScope(_))));
        let bad_attr = Scope::all().with_predicate(9, 0);
        assert!(matches!(resolve_scope(&ds, None, &bad_attr), Err(SwopeError::InvalidScope(_))));
        let bad_code = Scope::all().with_predicate(0, 99);
        assert!(matches!(resolve_scope(&ds, None, &bad_code), Err(SwopeError::InvalidScope(_))));
    }

    /// The source `scope` resolves to, offered `sk`.
    fn population<'a>(
        ds: &'a Dataset,
        sk: Option<&'a DatasetSketch>,
        scope: &Scope,
    ) -> LocalSource<'a> {
        LocalSource::open(ds, scope, sk, &SwopeConfig::default()).unwrap()
    }

    #[test]
    fn resolve_detects_full_and_clamps() {
        let ds = dataset(100, &[4]);
        for scope in [Scope::all(), Scope::range(0, 100), Scope::range(0, 500)] {
            let resolved = resolve_scope(&ds, None, &scope).unwrap();
            assert!(matches!(resolved, ResolvedScope::Full), "{scope:?}");
            assert_eq!(population(&ds, None, &scope).sampler.num_rows(), 100);
        }
        // An empty range has no member.
        assert_eq!(population(&ds, None, &Scope::range(10, 10)).sampler.num_rows(), 0);
    }

    #[test]
    fn predicate_scope_materializes_matching_rows() {
        let ds = dataset(1000, &[4, 8]);
        let scope = Scope::all().with_predicate(0, 2);
        let resolved = resolve_scope(&ds, Some(&sketch_of(&ds)), &scope).unwrap();
        let ResolvedScope::Members(members, scanned) = resolved else { panic!("expected members") };
        let expected: Vec<usize> = (0..1000).filter(|&r| ds.column(0).code(r) == 2).collect();
        assert_eq!(members, members_of_rows(&ds, &expected));
        assert_eq!(members.len(), expected.len());
        assert_eq!(scanned, 1000);
    }

    #[test]
    fn full_scope_is_bitwise_identical_to_unscoped() {
        let ds = dataset(20_000, &[2, 64, 8]);
        let cfg = SwopeConfig::default().with_seed(11);
        let unscoped = crate::entropy_top_k(&ds, 2, &cfg).unwrap();
        let top_2 = Shape::entropy(Rule::TopK { k: 2 });
        let full = scoped(&ds, top_2, &Scope::all(), Some(&sketch_of(&ds)), &cfg);
        assert_eq!(unscoped, full.into());
    }

    #[test]
    fn range_scope_without_sketch_matches_brute_force() {
        // A range small enough that the query degenerates to an exact
        // scan of the scope: the result must equal a brute-force recount.
        let ds = dataset(10_000, &[4, 16]);
        let scope = Scope::range(100, 600);
        let r =
            scoped(&ds, Shape::entropy(Rule::TopK { k: 2 }), &scope, None, &SwopeConfig::default());
        for s in &r.scores {
            let exact = exact_entropy_over(&ds, s.attr, 100..600);
            assert!(
                (s.estimate - exact).abs() < 1e-9,
                "attr {}: {} vs {exact}",
                s.attr,
                s.estimate
            );
        }
        assert_eq!(r.stats.sample_size, 500);
    }

    #[test]
    fn page_covering_range_scope_is_exact_at_full_sample() {
        // Scope spans 3 full pages plus unaligned edges on both sides;
        // epsilon is tight enough on this small scope that the loop runs
        // to m = n_s, where the counters must be exactly the scoped
        // counts.
        let n = 6 * PAGE_ROWS;
        let ds = dataset(n, &[3, 7]);
        let sk = sketch_of(&ds);
        let (start, end) = (PAGE_ROWS - 123, 4 * PAGE_ROWS + 456);
        let scope = Scope::range(start, end);
        let cfg = SwopeConfig { epsilon: 0.001, ..SwopeConfig::default() };
        let r = scoped(&ds, Shape::entropy(Rule::Profile { floor: 1e-6 }), &scope, Some(&sk), &cfg);
        assert_eq!(r.stats.sample_size, end - start);
        for s in &r.scores {
            let exact = exact_entropy_over(&ds, s.attr, start..end);
            assert!(
                (s.estimate - exact).abs() < 1e-9,
                "attr {}: {} vs {exact}",
                s.attr,
                s.estimate
            );
        }
    }

    #[test]
    fn page_covering_range_scope_scans_only_its_own_rows() {
        // 17 pages, scope covering 4 full pages plus 500 rows of fringe
        // on each side (~24% of the rows): a range needs no setup scan,
        // so the store work is rows gathered while sampling the scope,
        // at least the sample and at most the scope.
        let n = 17 * PAGE_ROWS;
        let ds = dataset(n, &[16, 64]);
        let sk = sketch_of(&ds);
        let cfg = SwopeConfig::default().with_seed(3);
        let (start, end) = (PAGE_ROWS - 500, 5 * PAGE_ROWS + 500);
        let scope = Scope::range(start, end);
        let r = scoped(&ds, Shape::entropy(Rule::TopK { k: 1 }), &scope, Some(&sk), &cfg);
        let scanned = r.stats.rows_scanned;
        assert!(scanned >= r.stats.sample_size as u64, "scanned {scanned}");
        assert!(scanned <= (end - start) as u64, "scanned {scanned}");
        // And the answer still matches the scoped brute force.
        let top = &r.scores[0];
        let exact = exact_entropy_over(&ds, top.attr, start..end);
        assert!(top.lower <= exact + 1e-9 && exact <= top.upper + 1e-9);
    }

    #[test]
    fn a_range_answers_alike_with_or_without_a_sketch() {
        // Ranges that hold whole pages, with much, little or no fringe,
        // and ranges that hold none: a sketch resolves a range to the
        // same members, so every shape answers with the same bytes.
        let n = 5 * PAGE_ROWS;
        let ds = dataset(n, &[4, 16, 64]);
        let sk = sketch_of(&ds);
        let ranges = [
            (PAGE_ROWS - 30_000, 3 * PAGE_ROWS + 35_536),
            (PAGE_ROWS - 500, 4 * PAGE_ROWS + 500),
            (2 * PAGE_ROWS, 3 * PAGE_ROWS),
            (PAGE_ROWS + 1, 2 * PAGE_ROWS),
            (10, 20),
        ];
        let cfg = SwopeConfig::with_epsilon(0.05).with_seed(3);
        for (start, end) in ranges {
            let scope = Scope::range(start, end);
            assert_eq!(
                entropy_answers(&ds, &scope, Some(&sk)),
                entropy_answers(&ds, &scope, None),
                "{scope:?}"
            );
            let mi = Shape::mi(0, Rule::TopK { k: 1 });
            assert_eq!(
                scoped(&ds, mi, &scope, Some(&sk), &cfg),
                scoped(&ds, mi, &scope, None, &cfg),
                "{scope:?}"
            );
        }
    }

    #[test]
    fn empty_scope_results_are_well_defined() {
        let ds = dataset(1000, &[4, 8, 2]);
        let cfg = SwopeConfig::default();
        let scope = Scope::range(500, 500);
        let top = scoped(&ds, Shape::entropy(Rule::TopK { k: 2 }), &scope, None, &cfg);
        assert_eq!(top.scores.len(), 2);
        assert!(top.scores.iter().all(|s| s.estimate == 0.0 && s.upper == 0.0));
        assert!(top.stats.converged_early);
        assert_eq!(top.stats.iterations, 0);

        let none = scoped(&ds, Shape::entropy(Rule::Filter { eta: 1.0 }), &scope, None, &cfg);
        assert!(none.scores.is_empty());
        let all = scoped(&ds, Shape::entropy(Rule::Filter { eta: 0.0 }), &scope, None, &cfg);
        assert_eq!(all.scores.len(), 3);

        let prof = scoped(&ds, Shape::mi(0, Rule::Profile { floor: 0.05 }), &scope, None, &cfg);
        assert_eq!(prof.scores.len(), 2);
        assert!(prof.scores.iter().all(|s| s.estimate == 0.0));
    }

    #[test]
    fn mi_scoped_range_matches_full_scan_of_scope() {
        use swope_estimate::joint::mutual_information;
        // Candidate 1 copies the target inside the scope only, so scoped
        // MI differs sharply from unscoped MI.
        let n = 4000;
        let target: Vec<u32> = (0..n).map(|r| (r % 4) as u32).collect();
        let copy: Vec<u32> = (0..n).map(|r| if r < 2000 { (r % 4) as u32 } else { 0 }).collect();
        let ds = Dataset::new(
            Schema::new(vec![Field::new("t", 4), Field::new("c", 4)]),
            vec![Column::new(target, 4).unwrap(), Column::new(copy, 4).unwrap()],
        )
        .unwrap();
        let scope = Scope::range(0, 2000);
        let cfg = SwopeConfig { epsilon: 0.01, ..SwopeConfig::default() };
        let r = scoped(&ds, Shape::mi(0, Rule::TopK { k: 1 }), &scope, None, &cfg);
        // Exact MI over the scoped rows: candidate copies target -> 2 bits.
        let scoped_cols = (
            Column::new((0..2000).map(|r| (r % 4) as u32).collect(), 4).unwrap(),
            Column::new((0..2000).map(|r| (r % 4) as u32).collect(), 4).unwrap(),
        );
        let exact = mutual_information(&scoped_cols.0, &scoped_cols.1);
        assert!(
            (r.scores[0].estimate - exact).abs() < 0.1,
            "scoped MI {} vs exact {exact}",
            r.scores[0].estimate
        );
    }

    #[test]
    fn predicate_scope_entropy_matches_brute_force() {
        let ds = dataset(8_000, &[4, 32]);
        let sk = sketch_of(&ds);
        let scope = Scope::all().with_predicate(0, 1);
        let cfg = SwopeConfig { epsilon: 0.01, ..SwopeConfig::default() };
        let r = scoped(&ds, Shape::entropy(Rule::Profile { floor: 1e-6 }), &scope, Some(&sk), &cfg);
        let rows: Vec<usize> = (0..8_000).filter(|&row| ds.column(0).code(row) == 1).collect();
        for s in &r.scores {
            let exact = exact_entropy_over(&ds, s.attr, rows.iter().copied());
            assert!(
                (s.estimate - exact).abs() < 1e-6,
                "attr {}: {} vs {exact}",
                s.attr,
                s.estimate
            );
        }
    }

    #[test]
    fn scoped_queries_are_deterministic_and_thread_invariant() {
        let n = 3 * PAGE_ROWS;
        let ds = dataset(n, &[8, 128, 2]);
        let sk = sketch_of(&ds);
        let scope = Scope::range(PAGE_ROWS - 1000, 3 * PAGE_ROWS - 777);
        let cfg = SwopeConfig::default().with_seed(42);
        let a = scoped(&ds, Shape::entropy(Rule::TopK { k: 2 }), &scope, Some(&sk), &cfg);
        let b = scoped(&ds, Shape::entropy(Rule::TopK { k: 2 }), &scope, Some(&sk), &cfg);
        assert_eq!(a, b);
        let par = scoped(
            &ds,
            Shape::entropy(Rule::TopK { k: 2 }),
            &scope,
            Some(&sk),
            &cfg.clone().with_threads(8),
        );
        assert_eq!(a, par);
    }

    #[test]
    fn mismatched_sketch_is_ignored() {
        let ds = dataset(2_000, &[4, 8]);
        let other = dataset(500, &[4, 8]);
        let stale = sketch_of(&other);
        // Must still answer correctly (physically) rather than trusting
        // the wrong histograms.
        let scope = Scope::range(100, 1100);
        let cfg = SwopeConfig { epsilon: 0.01, ..SwopeConfig::default() };
        let r =
            scoped(&ds, Shape::entropy(Rule::Profile { floor: 1e-6 }), &scope, Some(&stale), &cfg);
        for s in &r.scores {
            let exact = exact_entropy_over(&ds, s.attr, 100..1100);
            assert!((s.estimate - exact).abs() < 1e-6);
        }
    }

    /// Every scoped entropy shape over `scope`, for equality checks.
    fn entropy_answers(ds: &Dataset, scope: &Scope, sk: Option<&DatasetSketch>) -> [Answer; 3] {
        let cfg = SwopeConfig::with_epsilon(0.05).with_seed(17);
        [
            Shape::entropy(Rule::TopK { k: 2 }),
            Shape::entropy(Rule::Filter { eta: 1.5 }),
            Shape::entropy(Rule::Profile { floor: 0.5 }),
        ]
        .map(|shape| scoped(ds, shape, scope, sk, &cfg))
    }

    #[test]
    fn same_shape_sketch_of_other_supports_samples_physically() {
        // Same rows x columns, but the sketch's middle column has a
        // larger support than the dataset's: trusting it would index a
        // histogram past the state's support. It must be ignored, so the
        // answers are the sketchless ones bit for bit.
        let n = 3 * PAGE_ROWS + 99;
        let ds = dataset(n, &[6, 9, 3]);
        let foreign = sketch_of(&dataset(n, &[6, 40, 3]));
        assert!(usable_sketch(&ds, Some(&foreign)).is_none());
        let scope = Scope::range(PAGE_ROWS - 700, 3 * PAGE_ROWS + 50);
        assert_eq!(
            entropy_answers(&ds, &scope, Some(&foreign)),
            entropy_answers(&ds, &scope, None)
        );
    }

    #[test]
    fn sketch_whose_pages_do_not_add_up_samples_physically() {
        use swope_columnar::{CodeVisitor, ColumnSketchBuilder};
        // Right shape, right supports, but column 1's second page
        // histogram is ten rows short: its pages cannot stand in for the
        // rows. Every range samples its rows all the same.
        let n = 4 * PAGE_ROWS;
        let ds = dataset(n, &[5, 12]);
        let mut short_page = ColumnSketchBuilder::new(12);
        for page in 0..4 {
            let rows = if page == 1 { PAGE_ROWS - 10 } else { PAGE_ROWS };
            let codes: Vec<Code> =
                (page * PAGE_ROWS..page * PAGE_ROWS + rows).map(|r| ds.column(1).code(r)).collect();
            short_page.codes(&codes);
            short_page.end_page();
        }
        let crafted = DatasetSketch::new(
            swope_store::page::PageGrid::whole(n),
            vec![sketch_of(&ds).column(0).unwrap().clone(), short_page.finish()],
        );
        assert!(usable_sketch(&ds, Some(&crafted)).is_some());
        assert!(sketch_marginals(&ds, Some(&crafted)).is_none());
        let over_bad = Scope::range(PAGE_ROWS - 5, 3 * PAGE_ROWS + 5);
        assert_eq!(
            entropy_answers(&ds, &over_bad, Some(&crafted)),
            entropy_answers(&ds, &over_bad, None)
        );
        let past_bad = Scope::range(2 * PAGE_ROWS - 5, 4 * PAGE_ROWS);
        assert_eq!(
            entropy_answers(&ds, &past_bad, Some(&crafted)),
            entropy_answers(&ds, &past_bad, Some(&sketch_of(&ds)))
        );
    }
}
