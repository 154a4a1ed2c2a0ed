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
//! [`LocalSource`] is the loop's count source over a [`Population`]: it
//! counts each delta through one [`Counter`], the body every shard
//! counts with, adds a hybrid sample's covered draws to the counted
//! histograms, and hands the states one [`ShardCounts`] to apply.
//!
//! ## How a scope is sampled
//!
//! * **Full scope** — a prefix shuffle over the whole dataset: the
//!   unscoped query, bit for bit. A usable sketch adds one thing, for MI
//!   only: every attribute's exact whole-dataset counts
//!   ([`sketch_marginals`]), from which the driver takes `H_D(α_t)` and
//!   `H_D(α)` exactly and samples only the joint. Entropy shapes answer
//!   alike with or without a sketch.
//! * **Range scope, entropy queries** — the range is split at page
//!   (64Ki-row) boundaries into fully *covered* pages, whose exact
//!   per-code histograms the [`DatasetSketch`] already holds, and a
//!   *fringe* of at most `2·PAGE_ROWS − 2` boundary rows. It runs the
//!   hybrid sampler below iff `covered_rows ≥ 2 × fringe_rows`
//!   ([`HYBRID_COVERED_PER_FRINGE`]) and at least one page is covered;
//!   any other range is sampled physically, exactly as without a sketch.
//!   The simulation costs about the same whatever the range's length
//!   (≈ 1 ms a query on a 32-column dataset, nearly all of it covered
//!   draws), so it only pays once it replaces enough rows: on hot data
//!   it loses to the rows while fewer than three pages are covered and
//!   wins up to 2× beyond, under a page budget it wins 2.4× at a quarter
//!   of a 1 M-row dataset and 15× at all of it (EXPERIMENTS.md § "The
//!   sketch path: where it pays"). The rule reads
//!   the range and `PAGE_ROWS` and nothing else — not whether the
//!   columns are on the heap or paged, the page budget, the thread count
//!   or how the rows are sharded — because the two samplers answer with
//!   different bytes (both within the guarantee): a rule that looked at
//!   residency would make the same request answer differently on a heap
//!   server, a budgeted one and a cluster, and the invariance suites and
//!   the result cache both rest on it not doing so.
//!
//!   The hybrid sampler
//!   simulates a uniform WOR draw over the whole scope without drawing
//!   record by record. Each iteration's `Δm` new draws are divided by
//!   one hypergeometric variate `HG(rem_covered + rem_fringe,
//!   rem_covered, Δm)` into covered and fringe draws — the law of the
//!   covered count among `Δm` WOR draws. The fringe draws yield
//!   physical rows (incremental Fisher–Yates over the materialized
//!   fringe). The covered draws yield, per attribute, a WOR sample of
//!   the covered region's remaining code multiset, produced as *counts*:
//!   [`CoveredDist`] walks a binary tree over the histogram and splits
//!   the draw count at every node with one more hypergeometric variate
//!   (the multivariate hypergeometric law, factored along the tree).
//!   Covered draws never touch the store and cost a share of one
//!   variate per visited node, not a tree walk per draw. Marginally per
//!   attribute this is exactly a uniform WOR sample of the scoped code
//!   multiset (the membership count matches row sampling's, and within
//!   each side the draw is uniform WOR), so Lemma 3's bound applies per
//!   attribute; attributes are dependent only across the covered region,
//!   which the union bound over per-attribute events never relied on
//!   (`tests/tests/guarantee_rate.rs` puts that to an experiment). At
//!   `m = n_s` every counter holds the exact scoped counts. A sketch
//!   that disagrees with the columns — another support, or covered
//!   histograms that do not add up to the covered rows — is set aside
//!   and the range is sampled physically. Covered counts are one
//!   subtraction per code of the sketch's cumulative page histograms,
//!   whatever the number of pages covered.
//! * **Range scope, MI queries / no sketch** — MI needs joint
//!   co-occurrences, which per-attribute histograms cannot synthesize, so
//!   the scope is sampled physically: a prefix shuffle over `n_s`
//!   offset-mapped into the range, marginals included (a range's exact
//!   marginals would need its fringe counted; only a full scope takes
//!   them from the sketch).
//! * **Predicate scope** — matching rows are materialized by scanning the
//!   predicate column once, skipping every page whose sketch histogram
//!   proves zero matches; queries then sample the row list physically.
//!
//! ## `rows_scanned` accounting
//!
//! Scoped queries charge physical work only: rows examined while
//! materializing a predicate scope (setup) plus rows gathered from the
//! store during sampling. Covered-region draws are synthesized from
//! sketch histograms without touching the store and are charged zero —
//! `rows_scanned` measures store traffic, which is precisely what the
//! sketch exists to avoid. They are counted on their own, process-wide,
//! in [`crate::sketch_stats`].
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

use std::ops::Range;
use std::time::Instant;

use swope_columnar::{AttrIndex, Code, CodeRepr, ColumnStorage, Dataset, DatasetSketch};
use swope_obs::{Phase, QueryObserver, ScopePath};
use swope_sampling::rng::Xoshiro256pp;
use swope_sampling::{hypergeometric, PrefixShuffle};
use swope_store::for_packed;
use swope_store::page::PAGE_ROWS;

use crate::count::CountState;
use crate::driver::{run, CountSource, Round, Rule, Setup, Shape};
use crate::exec::Executor;
use crate::measure::Measure;
use crate::report::{FilterResult, TopKResult};
use crate::shard::{CountRequest, Counter, ShardCounts};
use crate::{sketch_stats, SwopeConfig, SwopeError};

/// A range scope runs the hybrid sampler iff its whole pages hold at
/// least this many rows per fringe row (see the module docs for why the
/// rule may read nothing but the range). 1.5 sends ranges of one page
/// and half as much fringe again through the simulation, where it costs
/// 1.4× the rows; 2.5 and 3 read like 2 end to end.
const HYBRID_COVERED_PER_FRINGE: usize = 2;

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
    /// An explicit, ascending list of matching physical rows.
    Rows(Vec<u32>),
}

/// A resolved scope plus the bookkeeping the loops need.
pub(crate) struct ScopeSetup {
    pub(crate) resolved: ResolvedScope,
    /// Scoped population size `n_s`.
    pub(crate) n: usize,
    /// Physical rows examined while materializing the scope.
    pub(crate) setup_rows: u64,
}

/// A sketch is only trusted when its shape and every column's support
/// match the dataset; anything else (stale file, wrong dataset) is
/// treated as absent, which costs speed but never correctness.
fn usable_sketch<'a>(
    dataset: &Dataset,
    sketch: Option<&'a DatasetSketch>,
) -> Option<&'a DatasetSketch> {
    sketch.filter(|sk| {
        sk.num_rows() == dataset.num_rows()
            && sk.num_columns() == dataset.num_attrs()
            && (0..dataset.num_attrs())
                .all(|attr| sk.column(attr).is_some_and(|c| c.support() == dataset.support(attr)))
    })
}

/// Per-attribute code counts over the fully covered `pages` of a usable
/// sketch, or `None` when some column's histograms do not add up to the
/// rows those pages hold — such a sketch cannot stand in for the store,
/// and the range is sampled physically instead.
fn covered_counts(sketch: &DatasetSketch, pages: Range<usize>) -> Option<Vec<Vec<u64>>> {
    let covered_rows = (pages.len() * PAGE_ROWS) as u64;
    page_counts(sketch, pages, covered_rows)
}

/// Every column's counts over `pages`, or `None` unless each adds up to
/// `rows`.
fn page_counts(sketch: &DatasetSketch, pages: Range<usize>, rows: u64) -> Option<Vec<Vec<u64>>> {
    (0..sketch.num_columns())
        .map(|attr| {
            let counts = sketch.column(attr)?.range_counts(pages.clone());
            (counts.iter().sum::<u64>() == rows).then_some(counts)
        })
        .collect()
}

/// Every attribute's exact code counts over the whole of `dataset`, read
/// from `sketch`'s page histograms: the marginals an MI query over a full
/// scope takes instead of sampling them. `None` unless a sketch matches
/// the dataset (rows, attributes, supports) and every column's
/// histograms add up to its rows — a sketch that disagrees costs the
/// query its exact marginals, never its correctness.
pub fn sketch_marginals(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
) -> Option<Vec<Vec<u64>>> {
    let sketch = usable_sketch(dataset, sketch)?;
    page_counts(sketch, 0..sketch.num_pages(), dataset.num_rows() as u64)
}

/// Validates `scope` against `dataset` and materializes predicate scopes
/// (with sketch-based page pruning when a matching sketch is supplied).
pub(crate) fn resolve_scope(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
    scope: &Scope,
) -> Result<ScopeSetup, SwopeError> {
    let num_rows = dataset.num_rows();
    let start = scope.row_start.unwrap_or(0);
    let end = scope.row_end.unwrap_or(num_rows).min(num_rows);
    if start > end {
        return Err(SwopeError::InvalidScope(format!(
            "row range starts at {start} but ends at {end}"
        )));
    }
    match scope.predicate {
        None if start == 0 && end == num_rows => {
            Ok(ScopeSetup { resolved: ResolvedScope::Full, n: num_rows, setup_rows: 0 })
        }
        None => Ok(ScopeSetup {
            resolved: ResolvedScope::RowRange(start..end),
            n: end - start,
            setup_rows: 0,
        }),
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
            let (rows, scanned) = scan_predicate(dataset, sketch, start..end, attr, code);
            let n = rows.len();
            Ok(ScopeSetup { resolved: ResolvedScope::Rows(rows), n, setup_rows: scanned })
        }
    }
}

/// Collects the rows in `range` whose `attr` code equals `code`, skipping
/// pages the sketch proves empty of matches. Returns the rows (ascending)
/// and the number of rows actually examined.
fn scan_predicate(
    dataset: &Dataset,
    sketch: Option<&DatasetSketch>,
    range: Range<usize>,
    attr: AttrIndex,
    code: Code,
) -> (Vec<u32>, u64) {
    let column = dataset.column(attr);
    let mut rows = Vec::new();
    let mut scanned = 0u64;
    let first_page = range.start / PAGE_ROWS;
    let last_page = range.end.div_ceil(PAGE_ROWS);
    for page in first_page..last_page {
        if let Some(sk) = sketch {
            if sk.column(attr).is_some_and(|c| c.page_count(page, code) == 0) {
                continue;
            }
        }
        let lo = range.start.max(page * PAGE_ROWS);
        let hi = range.end.min((page + 1) * PAGE_ROWS);
        scanned += (hi - lo) as u64;
        match column.storage() {
            ColumnStorage::Heap(packed) => for_packed!(packed.codes(), |codes| {
                push_matches(&codes[lo..hi], lo, code, &mut rows)
            }),
            // Read in place, one page at a time, and only pages that can
            // hold matches: a sketch-skipped page is never faulted (nor
            // CRC-checked).
            ColumnStorage::Paged(paged) => paged
                .try_for_each_page(lo..hi, |first, page| {
                    let mut row = lo.max(first);
                    let to = hi.min(first + page.len());
                    page.slice(row - first..to - first).for_each(|c| {
                        push_if(&mut rows, row as u32, c == code);
                        row += 1;
                    })
                })
                .unwrap_or_else(|e| panic!("{e}")),
        }
    }
    (rows, scanned)
}

/// Appends `first_row + i` for every `codes[i] == code`.
fn push_matches<R: CodeRepr>(codes: &[R], first_row: usize, code: Code, rows: &mut Vec<u32>) {
    for (off, c) in codes.iter().enumerate() {
        push_if(rows, (first_row + off) as u32, c.widen() == code);
    }
}

/// Appends `row` iff `hit`, without branching on it: whether a row holds
/// a frequent code is a coin flip the predictor loses (≈ 3.3 ns a row on
/// the end-to-end list's predicates), a store that is taken back is not.
#[inline]
fn push_if(rows: &mut Vec<u32>, row: u32, hit: bool) {
    rows.push(row);
    rows.truncate(rows.len() - usize::from(!hit));
}

/// WOR sampler over a multiset of codes: the covered region's remaining
/// per-code counts as a complete binary tree (node `i` sums nodes `2i`
/// and `2i + 1`; the leaf of `code` is node `support + code`), so `k`
/// draws are one top-down walk that splits `k` between the two children
/// of every node it enters with a single hypergeometric variate. One
/// per attribute, each with an independently forked RNG, so
/// per-attribute draw sequences are deterministic regardless of
/// executor thread count or candidate pruning order.
#[derive(Debug, Clone)]
pub(crate) struct CoveredDist {
    /// `tree[1]` is the root; `tree[0]` is unused.
    tree: Vec<u64>,
    rng: Xoshiro256pp,
}

impl CoveredDist {
    pub(crate) fn new(counts: &[u64], rng: Xoshiro256pp) -> Self {
        let u = counts.len();
        let mut tree = vec![0u64; 2 * u];
        tree[u..].copy_from_slice(counts);
        for i in (1..u).rev() {
            tree[i] = tree[2 * i] + tree[2 * i + 1];
        }
        Self { tree, rng }
    }

    /// Covered records not yet drawn.
    pub(crate) fn remaining(&self) -> u64 {
        self.tree.get(1).copied().unwrap_or(0)
    }

    /// Draws `k` codes uniformly without replacement and adds them to
    /// `delta`. The walk only enters subtrees that receive draws, so it
    /// visits `O(min(u, k log u))` nodes; drawing everything that
    /// remains hands every leaf its count without consuming randomness.
    ///
    /// # Panics
    /// Panics if fewer than `k` covered records remain.
    pub(crate) fn draw_into(&mut self, delta: &mut CountState, k: u64) {
        assert!(k <= self.remaining(), "covered overdraw: {k} > {}", self.remaining());
        if k > 0 {
            self.split(1, k, delta);
        }
    }

    /// Takes `k ≥ 1` of the records under `node`.
    fn split(&mut self, node: usize, k: u64, delta: &mut CountState) {
        if k == 1 {
            return self.take_one(node, delta);
        }
        self.tree[node] -= k;
        let leaves = self.tree.len() / 2;
        if node >= leaves {
            delta.increment((node - leaves) as Code, k);
            return;
        }
        let (left, right) = (self.tree[2 * node], self.tree[2 * node + 1]);
        let to_left = hypergeometric(&mut self.rng, left + right, left, k);
        if to_left > 0 {
            self.split(2 * node, to_left, delta);
        }
        if to_left < k {
            self.split(2 * node + 1, k - to_left, delta);
        }
    }

    /// Takes one record under `node`. A lone draw splits as a coin flip
    /// at every level; one uniform rank among the node's records decides
    /// them all (conditioned on falling left it is uniform over the left
    /// child, and likewise right), which is what keeps a wide-support
    /// column with few draws per code at one random number per draw.
    fn take_one(&mut self, mut node: usize, delta: &mut CountState) {
        let leaves = self.tree.len() / 2;
        // A node's last record is no choice (and, like every full drain,
        // costs no randomness).
        let mut rank = match self.tree[node] {
            1 => 0,
            records => self.rng.next_below(records),
        };
        while node < leaves {
            self.tree[node] -= 1;
            let left = self.tree[2 * node];
            let right = rank >= left;
            rank -= if right { left } else { 0 };
            node = 2 * node + right as usize;
        }
        self.tree[node] -= 1;
        delta.increment((node - leaves) as Code, 1);
    }
}

/// RNG fork labels for the hybrid sampler's independent streams.
const MEMBER_LABEL: u64 = 0x5C09;
const FRINGE_LABEL: u64 = 0xF219;
const DIST_LABEL: u64 = 0xD157;

/// The hybrid covered/fringe sampler for range-scoped entropy queries.
pub(crate) struct HybridPop {
    n: usize,
    drawn: usize,
    rem_covered: u64,
    member_rng: Xoshiro256pp,
    /// The materialized fringe under an incremental Fisher–Yates
    /// shuffle: the first `fringe_fixed` entries are the fringe rows
    /// drawn so far, in draw order (the physical deltas the loops
    /// ingest); the rest are still in the urn.
    fringe_rows: Vec<u32>,
    fringe_fixed: usize,
    fringe_rng: Xoshiro256pp,
    /// Per-attribute covered-region code counts (summed sketch pages).
    covered_counts: Vec<Vec<u64>>,
    dist_base: Xoshiro256pp,
}

impl HybridPop {
    /// Grows the sample to `target` draws: one hypergeometric variate
    /// says how many of the new draws land in the covered region, the
    /// rest are shuffled out of the fringe. Returns the new fringe rows
    /// (a range of `fringe_rows`) and the covered draw count.
    fn grow(&mut self, target: usize) -> (Range<usize>, u64) {
        let step = target.min(self.n).saturating_sub(self.drawn);
        let before = self.fringe_fixed;
        let rem_fringe = (self.fringe_rows.len() - before) as u64;
        let covered_k = hypergeometric(
            &mut self.member_rng,
            self.rem_covered + rem_fringe,
            self.rem_covered,
            step as u64,
        );
        self.rem_covered -= covered_k;
        self.drawn += step;
        for i in before..before + (step - covered_k as usize) {
            let span = (self.fringe_rows.len() - i) as u64;
            let j = i + self.fringe_rng.next_below(span) as usize;
            self.fringe_rows.swap(i, j);
        }
        self.fringe_fixed += step - covered_k as usize;
        (before..self.fringe_fixed, covered_k)
    }

    fn dist_for(&self, attr: AttrIndex) -> CoveredDist {
        CoveredDist::new(&self.covered_counts[attr], self.dist_base.fork(attr as u64))
    }
}

/// How a physical sampler's draws map to dataset rows.
enum RowMap {
    /// Draws are dataset rows (unscoped).
    Identity,
    /// Draws index a contiguous range starting here (range scope).
    Offset(u32),
    /// Draws index an explicit row list (predicate scope).
    List(Vec<u32>),
}

enum PopKind {
    /// `sampler` is built by the first [`Population::grow`], so that a
    /// prefix shuffle's `4N`-byte identity is written inside the first
    /// `sample_grow` span rather than before any span opens.
    Physical {
        sampler: Option<PrefixShuffle>,
        seed: u64,
        map: RowMap,
        rows: Vec<u32>,
    },
    Hybrid(HybridPop),
}

/// The population a local query samples from: the whole dataset, a
/// mapped sub-population, or the hybrid covered/fringe simulation.
pub(crate) struct Population {
    n: usize,
    setup_rows: u64,
    /// How a row range was split and which sampler it got; `None` for
    /// full and predicate scopes, which have no choice to make.
    path: Option<ScopePath>,
    kind: PopKind,
}

/// One [`Population::grow`] step.
pub(crate) struct Growth<'a> {
    /// The new physical rows, in draw order.
    pub delta: &'a [u32],
    /// Covered-region draws this step (0 for physical populations).
    pub covered_k: u64,
    /// Total draws so far (physical + covered).
    pub sampled: usize,
}

impl Population {
    /// The population `setup` resolved to. `hybrid` enables the
    /// covered/fringe simulation (valid for entropy queries only; MI
    /// queries need joint co-occurrences and must sample physically).
    pub(crate) fn new(
        dataset: &Dataset,
        sketch: Option<&DatasetSketch>,
        setup: ScopeSetup,
        config: &SwopeConfig,
        hybrid: bool,
    ) -> Self {
        let seed = config.seed;
        let physical = |map| PopKind::Physical { sampler: None, seed, map, rows: Vec::new() };
        let mut path = None;
        let kind = match setup.resolved {
            // The whole dataset, sampled exactly as an unscoped query is.
            ResolvedScope::Full => physical(RowMap::Identity),
            ResolvedScope::RowRange(range) => {
                // Pages fully inside the range are covered; the rest of
                // the range is fringe.
                let first_page = range.start.div_ceil(PAGE_ROWS);
                let last_page = range.end / PAGE_ROWS;
                let covered_rows = last_page.saturating_sub(first_page) * PAGE_ROWS;
                let fringe_rows = range.len() - covered_rows;
                let covered = (hybrid
                    && covered_rows > 0
                    && covered_rows >= HYBRID_COVERED_PER_FRINGE * fringe_rows)
                    .then(|| usable_sketch(dataset, sketch))
                    .flatten()
                    .and_then(|sk| covered_counts(sk, first_page..last_page));
                path = Some(ScopePath {
                    hybrid: covered.is_some(),
                    covered_rows: covered_rows as u64,
                    fringe_rows: fringe_rows as u64,
                });
                sketch_stats::record_range_path(covered.is_some());
                match covered {
                    Some(covered_counts) => {
                        let mut fringe_rows = Vec::with_capacity(fringe_rows);
                        fringe_rows.extend(range.start as u32..(first_page * PAGE_ROWS) as u32);
                        fringe_rows.extend((last_page * PAGE_ROWS) as u32..range.end as u32);
                        let base = Xoshiro256pp::seed_from_u64(seed);
                        PopKind::Hybrid(HybridPop {
                            n: range.len(),
                            drawn: 0,
                            rem_covered: covered_rows as u64,
                            member_rng: base.fork(MEMBER_LABEL),
                            fringe_rows,
                            fringe_fixed: 0,
                            fringe_rng: base.fork(FRINGE_LABEL),
                            covered_counts,
                            dist_base: base.fork(DIST_LABEL),
                        })
                    }
                    None => physical(RowMap::Offset(range.start as u32)),
                }
            }
            ResolvedScope::Rows(list) => physical(RowMap::List(list)),
        };
        Self { n: setup.n, setup_rows: setup.setup_rows, path, kind }
    }

    /// Grows the sample to `target` draws and hands back the new
    /// physical rows and the covered draw count.
    pub(crate) fn grow(&mut self, target: usize) -> Growth<'_> {
        let n = self.n;
        let (delta, covered_k, sampled): (&[u32], u64, usize) = match &mut self.kind {
            PopKind::Physical { sampler, seed, map, rows } => {
                let sampler = sampler.get_or_insert_with(|| PrefixShuffle::new(n, *seed));
                let delta_range = sampler.grow_delta(target);
                let delta = &sampler.rows()[delta_range];
                let before = rows.len();
                let mapped: &[u32] = match map {
                    RowMap::Identity => delta,
                    RowMap::Offset(off) => {
                        rows.extend(delta.iter().map(|&r| r + *off));
                        &rows[before..]
                    }
                    RowMap::List(list) => {
                        rows.extend(delta.iter().map(|&r| list[r as usize]));
                        &rows[before..]
                    }
                };
                (mapped, 0, sampler.sampled())
            }
            PopKind::Hybrid(hp) => {
                let (delta_range, covered_k) = hp.grow(target);
                (&hp.fringe_rows[delta_range], covered_k, hp.drawn)
            }
        };
        Growth { delta, covered_k, sampled }
    }
}

/// The local [`CountSource`]: a dataset's rows, sampled through the
/// [`Population`] its scope resolved to and counted the way a shard
/// counts — one [`Counter`], then one [`Measure::apply`].
pub(crate) struct LocalSource<'a> {
    dataset: &'a Dataset,
    pop: Population,
    counter: Counter,
    /// The iteration's request and counts, refilled in place.
    req: CountRequest,
    counts: ShardCounts,
    /// A hybrid sample's covered-region code distribution of every live
    /// candidate, in attribute order; empty for physical populations.
    covered: Vec<(AttrIndex, CoveredDist)>,
    setup_nanos: Option<u64>,
    /// The sketch, when the scope is the whole dataset: its page
    /// histograms hold the population's marginals.
    full_sketch: Option<&'a DatasetSketch>,
}

impl<'a> LocalSource<'a> {
    /// Resolves `scope` against `dataset` and sets up its sampler;
    /// `timed` runs clock the resolution for the `store_sketch` span.
    pub(crate) fn open(
        dataset: &'a Dataset,
        scope: &Scope,
        sketch: Option<&'a DatasetSketch>,
        config: &SwopeConfig,
        hybrid: bool,
        timed: bool,
    ) -> Result<Self, SwopeError> {
        let started = timed.then(Instant::now);
        let setup = resolve_scope(dataset, sketch, scope)?;
        // A full scope is the plain query; it reports no setup phase.
        let scoped = !matches!(setup.resolved, ResolvedScope::Full);
        let pop = Population::new(dataset, sketch, setup, config, hybrid);
        let setup_nanos = started.filter(|_| scoped).map(|t| t.elapsed().as_nanos() as u64);
        let full_sketch = sketch.filter(|_| !scoped);
        let covered = match &pop.kind {
            PopKind::Hybrid(hp) => (0..dataset.num_attrs()).map(|a| (a, hp.dist_for(a))).collect(),
            PopKind::Physical { .. } => Vec::new(),
        };
        Ok(Self {
            dataset,
            pop,
            counter: Counter::new(dataset),
            req: CountRequest { target: None, live: Vec::new() },
            counts: ShardCounts::empty(None, []),
            covered,
            setup_nanos,
            full_sketch,
        })
    }
}

impl CountSource for LocalSource<'_> {
    fn n(&self) -> usize {
        self.pop.n
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

    fn setup(&self) -> Setup {
        Setup { rows: self.pop.setup_rows, nanos: self.setup_nanos, path: self.pop.path }
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
        let grown = self.pop.grow(m_target);
        round.it.phase_end(Phase::SampleGrow, span);
        round.announce(grown.sampled, grown.delta.len(), states.len());

        let span = round.it.phase_start();
        let (req, counts) = (&mut self.req, &mut self.counts);
        measure.request(states, req);
        self.counter.count(self.dataset, grown.delta, req, counts, exec);
        // Candidates retire by `retain`, so the live list keeps attribute
        // order and a retired candidate's draws go with it.
        self.covered.retain(|(attr, _)| req.live.binary_search(attr).is_ok());
        let k = grown.covered_k;
        if k > 0 {
            exec.for_each2(&mut self.covered, &mut counts.attrs, |(_, dist), delta| {
                dist.draw_into(delta, k);
                sketch_stats::record_covered_draws(k);
            });
        }
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
        DatasetSketch::build(ds.num_rows(), (0..ds.num_attrs()).map(|a| ds.column(a).packed()))
    }

    fn exact_entropy_over(ds: &Dataset, attr: usize, rows: impl Iterator<Item = usize>) -> f64 {
        let mut counts = vec![0u64; ds.support(attr) as usize];
        for r in rows {
            counts[ds.column(attr).code(r) as usize] += 1;
        }
        entropy_from_counts(&counts)
    }

    /// `delta`'s contents as a dense histogram, leaving it empty.
    fn take_counts(delta: &mut CountState) -> Vec<u64> {
        let mut dense = vec![0u64; delta.support() as usize];
        for (code, count) in delta.sorted_entries() {
            dense[code as usize] = count;
        }
        delta.clear();
        dense
    }

    #[test]
    fn covered_dist_drains_to_exact_counts() {
        let counts = vec![5u64, 0, 3, 9, 0, 1];
        let mut dist = CoveredDist::new(&counts, Xoshiro256pp::seed_from_u64(7));
        let mut delta = CountState::new(6);
        // One at a time, so every draw but the last is a real split.
        let total: u64 = counts.iter().sum();
        for drawn in 1..=total {
            dist.draw_into(&mut delta, 1);
            assert_eq!(delta.total(), drawn);
            assert_eq!(dist.remaining(), total - drawn);
        }
        assert_eq!(take_counts(&mut delta), counts);
    }

    #[test]
    fn covered_dist_bulk_drain_matches_counts() {
        for counts in [vec![2u64, 7, 0, 4], vec![13], vec![0, 0, 6, 0, 1, 0, 3]] {
            let total = counts.iter().sum();
            let mut untouched = Xoshiro256pp::seed_from_u64(3);
            let mut dist = CoveredDist::new(&counts, untouched.clone());
            let mut delta = CountState::new(counts.len() as u32);
            dist.draw_into(&mut delta, total);
            assert_eq!(delta.total(), total);
            assert_eq!(take_counts(&mut delta), counts);
            assert_eq!(dist.remaining(), 0);
            // Taking everything is not a random event.
            assert_eq!(dist.rng.next_u64(), untouched.next_u64());
        }
    }

    #[test]
    fn covered_dist_never_overdraws_a_code_under_any_schedule() {
        // Ragged supports (the tree is not perfect), empty codes, and
        // schedules mixing single draws, doublings and a final drain.
        let mut r = Xoshiro256pp::seed_from_u64(77);
        for support in [1usize, 2, 3, 5, 16, 37, 300] {
            let counts: Vec<u64> = (0..support)
                .map(|_| if r.next_below(4) == 0 { 0 } else { r.next_below(500) })
                .collect();
            let total: u64 = counts.iter().sum();
            let mut dist = CoveredDist::new(&counts, r.fork(support as u64));
            let mut delta = CountState::new(support as u32);
            let mut seen = vec![0u64; support];
            let mut k = 1;
            while dist.remaining() > 0 {
                let step = k.min(dist.remaining());
                dist.draw_into(&mut delta, step);
                assert_eq!(delta.total(), step);
                for (have, got) in seen.iter_mut().zip(take_counts(&mut delta)) {
                    *have += got;
                }
                assert!(seen.iter().zip(&counts).all(|(s, c)| s <= c), "support {support}");
                assert_eq!(seen.iter().sum::<u64>() + dist.remaining(), total);
                k = if k % 3 == 0 { 1 } else { k * 2 + 1 };
            }
            assert_eq!(seen, counts, "support {support}");
        }
    }

    #[test]
    #[should_panic(expected = "covered overdraw: 5 > 4")]
    fn covered_dist_overdraw_panics() {
        let mut dist = CoveredDist::new(&[1, 3], Xoshiro256pp::seed_from_u64(1));
        dist.draw_into(&mut CountState::new(2), 5);
    }

    #[test]
    fn covered_dist_per_code_means_match_the_hypergeometric_law() {
        // k draws from N records put k·K_c/N on code c on average, with
        // the hypergeometric variance; over `trials` independent
        // distributions the sample mean must sit within five of its own
        // standard errors — for small k (urn regime) and large (inversion).
        let counts: Vec<u64> = vec![4000, 0, 1, 250, 900, 30, 2500, 7, 7, 1200, 5];
        let n: u64 = counts.iter().sum();
        let base = Xoshiro256pp::seed_from_u64(2024);
        for (k, trials) in [(9u64, 4000u64), (600, 1500), (n - 40, 1500)] {
            let mut sums = vec![0u64; counts.len()];
            for t in 0..trials {
                let mut dist = CoveredDist::new(&counts, base.fork(k * 1_000_000 + t));
                let mut delta = CountState::new(counts.len() as u32);
                dist.draw_into(&mut delta, k);
                for (sum, got) in sums.iter_mut().zip(take_counts(&mut delta)) {
                    *sum += got;
                }
            }
            for (code, (&sum, &kc)) in sums.iter().zip(&counts).enumerate() {
                let p = kc as f64 / n as f64;
                let mean = k as f64 * p;
                let var = mean * (1.0 - p) * (n - k) as f64 / (n - 1) as f64;
                let err = (sum as f64 / trials as f64 - mean).abs();
                assert!(
                    err <= 5.0 * (var / trials as f64).sqrt() + 1e-12,
                    "k {k} code {code}: mean {} vs {mean}",
                    sum as f64 / trials as f64
                );
            }
        }
    }

    #[test]
    fn covered_dist_is_deterministic_per_seed() {
        let counts: Vec<u64> = (0..50).map(|c| (c * 37 % 11) * 20).collect();
        let run = |seed| {
            let mut dist = CoveredDist::new(&counts, Xoshiro256pp::seed_from_u64(seed));
            let mut delta = CountState::new(50);
            [10, 300, 45, 1000].map(|k| {
                dist.draw_into(&mut delta, k);
                take_counts(&mut delta)
            })
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
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

    #[test]
    fn resolve_detects_full_and_clamps() {
        let ds = dataset(100, &[4]);
        for scope in [Scope::all(), Scope::range(0, 100), Scope::range(0, 500)] {
            let setup = resolve_scope(&ds, None, &scope).unwrap();
            assert!(matches!(setup.resolved, ResolvedScope::Full), "{scope:?}");
            assert_eq!(setup.n, 100);
        }
        let setup = resolve_scope(&ds, None, &Scope::range(10, 10)).unwrap();
        assert_eq!(setup.n, 0);
    }

    #[test]
    fn predicate_scope_materializes_matching_rows() {
        let ds = dataset(1000, &[4, 8]);
        let scope = Scope::all().with_predicate(0, 2);
        let setup = resolve_scope(&ds, Some(&sketch_of(&ds)), &scope).unwrap();
        let ResolvedScope::Rows(rows) = &setup.resolved else { panic!("expected rows") };
        let expected: Vec<u32> =
            (0..1000).filter(|&r| ds.column(0).code(r) == 2).map(|r| r as u32).collect();
        assert_eq!(rows, &expected);
        assert_eq!(setup.n, expected.len());
        assert_eq!(setup.setup_rows, 1000);
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
    fn hybrid_range_scope_is_exact_at_full_sample() {
        // Scope spans 3 full pages plus unaligned edges on both sides;
        // epsilon is tight enough on this small scope that the loop runs
        // to m = n_s, where hybrid counters must be exactly the scoped
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
    fn hybrid_range_scope_scans_only_fringe_rows() {
        // 17 pages, scope covering 4 full pages plus 500 rows of fringe
        // on each side (~24% of the rows): the hybrid sampler must charge
        // store work only for the 1000 fringe rows it actually gathers,
        // far below the unscoped query's bill.
        let n = 17 * PAGE_ROWS;
        let ds = dataset(n, &[16, 64]);
        let sk = sketch_of(&ds);
        let cfg = SwopeConfig::default().with_seed(3);
        let scope = Scope::range(PAGE_ROWS - 500, 5 * PAGE_ROWS + 500);
        let hybrid = scoped(&ds, Shape::entropy(Rule::TopK { k: 1 }), &scope, Some(&sk), &cfg);
        let unscoped = crate::entropy_top_k(&ds, 1, &cfg).unwrap();
        assert!(
            hybrid.stats.rows_scanned * 4 <= unscoped.stats.rows_scanned,
            "scoped {} vs unscoped {}",
            hybrid.stats.rows_scanned,
            unscoped.stats.rows_scanned
        );
        // And the answer still matches the scoped brute force.
        let top = &hybrid.scores[0];
        let exact = exact_entropy_over(&ds, top.attr, PAGE_ROWS - 500..5 * PAGE_ROWS + 500);
        assert!(top.lower <= exact + 1e-9 && exact <= top.upper + 1e-9);
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

    /// Whether `start..end` of `ds` runs the hybrid sampler when offered
    /// `sk` for an entropy query.
    fn is_hybrid(ds: &Dataset, sk: &DatasetSketch, start: usize, end: usize) -> bool {
        let setup = resolve_scope(ds, Some(sk), &Scope::range(start, end)).unwrap();
        let pop = Population::new(ds, Some(sk), setup, &SwopeConfig::default(), true);
        let hybrid = matches!(pop.kind, PopKind::Hybrid(_));
        assert_eq!(pop.path.map(|p| p.hybrid), Some(hybrid));
        hybrid
    }

    #[test]
    fn a_range_is_hybrid_iff_it_covers_twice_its_fringe() {
        let n = 5 * PAGE_ROWS;
        let ds = dataset(n, &[4]);
        let sk = sketch_of(&ds);
        // Two covered pages and a fringe of exactly one page's rows, split
        // over both ends: at the threshold. One more fringe row at either
        // end is one row short of it.
        let (start, end) = (PAGE_ROWS - 30_000, 3 * PAGE_ROWS + 35_536);
        assert!(is_hybrid(&ds, &sk, start, end));
        assert!(!is_hybrid(&ds, &sk, start - 1, end));
        assert!(!is_hybrid(&ds, &sk, start, end + 1));
        // A page-aligned range of one page has no fringe at all.
        assert!(is_hybrid(&ds, &sk, 2 * PAGE_ROWS, 3 * PAGE_ROWS));
        // No whole page: nothing to synthesize, however the rule reads.
        assert!(!is_hybrid(&ds, &sk, PAGE_ROWS + 1, 2 * PAGE_ROWS));
        assert!(!is_hybrid(&ds, &sk, 10, 20));
        // The path is the chooser's, with its inputs.
        let setup = resolve_scope(&ds, Some(&sk), &Scope::range(start - 1, end)).unwrap();
        let pop = Population::new(&ds, Some(&sk), setup, &SwopeConfig::default(), true);
        let path = ScopePath {
            hybrid: false,
            covered_rows: 2 * PAGE_ROWS as u64,
            fringe_rows: PAGE_ROWS as u64 + 1,
        };
        assert_eq!(pop.path, Some(path));
        // MI queries never take it.
        let setup = resolve_scope(&ds, Some(&sk), &Scope::range(start, end)).unwrap();
        let pop = Population::new(&ds, Some(&sk), setup, &SwopeConfig::default(), false);
        assert!(matches!(pop.kind, PopKind::Physical { .. }));
    }

    #[test]
    fn covered_counts_equal_the_page_by_page_sum_over_every_page_range() {
        // Five pages, a compact and a sparse column.
        let ds = dataset(4 * PAGE_ROWS + 999, &[11, 300]);
        let sk = sketch_of(&ds);
        for first in 0..4 {
            for last in first + 1..=4 {
                let summed: Vec<Vec<u64>> = (0..2)
                    .map(|attr| {
                        let col = sk.column(attr).unwrap();
                        (0..col.support())
                            .map(|code| (first..last).map(|p| col.page_count(p, code)).sum())
                            .collect()
                    })
                    .collect();
                assert_eq!(covered_counts(&sk, first..last), Some(summed), "{first}..{last}");
            }
        }
        // The partial last page is never a covered page; asking for it
        // comes up short of whole pages and is refused.
        assert!(covered_counts(&sk, 3..5).is_none());
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
        // The hybrid path is what a matching sketch buys; make sure the
        // comparison above was not between two physical runs by chance.
        let own = sketch_of(&ds);
        let hybrid = entropy_answers(&ds, &scope, Some(&own));
        assert!(
            hybrid[0].stats.rows_scanned < entropy_answers(&ds, &scope, None)[0].stats.rows_scanned
        );
    }

    #[test]
    fn sketch_whose_pages_do_not_add_up_samples_physically() {
        use swope_columnar::{ColumnSketch, PackedColumn};
        // Right shape, right supports, but column 1's second page
        // histogram is ten rows short: a covered counter would come up
        // short at m = n_s. Ranges covering that page sample physically;
        // ranges that avoid it still go hybrid.
        let n = 4 * PAGE_ROWS;
        let ds = dataset(n, &[5, 12]);
        let short_page: Vec<PackedColumn> = (0..4)
            .map(|page| {
                let rows = if page == 1 { PAGE_ROWS - 10 } else { PAGE_ROWS };
                let codes = (page * PAGE_ROWS..page * PAGE_ROWS + rows)
                    .map(|r| ds.column(1).code(r))
                    .collect();
                PackedColumn::new(codes, 12).unwrap()
            })
            .collect();
        let crafted = DatasetSketch::new(
            n,
            vec![
                ColumnSketch::build(ds.column(0).packed()),
                ColumnSketch::build_from_pages(12, short_page.iter().map(|p| p.codes())),
            ],
        );
        assert!(usable_sketch(&ds, Some(&crafted)).is_some());
        let over_bad = Scope::range(PAGE_ROWS - 5, 3 * PAGE_ROWS + 5);
        assert!(covered_counts(&crafted, 1..3).is_none());
        assert_eq!(
            entropy_answers(&ds, &over_bad, Some(&crafted)),
            entropy_answers(&ds, &over_bad, None)
        );
        let past_bad = Scope::range(2 * PAGE_ROWS - 5, 4 * PAGE_ROWS);
        assert!(covered_counts(&crafted, 2..4).is_some());
        assert_eq!(
            entropy_answers(&ds, &past_bad, Some(&crafted)),
            entropy_answers(&ds, &past_bad, Some(&sketch_of(&ds)))
        );
    }
}
