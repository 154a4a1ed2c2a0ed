//! Shard-parallel scatter-gather execution with an exact count merge.
//!
//! The adaptive loop counts one dataset's rows by default. This module
//! splits the *counting* work of every doubling iteration across row
//! shards — in-process slices of one dataset here, remote peers in
//! `swope-cluster` — and merges the per-shard counts back into the
//! driver's states, whose bounds and decisions never learn the
//! difference.
//!
//! ## Why the merge can be exact
//!
//! Shards never touch floating point: each returns the pure-integer
//! deltas of [`crate::count`] — a [`CountState`] per attribute, plus a
//! [`PairCountState`] of joint occurrences for MI queries — filled by the
//! same [`count_target`] / [`count_candidate`] kernels the unsharded
//! loops use. Integer histograms merge by addition, so any shard count,
//! any partition, and any merge order produce the *same* merged
//! histogram, and the merged delta is drained into the master counters
//! in the one canonical order every delta is (ascending code). Every
//! bound, decision, and returned byte is therefore identical for 1
//! shard, `S` shards, `S` remote peers, or no sharding at all.
//!
//! ## Sampling and counting
//!
//! All shards replay **one global** [`PrefixShuffle`] over the union
//! population (the same shuffle an unsharded run uses), and each shard
//! counts only the delta rows that fall in its own contiguous row range.
//! [`LocalShardSource`] is the one body that does this: in-process
//! shards of one dataset ([`LocalShardSource::new`]) and a cluster
//! peer's slice of the union ([`LocalShardSource::slice`]) sample, keep
//! their rows and count them the same way.
//!
//! ## Layers
//!
//! * [`ShardTransport`] — the engine's view of "somewhere that counts":
//!   [`LocalShardSource`] fans shards out on an [`Executor`];
//!   `swope-cluster`'s wire transport drives remote peers, each counting
//!   through a one-shard [`LocalShardSource`], behind the same trait.
//! * `ShardedSource` — the driver's count source over any transport:
//!   one `advance` per doubling, then the exact merge.
//! * [`crate::run_sharded`] — all six query shapes over a transport.

use std::ops::Range;

use swope_columnar::{AttrIndex, Dataset, DatasetSketch, PageGrouper};
use swope_obs::{Phase, QueryObserver};
use swope_sampling::PrefixShuffle;

use crate::count::{
    count_candidate, count_target, CountScratch, CountState, PairCountState, TargetBuf,
};
use crate::driver::{CountSource, Round};
use crate::exec::Executor;
use crate::measure::Measure;
use crate::scope::sketch_marginals;
use crate::{SwopeConfig, SwopeError};

/// A contiguous, even partition of rows `0..num_rows` into shards.
///
/// Shard `i` owns `range(i)`; the first `num_rows % shards` shards own
/// one extra row. The shard count is clamped into `1..=num_rows.max(1)`.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    // starts[i]..starts[i+1] is shard i's row range; len = shards + 1.
    starts: Vec<u32>,
}

impl ShardPlan {
    /// Partitions `num_rows` rows into `shards` contiguous shards.
    pub fn new(num_rows: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, num_rows.max(1));
        let base = num_rows / shards;
        let extra = num_rows % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for i in 0..shards {
            at += base + usize::from(i < extra);
            starts.push(at as u32);
        }
        Self { starts }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total rows covered by the plan.
    pub fn num_rows(&self) -> usize {
        *self.starts.last().expect("plan has a final boundary") as usize
    }

    /// The row range shard `shard` owns.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        self.starts[shard] as usize..self.starts[shard + 1] as usize
    }

    /// The shard owning global row `row`.
    #[inline]
    fn shard_of(&self, row: u32) -> usize {
        debug_assert!((row as usize) < self.num_rows());
        self.starts.partition_point(|&s| s <= row) - 1
    }
}

/// Attribute metadata a transport reports: enough to build scores and
/// resolve `M0` without holding a local [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttrMeta {
    /// The attribute's field name.
    pub name: String,
    /// The attribute's support size.
    pub support: u32,
}

/// What a doubling iteration asks every shard to count.
#[derive(Debug, Clone, PartialEq)]
pub struct CountRequest {
    /// MI target attribute whose codes pair with every live candidate
    /// (`None` for entropy queries).
    pub target: Option<AttrIndex>,
    /// The still-live attributes, in state order. Per-shard results align
    /// with this list.
    pub live: Vec<AttrIndex>,
}

/// One shard's integer count deltas for one doubling iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCounts {
    /// Target-attribute histogram (`Some` iff the request had a target).
    pub target: Option<CountState>,
    /// Per-live-attribute marginal histograms, aligned with
    /// [`CountRequest::live`].
    pub attrs: Vec<CountState>,
    /// Per-live-attribute joint deltas, aligned with
    /// [`CountRequest::live`] (empty histograms for entropy queries).
    pub joints: Vec<PairCountState>,
}

impl ShardCounts {
    /// Empty deltas of one shape: a target histogram iff `target` gives
    /// its support, and a histogram plus a joint delta per support in
    /// `live`. What a receiver builds before decoding a shard's reply
    /// into it.
    pub fn empty(target: Option<u32>, live: impl IntoIterator<Item = u32>) -> Self {
        let attrs: Vec<CountState> = live.into_iter().map(CountState::new).collect();
        let joints = vec![PairCountState::new(); attrs.len()];
        Self { target: target.map(CountState::new), attrs, joints }
    }
}

/// A source of per-shard count deltas the adaptive loop can drive.
///
/// Implementations own the global sampler: `advance(m, req)` grows the
/// union sample to `m` rows and returns, per shard, the integer count
/// deltas of the newly sampled rows that shard owns. The engine merges
/// the shard deltas ([`Phase::ShardMerge`]) and applies them canonically,
/// so any implementation that returns correct integer counts — local
/// slices or remote peers — yields bitwise-identical query results.
pub trait ShardTransport {
    /// Rows in the union population `N`.
    fn num_rows(&self) -> usize;

    /// Attribute metadata (shared by all shards; shards of one logical
    /// dataset must agree on names and supports).
    fn attrs(&self) -> &[AttrMeta];

    /// Number of shards `advance` reports on.
    fn num_shards(&self) -> usize;

    /// Grows the global sample to `m_target` rows and counts the delta.
    fn advance(
        &mut self,
        m_target: usize,
        req: &CountRequest,
    ) -> Result<Vec<ShardCounts>, SwopeError>;

    /// Every attribute's exact code counts over the whole population,
    /// summed over the shards — `Some` only when the population is the
    /// whole union and *every* shard answers from a partition sketch
    /// ([`crate::sketch_marginals`]). Asked at most once, before the
    /// first [`ShardTransport::advance`], by MI queries only.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError>;
}

/// The [`AttrMeta`] of every attribute of `dataset`, in attribute order:
/// what a transport over its rows reports.
pub fn dataset_meta(dataset: &Dataset) -> Vec<AttrMeta> {
    dataset
        .schema()
        .fields()
        .iter()
        .map(|f| AttrMeta { name: f.name().to_owned(), support: f.support() })
        .collect()
}

/// In-process [`ShardTransport`]: row shards of one resident [`Dataset`],
/// counted in parallel on an [`Executor`].
///
/// Holds the one global [`PrefixShuffle`]; every `advance` keeps the
/// sample delta's rows this dataset holds, partitions them by owning
/// shard into reusable per-shard row lists and fans one count per shard
/// out on the executor. Each shard groups its rows by page, then counts
/// the target and every live candidate with one [`TargetBuf`] and one
/// [`CountScratch`] of its own.
pub struct LocalShardSource<'a> {
    dataset: &'a Dataset,
    sketch: Option<&'a DatasetSketch>,
    exec: &'a Executor,
    plan: ShardPlan,
    meta: Vec<AttrMeta>,
    /// Draws population row `i`, which is union row `base + i` and, when
    /// it falls in the dataset, its local row `base + i − at`.
    sampler: PrefixShuffle,
    base: u64,
    at: u64,
    shards: Vec<Shard>,
    /// What the last `advance` counted: whose histograms `recycle` parks.
    last: CountRequest,
}

/// One shard's rows of the current delta and the buffers its counting
/// reuses from doubling to doubling.
struct Shard {
    rows: Vec<u32>,
    grouper: PageGrouper,
    target: TargetBuf,
    scratch: CountScratch,
    /// Emptied histograms handed back by `recycle`, by attribute.
    idle: Vec<Option<CountState>>,
}

impl Shard {
    /// Counts this shard's rows for `req` into `counts`, on parked
    /// histograms where there are some: the target first, gathering the
    /// codes every candidate pairs against, then each live candidate's
    /// marginal and joint.
    fn count(&mut self, dataset: &Dataset, req: &CountRequest, counts: &mut ShardCounts) {
        let mut take = |a: AttrIndex| {
            self.idle[a].take().unwrap_or_else(|| CountState::new(dataset.support(a)))
        };
        let target = req.target.map(&mut take);
        let attrs = req.live.iter().map(|&a| take(a)).collect();
        *counts =
            ShardCounts { target, attrs, joints: vec![PairCountState::new(); req.live.len()] };
        // Rows of one page adjacent, so paged gathers pin each page once.
        let rows = self.grouper.group(&self.rows);
        if let (Some(t), Some(hist)) = (req.target, counts.target.as_mut()) {
            count_target(dataset.column(t), rows, hist, &mut self.target);
        }
        let candidates = req.live.iter().zip(&mut counts.attrs).zip(&mut counts.joints);
        for ((&attr, out), pairs) in candidates {
            let target = req.target.map(|_| self.target.target());
            let column = dataset.column(attr);
            count_candidate(column, rows, target, out, pairs, &mut self.scratch);
        }
    }
}

impl<'a> LocalShardSource<'a> {
    /// A shard source over `dataset` split into `shards` contiguous row
    /// shards, sampling with `config`'s seed.
    ///
    /// # Errors
    ///
    /// [`SwopeError::EmptyDataset`] if there are no rows to shard (a
    /// transport that reports zero rows stands for an empty *scope*, which
    /// is an answer, not an error).
    pub fn new(
        dataset: &'a Dataset,
        shards: usize,
        config: &SwopeConfig,
        exec: &'a Executor,
    ) -> Result<Self, SwopeError> {
        let n = dataset.num_rows() as u64;
        if n == 0 {
            return Err(SwopeError::EmptyDataset);
        }
        Ok(Self::slice(dataset, shards, 0..n, 0, config.seed, exec))
    }

    /// A shard source over `dataset` as the slice of a larger union that
    /// starts at union row `at`: it samples the union rows `population`
    /// with `seed` — the draws every other slice of the union makes — and
    /// counts those that fall in `[at, at + dataset.num_rows())`, as local
    /// rows split into `shards` contiguous row shards. A cluster peer
    /// counts through a one-shard slice; [`LocalShardSource::new`] is the
    /// slice that is the whole population.
    ///
    /// # Panics
    ///
    /// If `population` holds more than `u32::MAX` rows.
    pub fn slice(
        dataset: &'a Dataset,
        shards: usize,
        population: Range<u64>,
        at: u64,
        seed: u64,
        exec: &'a Executor,
    ) -> Self {
        let plan = ShardPlan::new(dataset.num_rows(), shards);
        let rows = population.end.saturating_sub(population.start);
        Self {
            dataset,
            sketch: None,
            exec,
            meta: dataset_meta(dataset),
            sampler: PrefixShuffle::new(rows as usize, seed),
            base: population.start,
            at,
            shards: (0..plan.num_shards())
                .map(|_| Shard {
                    rows: Vec::new(),
                    grouper: dataset.page_grouper(),
                    target: TargetBuf::new(),
                    scratch: CountScratch::new(),
                    idle: vec![None; dataset.num_attrs()],
                })
                .collect(),
            last: CountRequest { target: None, live: Vec::new() },
            plan,
        }
    }

    /// Takes back what the last [`ShardTransport::advance`] returned, once
    /// spent, so the next one counts into the same histograms instead of
    /// allocating and zeroing new ones: how a cluster peer keeps its
    /// histograms from doubling to doubling.
    pub fn recycle(&mut self, spent: Vec<ShardCounts>) {
        let req = &self.last;
        for (shard, counts) in self.shards.iter_mut().zip(spent) {
            let target = req.target.into_iter().zip(counts.target);
            for (attr, mut cs) in target.chain(req.live.iter().copied().zip(counts.attrs)) {
                if cs.support() == self.meta[attr].support {
                    cs.clear();
                    shard.idle[attr] = Some(cs);
                }
            }
        }
    }

    /// Offers the dataset's partition sketch, whose whole-dataset counts
    /// answer [`ShardTransport::marginals`] — what [`crate::run`] takes
    /// from the same sketch over a full scope, so both answer alike.
    pub fn with_sketch(mut self, sketch: Option<&'a DatasetSketch>) -> Self {
        self.sketch = sketch;
        self
    }
}

impl ShardTransport for LocalShardSource<'_> {
    fn num_rows(&self) -> usize {
        self.sampler.num_rows()
    }

    fn attrs(&self) -> &[AttrMeta] {
        &self.meta
    }

    fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    fn advance(
        &mut self,
        m_target: usize,
        req: &CountRequest,
    ) -> Result<Vec<ShardCounts>, SwopeError> {
        for shard in &mut self.shards {
            shard.rows.clear();
        }
        let held = self.dataset.num_rows() as u64;
        for &i in self.sampler.grow_to(m_target) {
            let local = (self.base + u64::from(i)).checked_sub(self.at);
            if let Some(row) = local.filter(|&row| row < held) {
                self.shards[self.plan.shard_of(row as u32)].rows.push(row as u32);
            }
        }

        let mut out = vec![ShardCounts::empty(None, []); self.shards.len()];
        let dataset = self.dataset;
        self.exec.for_each2(&mut self.shards, &mut out, |shard, counts| {
            shard.count(dataset, req, counts)
        });
        self.last.clone_from(req);
        Ok(out)
    }

    /// The sketch's counts of the rows this source holds: the
    /// population's marginals for [`LocalShardSource::new`], one slice's
    /// share of the union's — which a coordinator sums — for
    /// [`LocalShardSource::slice`].
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        Ok(sketch_marginals(self.dataset, self.sketch))
    }
}

/// Adds every shard's deltas — target histogram, per-attribute
/// histograms, joint runs — into the first shard's, exactly, and checks
/// they answer the `live` candidates the measure asked about: what it
/// then drains into its states in canonical order.
pub(crate) fn merge(shards: Vec<ShardCounts>, live: usize) -> Result<ShardCounts, SwopeError> {
    let mut iter = shards.into_iter();
    let mut acc =
        iter.next().ok_or_else(|| SwopeError::Transport("no shard counts returned".into()))?;
    for sh in iter {
        if let (Some(t), Some(o)) = (acc.target.as_mut(), sh.target.as_ref()) {
            t.merge(o);
        }
        for (a, b) in acc.attrs.iter_mut().zip(&sh.attrs) {
            a.merge(b);
        }
        for (a, b) in acc.joints.iter_mut().zip(&sh.joints) {
            a.merge(b);
        }
    }
    if acc.attrs.len() != live || acc.joints.len() != live {
        return Err(SwopeError::Transport(format!(
            "shard returned {}/{} candidate deltas, engine expected {live}",
            acc.attrs.len(),
            acc.joints.len()
        )));
    }
    Ok(acc)
}

/// The sharded [`CountSource`]: any [`ShardTransport`], asked once per
/// doubling for every shard's integer deltas, which are merged exactly
/// and drained into the driver's states.
pub(crate) struct ShardedSource<'t, T: ShardTransport>(pub(crate) &'t mut T);

impl<T: ShardTransport> CountSource for ShardedSource<'_, T> {
    fn n(&self) -> usize {
        self.0.num_rows()
    }

    fn num_attrs(&self) -> usize {
        self.0.attrs().len()
    }

    fn support(&self, attr: AttrIndex) -> u32 {
        self.0.attrs()[attr].support
    }

    fn name(&self, attr: AttrIndex) -> String {
        self.0.attrs().get(attr).map(|m| m.name.clone()).unwrap_or_default()
    }

    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        self.0.marginals()
    }

    fn count<M: Measure, O: QueryObserver>(
        &mut self,
        m_target: usize,
        measure: &mut M,
        states: &mut [M::State],
        round: &mut Round<'_, O>,
        _exec: &Executor,
    ) -> Result<(), SwopeError> {
        // The sample is exactly the rows asked for, and the delta what it
        // grew by since the previous iteration.
        let m = m_target.min(self.n());
        round.announce(m, m - round.m, states.len());
        let req = measure.request(states);

        let span = round.it.phase_start();
        let shards = self.0.advance(m, &req)?;
        round.it.phase_end(Phase::Ingest, span);

        let span = round.it.phase_start();
        measure.apply_merged(shards, states)?;
        round.it.phase_end(Phase::ShardMerge, span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_sharded, Answer, Rule, Shape};
    use swope_columnar::{Column, Field, Schema};

    /// `shape` over `shards` in-process row shards of `ds`.
    fn sharded(
        ds: &Dataset,
        shape: Shape,
        shards: usize,
        config: &SwopeConfig,
    ) -> Result<Answer, SwopeError> {
        let exec = Executor::new(config.threads);
        let mut source = LocalShardSource::new(ds, shards, config, &exec)?;
        run_sharded(&mut source, &shape, config, &mut swope_obs::NoopObserver, &exec)
    }

    #[test]
    fn shard_plan_covers_rows_exactly_once() {
        for (n, s) in [(10usize, 3usize), (7, 7), (100, 1), (5, 9), (0, 4), (64, 4)] {
            let plan = ShardPlan::new(n, s);
            assert_eq!(plan.num_rows(), n);
            let mut covered = 0usize;
            for i in 0..plan.num_shards() {
                let range = plan.range(i);
                assert_eq!(range.start, covered);
                covered = range.end;
                for r in range.clone() {
                    assert_eq!(plan.shard_of(r as u32), i, "row {r} of plan {n}/{s}");
                }
            }
            assert_eq!(covered, n);
            // Even split: sizes differ by at most one.
            let sizes: Vec<usize> = (0..plan.num_shards()).map(|i| plan.range(i).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "uneven plan {sizes:?}");
        }
    }

    fn cyclic_dataset(n: usize, supports: &[u32]) -> Dataset {
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

    #[test]
    fn sharded_top_k_matches_unsharded_bitwise() {
        let ds = cyclic_dataset(20_000, &[2, 64, 4, 256, 16]);
        let config = SwopeConfig::with_epsilon(0.1).with_seed(7);
        let reference = crate::entropy_top_k(&ds, 3, &config).unwrap();
        for shards in [1usize, 2, 3, 7] {
            let got = sharded(&ds, Shape::entropy(Rule::TopK { k: 3 }), shards, &config).unwrap();
            assert_eq!(got.scores, reference.top, "shards = {shards}");
            assert_eq!(got.stats.sample_size, reference.stats.sample_size);
            assert_eq!(got.stats.iterations, reference.stats.iterations);
            assert_eq!(got.stats.rows_scanned, reference.stats.rows_scanned);
        }
    }

    #[test]
    fn sharded_mi_top_k_matches_unsharded_bitwise() {
        let n = 20_000;
        let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let copy: Vec<u32> = target.iter().map(|&c| c / 2).collect();
        let noise: Vec<u32> =
            (0..n).map(|r| ((r as u32).wrapping_mul(2654435761) >> 13) % 8).collect();
        let ds = Dataset::new(
            Schema::new(vec![Field::new("t", 4), Field::new("copy", 4), Field::new("noise", 8)]),
            vec![
                Column::new(target, 4).unwrap(),
                Column::new(copy, 4).unwrap(),
                Column::new(noise, 8).unwrap(),
            ],
        )
        .unwrap();
        let config = SwopeConfig::with_epsilon(0.4).with_seed(3);
        let reference = crate::mi_top_k(&ds, 0, 2, &config).unwrap();
        for shards in [1usize, 2, 3, 7] {
            let got = sharded(&ds, Shape::mi(0, Rule::TopK { k: 2 }), shards, &config).unwrap();
            assert_eq!(got.scores, reference.top, "shards = {shards}");
        }
    }

    /// Histograms handed back through `recycle` are emptied and refilled:
    /// every doubling counts what a source that never recycles counts,
    /// however the request changes between doublings.
    #[test]
    fn recycled_histograms_count_like_fresh_ones() {
        let ds = cyclic_dataset(5_000, &[2, 64, 4, 256]);
        let config = SwopeConfig::default().with_seed(11);
        let exec = Executor::sequential();
        let mut recycling = LocalShardSource::new(&ds, 2, &config, &exec).unwrap();
        let mut fresh = LocalShardSource::new(&ds, 2, &config, &exec).unwrap();
        let requests = [
            (100, CountRequest { target: Some(0), live: vec![1, 2, 3] }),
            (400, CountRequest { target: Some(0), live: vec![3, 1] }),
            (1_600, CountRequest { target: None, live: vec![0, 1, 2, 3] }),
        ];
        for (m, req) in requests {
            let got = recycling.advance(m, &req).unwrap();
            assert_eq!(got, fresh.advance(m, &req).unwrap(), "m = {m}");
            recycling.recycle(got);
        }
    }

    #[test]
    fn sharded_validation_matches_unsharded() {
        let ds = cyclic_dataset(100, &[2, 4]);
        let config = SwopeConfig::default();
        assert!(matches!(
            sharded(&ds, Shape::entropy(Rule::TopK { k: 0 }), 2, &config),
            Err(SwopeError::InvalidK { .. })
        ));
        assert!(matches!(
            sharded(&ds, Shape::mi(9, Rule::TopK { k: 1 }), 2, &config),
            Err(SwopeError::TargetOutOfRange { .. })
        ));
        assert!(matches!(
            sharded(&ds, Shape::entropy(Rule::Filter { eta: f64::NAN }), 2, &config),
            Err(SwopeError::InvalidThreshold(_))
        ));
    }
}
