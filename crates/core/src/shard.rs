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
//! same count body the unsharded loop uses. Integer histograms merge by
//! addition, so any shard count, any partition, and any merge order
//! produce the *same* merged histogram, and the merged delta is drained
//! into the master counters in the one canonical order every delta is
//! (ascending code). Every bound, decision, and returned byte is
//! therefore identical for 1 shard, `S` shards, `S` remote peers, or no
//! sharding at all.
//!
//! ## Sampling and counting
//!
//! Whoever drives the shards owns the query's **one** sample of the
//! population, the sample an unsharded run draws: a [`PagePrefix`] over
//! the population's members in the dataset's page layout
//! (`swope_sampling::PageLayout`). Each doubling returns positions — a
//! run or two for every whole page it drew from, a list for the rest —
//! which name the same rows on a heap and a paged dataset.
//! [`LocalShardSource`] cuts them at the shards' row cuts: runs with
//! [`ShardPlan::split_runs`], a list with [`ShardPlan::split`]. The
//! layout only moves rows within a page, so a shard may count a few rows
//! near its cut that sit on the other side; every shard counts the same
//! dataset, and any partition of the positions merges to the same
//! counts. `swope-cluster`'s coordinator holds no rows: it sends each
//! peer the positions on the union pages its slice overlaps, and the
//! peer maps them to its own through a slot table of those pages,
//! keeping only the slots that hold its rows. A peer samples nothing, and
//! its work is `O(m_i)`. A row range is the same sampler over the range's
//! members, on every path.
//!
//! Every shard counts its positions through a [`Counter`]: the one count
//! body, which also counts the unsharded loop's rows. It counts the
//! target and fans the live candidates out
//! through [`count_target`] / [`count_candidate`], on histograms
//! ([`Shelf`]) and joint deltas it takes back from doubling to doubling.
//! Every source's counts reach the states through one apply.
//!
//! ## Layers
//!
//! * [`ShardTransport`] — the engine's view of "somewhere that counts":
//!   [`LocalShardSource`] fans shards out on an [`Executor`];
//!   `swope-cluster`'s wire transport drives remote peers, each counting
//!   the positions it is sent through a [`Counter`], behind the same
//!   trait.
//! * `ShardedSource` — the driver's count source over any transport:
//!   one `advance` per doubling, the exact merge, then `recycle`.
//! * [`crate::run_sharded`] — all six query shapes over a transport.

use std::ops::Range;

use swope_columnar::{AttrIndex, Dataset, DatasetSketch, Positions};
use swope_obs::{Phase, Plan, QueryObserver};
use swope_sampling::{PageMembers, PagePrefix};

use crate::count::{
    count_candidate, count_joint, count_target, gather_target, CountScratch, CountState,
    PairCountState, TargetBuf,
};
use crate::driver::{CountSource, Round};
use crate::exec::Executor;
use crate::measure::Measure;
use crate::scope::sketch_marginals;
use crate::{SwopeConfig, SwopeError};

/// A contiguous partition of a dataset's rows into shards, cut evenly:
/// shard `i` owns `range(i)`.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    // starts[i]..starts[i+1] is shard i's row range; len = shards + 1.
    starts: Vec<u32>,
}

impl ShardPlan {
    /// Partitions `num_rows` rows into `shards` contiguous shards: the
    /// first `num_rows % shards` own one extra row. The shard count is
    /// clamped into `1..=num_rows.max(1)`.
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

    /// Hands each row of a sample delta to the shard whose range holds
    /// it, as `push(shard, row)`: how a sharded source splits a
    /// doubling's list by owner.
    #[inline]
    pub fn split(&self, delta: &[u32], mut push: impl FnMut(usize, u32)) {
        for &row in delta {
            push(self.shard_of(row), row);
        }
    }

    /// [`ShardPlan::split`] for runs of consecutive rows: cuts each run
    /// where the shards meet, as `push(shard, run)`.
    pub fn split_runs(&self, runs: &[Range<u32>], mut push: impl FnMut(usize, Range<u32>)) {
        for run in runs {
            let mut start = run.start;
            while start < run.end {
                let shard = self.shard_of(start);
                let end = run.end.min(self.starts[shard + 1]);
                push(shard, start..end);
                start = end;
            }
        }
    }

    /// The shard owning row `row`.
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
/// union sample to `m` rows and returns the integer count deltas of the
/// newly sampled rows — one per shard, or already added up. The engine
/// merges them ([`Phase::ShardMerge`]), applies them canonically and
/// hands them back through `recycle`, so any implementation that returns
/// correct integer counts — local slices or remote peers — yields
/// bitwise-identical query results.
pub trait ShardTransport {
    /// Rows in the union population `N`.
    fn num_rows(&self) -> usize;

    /// Attribute metadata (shared by all shards; shards of one logical
    /// dataset must agree on names and supports).
    fn attrs(&self) -> &[AttrMeta];

    /// Number of shards that count each doubling.
    fn num_shards(&self) -> usize;

    /// Grows the global sample to `m_target` rows and counts the delta.
    fn advance(
        &mut self,
        m_target: usize,
        req: &CountRequest,
    ) -> Result<Vec<ShardCounts>, SwopeError>;

    /// Takes back what the last [`ShardTransport::advance`] returned, once
    /// spent, so the next one counts into the same histograms instead of
    /// allocating and zeroing new ones.
    fn recycle(&mut self, spent: Vec<ShardCounts>);

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
/// Holds the one global [`PagePrefix`] — the sampler an unsharded
/// full-scope run draws from — and every `advance` cuts the delta's
/// positions at the shards' row cuts into reusable per-shard runs and
/// lists, then fans one [`Counter`] per shard out on the executor. The layout only
/// moves rows within a page, so the cut assigns some rows near it to the
/// neighbouring shard; every shard still counts the same dataset, and
/// any partition of the positions merges to the same counts.
pub struct LocalShardSource<'a> {
    dataset: &'a Dataset,
    sketch: Option<&'a DatasetSketch>,
    exec: &'a Executor,
    plan: ShardPlan,
    meta: Vec<AttrMeta>,
    sampler: PagePrefix,
    /// Each shard's positions of the current delta, and its counter.
    shards: Vec<Shard>,
    /// What the last `advance` counted: whose histograms `recycle` parks.
    last: CountRequest,
}

/// One in-process shard: its positions of the current delta — runs and
/// a list — and its counter.
struct Shard {
    list: Vec<u32>,
    runs: Vec<Range<u32>>,
    counter: Counter,
}

/// Emptied histograms, by attribute, kept between doublings so the next
/// one fills the same memory instead of allocating and zeroing new ones.
#[derive(Debug, Default)]
pub struct Shelf {
    idle: Vec<Option<CountState>>,
}

impl Shelf {
    /// Gives `counts` a histogram for `req`'s target, iff it has one, and
    /// for each live attribute `a`, over `support(a)` codes: a parked one
    /// where it has that support, a new one elsewhere. Leaves the joint
    /// deltas to the caller.
    pub fn shape(
        &mut self,
        req: &CountRequest,
        support: impl Fn(AttrIndex) -> u32,
        counts: &mut ShardCounts,
    ) {
        let idle = &mut self.idle;
        let mut take = |a: AttrIndex| {
            let parked =
                idle.get_mut(a).and_then(Option::take).filter(|cs| cs.support() == support(a));
            parked.unwrap_or_else(|| CountState::new(support(a)))
        };
        counts.target = req.target.map(&mut take);
        counts.attrs.clear();
        counts.attrs.extend(req.live.iter().map(|&a| take(a)));
    }

    /// Empties and parks the histograms of `counts`, shaped for `req`.
    pub fn park(&mut self, req: &CountRequest, counts: &mut ShardCounts) {
        let target = req.target.into_iter().zip(counts.target.take());
        for (attr, mut cs) in target.chain(req.live.iter().copied().zip(counts.attrs.drain(..))) {
            cs.clear();
            if self.idle.len() <= attr {
                self.idle.resize_with(attr + 1, || None);
            }
            self.idle[attr] = Some(cs);
        }
    }
}

/// The one count body: turns a delta's positions into the
/// [`ShardCounts`] a [`CountRequest`] asks for, on buffers it keeps from
/// doubling to doubling. Every [`LocalShardSource`] shard owns one, and
/// so do a cluster peer's session and the unsharded loop's source.
///
/// It takes *positions* — as a sample draws them, or as a cluster peer's
/// slot table maps a window — so the kernels never see the layout: heap
/// and paged columns alike are indexed where the layout stores a row.
#[derive(Default)]
pub struct Counter {
    target: TargetBuf,
    /// One per live candidate of the widest request so far.
    slots: Vec<Slot>,
    /// Emptied histograms handed back by [`Counter::park`].
    shelf: Shelf,
}

/// What one candidate's count uses besides its histogram: the attribute,
/// the kernels' scratch and an emptied joint delta to fill.
#[derive(Default)]
struct Slot {
    attr: AttrIndex,
    scratch: CountScratch,
    joint: PairCountState,
}

impl Counter {
    /// A counter with no buffers yet: each grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts the rows at `positions` of `dataset` — the one this
    /// counter was made for — for `req` into `counts`, on parked
    /// histograms and joint deltas where there are some: gathers the
    /// target's codes, which every candidate pairs against; then fans the
    /// live candidates out on `exec`, one slot each.
    ///
    /// # Panics
    ///
    /// If a position or an attribute is out of `dataset`'s range.
    pub fn count(
        &mut self,
        dataset: &Dataset,
        positions: Positions<'_>,
        req: &CountRequest,
        counts: &mut ShardCounts,
        exec: &Executor,
    ) {
        self.fill(dataset, positions, req, true, counts, exec);
    }

    /// [`Counter::count`], filling the histograms only when `marginals`:
    /// an MI request whose reader takes the marginals from elsewhere gets
    /// its joint deltas alone, and the target's and the candidates'
    /// histograms back empty.
    pub(crate) fn fill(
        &mut self,
        dataset: &Dataset,
        positions: Positions<'_>,
        req: &CountRequest,
        marginals: bool,
        counts: &mut ShardCounts,
        exec: &Executor,
    ) {
        debug_assert!(marginals || req.target.is_some(), "an entropy count is all marginals");
        let Self { target, slots, shelf } = self;
        shelf.shape(req, |a| dataset.support(a), counts);
        if slots.len() < req.live.len() {
            slots.resize_with(req.live.len(), Slot::default);
        }
        let slots = &mut slots[..req.live.len()];
        for (slot, &attr) in slots.iter_mut().zip(&req.live) {
            slot.attr = attr;
        }

        let rows = positions;
        if let (Some(t), Some(hist)) = (req.target, counts.target.as_mut()) {
            let column = dataset.column(t);
            match marginals {
                true => count_target(column, rows, hist, target),
                false => gather_target(column, rows, target),
            }
        }
        let paired = req.target.map(|_| target.target());
        exec.for_each2(slots, &mut counts.attrs, |slot, out| {
            let (column, joint, scratch) =
                (dataset.column(slot.attr), &mut slot.joint, &mut slot.scratch);
            match paired {
                Some(paired) if !marginals => count_joint(column, rows, paired, joint, scratch),
                _ => count_candidate(column, rows, paired, out, joint, scratch),
            }
        });
        counts.joints.clear();
        counts.joints.extend(slots.iter_mut().map(|slot| std::mem::take(&mut slot.joint)));
    }

    /// Takes back `counts`, spent on `req`, so the next doubling counts
    /// into the same histograms and joint deltas instead of allocating
    /// and zeroing new ones.
    pub fn park(&mut self, req: &CountRequest, counts: &mut ShardCounts) {
        self.shelf.park(req, counts);
        for (slot, mut joint) in self.slots.iter_mut().zip(counts.joints.drain(..)) {
            joint.clear();
            slot.joint = joint;
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
        let n = dataset.num_rows();
        if n == 0 {
            return Err(SwopeError::EmptyDataset);
        }
        let plan = ShardPlan::new(n, shards);
        Ok(Self {
            dataset,
            sketch: None,
            exec,
            meta: dataset_meta(dataset),
            sampler: PagePrefix::new(PageMembers::range(dataset.layout(), 0..n), config.seed),
            shards: (0..plan.num_shards())
                .map(|_| Shard { list: Vec::new(), runs: Vec::new(), counter: Counter::new() })
                .collect(),
            last: CountRequest { target: None, live: Vec::new() },
            plan,
        })
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
        let Self { plan, sampler, shards, .. } = self;
        for shard in shards.iter_mut() {
            shard.list.clear();
            shard.runs.clear();
        }
        let delta = sampler.grow_to(m_target);
        plan.split_runs(delta.runs, |shard, run| shards[shard].runs.push(run));
        plan.split(delta.list, |shard, p| shards[shard].list.push(p));

        let mut out = vec![ShardCounts::empty(None, []); shards.len()];
        let dataset = self.dataset;
        // The shards are the fan-out: a pool dispatch must not nest in one.
        self.exec.for_each2(shards, &mut out, |shard, counts| {
            let positions = Positions { runs: &shard.runs, list: &shard.list };
            shard.counter.count(dataset, positions, req, counts, &Executor::sequential())
        });
        self.last.clone_from(req);
        Ok(out)
    }

    fn recycle(&mut self, spent: Vec<ShardCounts>) {
        for (shard, mut counts) in self.shards.iter_mut().zip(spent) {
            shard.counter.park(&self.last, &mut counts);
        }
    }

    /// The sketch's counts of the dataset: the population's marginals.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        Ok(sketch_marginals(self.dataset, self.sketch))
    }
}

/// Adds every shard's deltas — target histogram, per-attribute
/// histograms, joint runs — into the first shard's, exactly, and checks
/// they answer the `live` candidates the measure asked about: what it
/// then drains into its states in canonical order.
fn merge(shards: &mut [ShardCounts], live: usize) -> Result<&mut ShardCounts, SwopeError> {
    let (acc, rest) = shards
        .split_first_mut()
        .ok_or_else(|| SwopeError::Transport("no shard counts returned".into()))?;
    for sh in rest {
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
/// doubling for every shard's integer deltas, which are merged exactly,
/// drained into the driver's states and handed back.
pub(crate) struct ShardedSource<'t, T: ShardTransport>(pub(crate) &'t mut T);

impl<T: ShardTransport> CountSource for ShardedSource<'_, T> {
    fn plan(&self) -> Plan {
        Plan { n: self.0.num_rows(), ..Plan::default() }
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
        let m = m_target.min(round.plan.n);
        round.announce(m, m - round.m, states.len(), M::WORK);
        let mut req = CountRequest { target: None, live: Vec::new() };
        measure.request(states, &mut req);

        let span = round.it.phase_start();
        let mut shards = self.0.advance(m, &req)?;
        round.it.phase_end(Phase::Ingest, span);

        let span = round.it.phase_start();
        measure.apply(merge(&mut shards, states.len())?, states)?;
        self.0.recycle(shards);
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
