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
//! produce the *same* merged histogram. In-process shards add theirs
//! into the first shard's and drain that. Peers' replies are summed by
//! [`merge_replies`], the same addition as a k-way merge: it reads every
//! peer's `CountMerge` payload where it was received, list by list in
//! ascending key order, and sums equal keys. Either way each sum goes
//! straight to the master counters ([`CountSink`]) in the one canonical
//! order every delta is drained in (ascending code), and no merged
//! histogram is built for a peer's reply. Every bound, decision, and
//! returned byte is therefore identical for 1 shard, `S` shards, `S`
//! remote peers, or no sharding at all.
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
//! peer finds its own among them through its layout
//! (`PageLayout::from_table`), keeping only the slots that hold its rows. A peer samples nothing, and
//! its work is `O(m_i)`. A row range is the same sampler over the range's
//! members, on every path.
//!
//! Every shard counts its positions through a [`Counter`]: the one count
//! body, which also counts the unsharded loop's rows. It counts the
//! target and fans the live candidates out
//! through [`count_target`] / [`count_candidate`], on histograms
//! (`Shelf`) and joint deltas it takes back from doubling to doubling,
//! and on the counting thread's [`CountScratch`]. A source borrows its
//! counters from the thread that opens it ([`Counter::warm`]) and gives
//! them back when it closes, so the next query on that thread counts on
//! buffers already grown.
//!
//! ## Layers
//!
//! * [`ShardTransport`] — the engine's view of "somewhere that counts":
//!   [`LocalShardSource`] fans shards out on an [`Executor`];
//!   `swope-cluster`'s wire transport drives remote peers, each counting
//!   the positions it is sent through a [`Counter`], behind the same
//!   trait.
//! * `ShardedSource` — the driver's count source over any transport:
//!   one `count` per doubling, then one `merge` into the states.
//! * [`crate::run_sharded`] — all six query shapes over a transport.

use std::cell::Cell;
use std::ops::{Deref, DerefMut, Range};

use swope_columnar::{AttrIndex, Code, Dataset, DatasetSketch, Positions};
use swope_obs::{Phase, Plan, QueryObserver};
use swope_sampling::{PageMembers, PagePrefix};

use crate::count::{
    count_candidate, count_joint, count_target, gather_target, CountScratch, CountState,
    PairCountState, TargetBuf,
};
use crate::driver::{CountSource, Round};
use crate::exec::Executor;
use crate::measure::{Measure, States};
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
#[derive(Debug, Clone, Default, PartialEq)]
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
/// Implementations own the global sampler: `count(m, req)` grows the
/// union sample to `m` rows and has every shard count the newly sampled
/// rows; `merge(req, sink)` then hands the shards' summed integer counts
/// to `sink` in canonical order ([`CountSink`]). Any
/// implementation whose shards count correctly — local slices or remote
/// peers — hands over the same entries, so query results are
/// bitwise-identical.
pub trait ShardTransport {
    /// Rows in the union population `N`.
    fn num_rows(&self) -> usize;

    /// Attribute metadata (shared by all shards; shards of one logical
    /// dataset must agree on names and supports).
    fn attrs(&self) -> &[AttrMeta];

    /// Number of shards that count each doubling.
    fn num_shards(&self) -> usize;

    /// Grows the global sample to `m_target` rows and has every shard
    /// count the delta for `req`; the counts wait for
    /// [`ShardTransport::merge`].
    fn count(&mut self, m_target: usize, req: &CountRequest) -> Result<(), SwopeError>;

    /// Hands the shards' summed counts of the last
    /// [`ShardTransport::count`] — made for `req` — to `sink` in canonical
    /// order, and takes their buffers back for the next doubling.
    fn merge<S: CountSink>(&mut self, req: &CountRequest, sink: &mut S) -> Result<(), SwopeError>;

    /// [`ShardTransport::count`], then the counts as histograms: by
    /// default the shards' sum, merged into one [`ShardCounts`].
    fn advance(
        &mut self,
        m_target: usize,
        req: &CountRequest,
    ) -> Result<Vec<ShardCounts>, SwopeError> {
        let support = |a: AttrIndex| self.attrs()[a].support;
        let mut sum =
            ShardCounts::empty(req.target.map(support), req.live.iter().map(|&a| support(a)));
        self.count(m_target, req)?;
        self.merge(req, &mut sum)?;
        Ok(vec![sum])
    }

    /// Every attribute's exact code counts over the whole population,
    /// summed over the shards — `Some` only when the population is the
    /// whole union and *every* shard answers from a partition sketch
    /// ([`crate::sketch_marginals`]). Asked at most once, before the
    /// first [`ShardTransport::count`], by MI queries only.
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
    /// Each shard's positions of the current delta, its counter and its
    /// counts.
    shards: Vec<Shard>,
    /// What the last `count` counted: whose histograms `recycle` parks.
    last: CountRequest,
}

/// One in-process shard: its positions of the current delta — runs and
/// a list — its counter, and the counts it made of them.
struct Shard {
    list: Vec<u32>,
    runs: Vec<Range<u32>>,
    counter: WarmCounter,
    counts: ShardCounts,
}

/// Emptied histograms, by attribute, kept between doublings so the next
/// one fills the same memory instead of allocating and zeroing new ones.
#[derive(Debug, Default)]
struct Shelf {
    idle: Vec<Option<CountState>>,
}

impl Shelf {
    /// Gives `counts` a histogram for `req`'s target, iff it has one, and
    /// for each live attribute `a`, over `support(a)` codes: a parked one
    /// where it has that support, a new one elsewhere. Leaves the joint
    /// deltas to the caller.
    fn shape(
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
    fn park(&mut self, req: &CountRequest, counts: &mut ShardCounts) {
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
/// doubling to doubling. Every [`LocalShardSource`] shard borrows one
/// ([`Counter::warm`]), and so do a cluster peer's session and the
/// unsharded loop's source.
///
/// It takes *positions* — as a sample draws them, or as a cluster peer's
/// layout maps a window — so the kernels never see the layout: heap
/// and paged columns alike are indexed where the layout stores a row.
///
/// A counter whose calls all returned is as empty as a new one: its
/// parked histograms and joint deltas are cleared, and `Shelf::shape`
/// never hands out a parked histogram of another support. That is what
/// lets one outlive its query. It holds at most a histogram per
/// attribute it has counted (`8 B` a code of each support), a joint
/// delta per slot of its widest request and the MI target's codes of its
/// largest delta; the kernels' tables are the thread's
/// ([`CountScratch`]).
#[derive(Default)]
pub struct Counter {
    target: TargetBuf,
    /// One per live candidate of the widest request so far.
    slots: Vec<Slot>,
    /// Emptied histograms handed back by [`Counter::park`].
    shelf: Shelf,
    /// Whether the next call counts its candidates last to first.
    backward: bool,
}

/// What one candidate's count uses besides its histogram and the
/// thread's scratch: the attribute and an emptied joint delta to fill.
#[derive(Default)]
struct Slot {
    attr: AttrIndex,
    joint: PairCountState,
}

thread_local! {
    /// The counter the last [`WarmCounter`] dropped on this thread left.
    static SPARE: Cell<Option<Counter>> = const { Cell::new(None) };
}

/// A [`Counter`] borrowed from the calling thread: the thread's spare,
/// or a new one. Dropped, it becomes the thread's spare — unless
/// the drop unwinds, since a count that panicked may have left a joint
/// delta half filled. A thread keeps one spare; a later drop replaces it.
pub struct WarmCounter(Counter);

impl Deref for WarmCounter {
    type Target = Counter;

    fn deref(&self) -> &Counter {
        &self.0
    }
}

impl DerefMut for WarmCounter {
    fn deref_mut(&mut self) -> &mut Counter {
        &mut self.0
    }
}

impl Drop for WarmCounter {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let counter = std::mem::take(&mut self.0);
            // A thread being torn down has no spare to keep.
            let _ = SPARE.try_with(|spare| spare.set(Some(counter)));
        }
    }
}

impl Counter {
    /// A counter with no buffers yet: each grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's spare counter, or a new one when it has
    /// none: what a count source opens with, so a thread's queries count
    /// on the buffers its last one grew.
    pub fn warm() -> WarmCounter {
        WarmCounter(SPARE.take().unwrap_or_default())
    }

    /// Counts the rows at `positions` of `dataset` for `req` into
    /// `counts`, on parked histograms of the same supports and joint
    /// deltas where there are some: gathers the
    /// target's codes, which every candidate pairs against; then fans the
    /// live candidates out on `exec`, one slot each.
    ///
    /// Every other call starts the candidates last to first. A doubling
    /// reads the same columns' pages as the one before it, so under a
    /// page budget each count then begins on the pages the last one
    /// touched last — the ones a least-recently-touched cache still
    /// holds. Each candidate's counts are its own, so the order moves no
    /// answer.
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
        let Self { target, slots, shelf, backward } = self;
        let reversed = std::mem::replace(backward, !*backward);
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
        exec.for_each2(slots, &mut counts.attrs, reversed, |slot, out| {
            let (column, joint) = (dataset.column(slot.attr), &mut slot.joint);
            CountScratch::with_thread(|scratch| match paired {
                Some(paired) if !marginals => count_joint(column, rows, paired, joint, scratch),
                _ => count_candidate(column, rows, paired, out, joint, scratch),
            });
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
                .map(|_| Shard {
                    list: Vec::new(),
                    runs: Vec::new(),
                    counter: Counter::warm(),
                    counts: ShardCounts::default(),
                })
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

impl LocalShardSource<'_> {
    /// Takes back what the last [`ShardTransport::advance`] returned, once
    /// spent, so the next doubling counts into the same histograms
    /// instead of allocating and zeroing new ones.
    pub fn recycle(&mut self, spent: Vec<ShardCounts>) {
        for (shard, mut counts) in self.shards.iter_mut().zip(spent) {
            shard.counter.park(&self.last, &mut counts);
            shard.counts = counts;
        }
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

    fn count(&mut self, m_target: usize, req: &CountRequest) -> Result<(), SwopeError> {
        let Self { plan, sampler, shards, .. } = self;
        for shard in shards.iter_mut() {
            shard.list.clear();
            shard.runs.clear();
        }
        let delta = sampler.grow_to(m_target);
        plan.split_runs(delta.runs, |shard, run| shards[shard].runs.push(run));
        plan.split(delta.list, |shard, p| shards[shard].list.push(p));

        let dataset = self.dataset;
        // The shards are the fan-out: a pool dispatch must not nest in one.
        self.exec.for_each_mut(shards, |shard| {
            let positions = Positions { runs: &shard.runs, list: &shard.list };
            shard.counter.count(dataset, positions, req, &mut shard.counts, &Executor::sequential())
        });
        self.last.clone_from(req);
        Ok(())
    }

    /// Adds every shard's counts into the first's, exactly — dense
    /// histograms add cheaper than a k-way walk orders them — and drains
    /// that sum into `sink` in canonical order.
    fn merge<S: CountSink>(&mut self, req: &CountRequest, sink: &mut S) -> Result<(), SwopeError> {
        let (first, rest) = self.shards.split_first_mut().expect("a shard plan has a shard");
        let acc = &mut first.counts;
        for ShardCounts { target, attrs, joints } in rest.iter().map(|shard| &shard.counts) {
            if let (Some(a), Some(b)) = (acc.target.as_mut(), target) {
                a.merge(b);
            }
            for (a, b) in acc.attrs.iter_mut().zip(attrs) {
                a.merge(b);
            }
            for (a, b) in acc.joints.iter_mut().zip(joints) {
                a.merge(b);
            }
        }
        if let Some(target) = &mut acc.target {
            target.canonical_entries().for_each(|(code, k)| sink.target(code, k));
        }
        for (i, (attr, joint)) in acc.attrs.iter_mut().zip(&mut acc.joints).enumerate() {
            attr.canonical_entries().for_each(|(code, k)| sink.marginal(i, code, k));
            joint.canonical_runs().iter().for_each(|&(key, k)| sink.joint(i, key, k));
        }
        for shard in &mut self.shards {
            shard.counter.park(req, &mut shard.counts);
        }
        Ok(())
    }

    /// Each shard's own counts, not their sum: hand them back through
    /// [`LocalShardSource::recycle`].
    fn advance(
        &mut self,
        m_target: usize,
        req: &CountRequest,
    ) -> Result<Vec<ShardCounts>, SwopeError> {
        self.count(m_target, req)?;
        Ok(self.shards.iter_mut().map(|shard| std::mem::take(&mut shard.counts)).collect())
    }

    /// The sketch's counts of the dataset: the population's marginals.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        Ok(sketch_marginals(self.dataset, self.sketch))
    }
}

/// The sharded [`CountSource`]: any [`ShardTransport`], asked once per
/// doubling to count and then to merge its shards' integer deltas
/// exactly, straight into the driver's states.
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
        self.0.count(m, &req)?;
        round.it.phase_end(Phase::Ingest, span);

        let span = round.it.phase_start();
        self.0.merge(&req, &mut States { measure, states })?;
        round.it.phase_end(Phase::ShardMerge, span);
        Ok(())
    }
}

/// Histograms as the place a merge hands its summed counts, each entry
/// added where it belongs: what a receiver that wants the deltas
/// themselves merges into.
impl CountSink for ShardCounts {
    #[inline]
    fn target(&mut self, code: Code, k: u64) {
        if let Some(target) = &mut self.target {
            target.increment(code, k);
        }
    }

    #[inline]
    fn marginal(&mut self, i: usize, code: Code, k: u64) {
        self.attrs[i].increment(code, k);
    }

    #[inline]
    fn joint(&mut self, i: usize, key: u64, k: u64) {
        self.joints[i].increment(key, k);
    }
}

/// Where a merge hands one doubling's summed counts, entry by entry, in
/// canonical order: the target's codes ascending, then for each live
/// attribute `i` its codes ascending and its packed joint keys
/// (`target << 32 | candidate`) ascending. Each entry sums every shard's
/// count of its code, so a counter fed here sees the update sequence it
/// would see drained from the merged histograms.
pub trait CountSink {
    /// `k` occurrences of the target's `code`.
    fn target(&mut self, code: Code, k: u64);
    /// `k` occurrences of live attribute `i`'s `code`.
    fn marginal(&mut self, i: usize, code: Code, k: u64);
    /// `k` co-occurrences of live attribute `i`'s packed pair `key`.
    fn joint(&mut self, i: usize, key: u64, k: u64);
}

/// One step of a walk over a shard's reply to a [`CountRequest`], in the
/// reply's canonical order — which is also the `CountMerge` wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The reply starts; it holds a target histogram iff `target`.
    Begin {
        /// Whether the request has a target.
        target: bool,
    },
    /// The target's histogram, over `support` codes, opens.
    Target {
        /// The target's support.
        support: u32,
    },
    /// Past the target: the reply must answer `n` live attributes.
    Live(usize),
    /// Live attribute `i`'s histogram, over `support` codes, opens.
    Marginal {
        /// The attribute's place in [`CountRequest::live`].
        i: usize,
        /// Its support.
        support: u32,
    },
    /// Live attribute `i`'s joint runs open: packed keys whose target
    /// code is below `u_t` and candidate code below `u_a` (`u_t` is 0
    /// without a target, so no run is legal).
    Joint {
        /// The attribute's place in [`CountRequest::live`].
        i: usize,
        /// The target's support, or 0.
        u_t: u32,
        /// The attribute's support.
        u_a: u32,
    },
    /// The reply ends: nothing may follow.
    End,
}

/// One shard's reply, read as [`merge_replies`] walks it: each
/// [`Step`] opens a list or checks the reply's shape, and an open list is
/// read one `(key, count)` entry at a time. A reply that checks what it
/// reads — a peer's payload — answers its first broken rule as an error.
pub trait ShardReply {
    /// Why a reply cannot be read.
    type Error;

    /// Takes `step`; a list it opens has its first entry at
    /// [`ShardReply::head`].
    fn step(&mut self, step: Step) -> Result<(), Self::Error>;

    /// The open list's current entry, `None` past its last.
    fn head(&self) -> Option<(u64, u64)>;

    /// Moves past the current entry.
    fn next(&mut self) -> Result<(), Self::Error>;
}

/// The k-way merge: walks every reply through the layout of a request
/// with a target of support `target` (if any) and live attributes of
/// supports `live`, and hands `sink` every list's entries summed over the
/// replies, in ascending key order. An error names the index of the
/// reply that broke a rule; what `sink` took before it stays taken.
/// Nothing is allocated.
pub fn merge_replies<R: ShardReply, S: CountSink>(
    replies: &mut [R],
    target: Option<u32>,
    live: impl ExactSizeIterator<Item = u32>,
    sink: &mut S,
) -> Result<(), (usize, R::Error)> {
    fn each<R: ShardReply>(replies: &mut [R], step: Step) -> Result<(), (usize, R::Error)> {
        for (i, reply) in replies.iter_mut().enumerate() {
            reply.step(step).map_err(|e| (i, e))?;
        }
        Ok(())
    }
    each(replies, Step::Begin { target: target.is_some() })?;
    if let Some(support) = target {
        each(replies, Step::Target { support })?;
        sum(replies, |code, k| sink.target(code as Code, k))?;
    }
    each(replies, Step::Live(live.len()))?;
    let u_t = target.unwrap_or(0);
    for (i, u_a) in live.enumerate() {
        each(replies, Step::Marginal { i, support: u_a })?;
        sum(replies, |code, k| sink.marginal(i, code as Code, k))?;
        each(replies, Step::Joint { i, u_t, u_a })?;
        sum(replies, |key, k| sink.joint(i, key, k))?;
    }
    each(replies, Step::End)
}

/// Hands `emit` the open list of every reply, summed by key in ascending
/// key order. Counts add saturating: honest shards' counts of one
/// doubling sum to at most its rows, and a hostile one must not panic a
/// worker.
#[inline]
fn sum<R: ShardReply>(
    replies: &mut [R],
    mut emit: impl FnMut(u64, u64),
) -> Result<(), (usize, R::Error)> {
    // Two peers, the common cluster, as a plain two-way merge: a fifth
    // less time a merge than the loop below, and 2.5 % more `qps` on
    // `cluster_2peer` (EXPERIMENTS.md § "Merged straight into the
    // states").
    if let [a, b] = replies {
        loop {
            match (a.head(), b.head()) {
                (Some((ka, na)), Some((kb, nb))) => {
                    if ka <= kb {
                        emit(ka, if ka == kb { na.saturating_add(nb) } else { na });
                        a.next().map_err(|e| (0, e))?;
                    } else {
                        emit(kb, nb);
                    }
                    if kb <= ka {
                        b.next().map_err(|e| (1, e))?;
                    }
                }
                (Some((key, k)), None) => {
                    emit(key, k);
                    a.next().map_err(|e| (0, e))?;
                }
                (None, Some((key, k))) => {
                    emit(key, k);
                    b.next().map_err(|e| (1, e))?;
                }
                (None, None) => return Ok(()),
            }
        }
    }
    while let Some(key) = replies.iter().filter_map(|r| r.head()).map(|(key, _)| key).min() {
        let mut total = 0u64;
        for (i, reply) in replies.iter_mut().enumerate() {
            if let Some((at, k)) = reply.head() {
                if at == key {
                    total = total.saturating_add(k);
                    reply.next().map_err(|e| (i, e))?;
                }
            }
        }
        emit(key, total);
    }
    Ok(())
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
