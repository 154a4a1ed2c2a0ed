//! Shard-parallel scatter-gather execution with an exact count merge.
//!
//! The adaptive loops in this crate are sequential over one dataset. This
//! module splits the *counting* work of every doubling iteration across
//! row shards — in-process slices of one dataset here, remote peers in
//! `swope-cluster` — and merges the per-shard counts back into the single
//! bounds/decide machinery the loops already use.
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
//! ## Sampling
//!
//! All shards replay **one global** [`PrefixShuffle`] over the union
//! population (the same shuffle an unsharded run uses), and each shard
//! counts only the delta rows that fall in its own contiguous row range.
//! Row-level sampling only: page-granular sampling has no shard-stable
//! analogue, and requesting it yields [`SwopeError::ShardedPageSampling`].
//!
//! ## Layers
//!
//! * [`ShardTransport`] — the engine's view of "somewhere that counts":
//!   [`LocalShardSource`] fans shards out on an [`Executor`];
//!   `swope-cluster`'s wire transport drives remote peers through the
//!   same trait.
//! * `*_transport` — the six adaptive loops, generic over the transport.
//! * `*_sharded` / `*_sharded_exec` — entry points mirroring the
//!   unsharded API, answering from `shards` in-process row shards.

use swope_columnar::{AttrIndex, Column, Dataset, PageGrouper};
use swope_estimate::bounds::lambda;
use swope_obs::{NoopObserver, Phase, QueryKind, QueryObserver};
use swope_sampling::{DoublingSchedule, PrefixShuffle, Sampler};

use crate::count::{
    count_candidate, count_target, CountScratch, CountState, PairCountState, TargetBuf, TargetCodes,
};
use crate::exec::Executor;
use crate::observe::Instrumented;
use crate::profile::ProfileResult;
use crate::report::{AttrScore, FilterResult, TopKResult, WorkKind};
use crate::state::{EntropyState, MiState, TargetState};
use crate::topk::top_k_indices;
use crate::{SamplingStrategy, SwopeConfig, SwopeError};

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
    pub fn shard_of(&self, row: u32) -> usize {
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

/// A source of per-shard count deltas the adaptive loops can drive.
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
}

fn dataset_meta(dataset: &Dataset) -> Vec<AttrMeta> {
    dataset
        .schema()
        .fields()
        .iter()
        .map(|f| AttrMeta { name: f.name().to_owned(), support: f.support() })
        .collect()
}

fn meta_max_support(meta: &[AttrMeta]) -> u32 {
    meta.iter().map(|m| m.support).max().unwrap_or(0)
}

fn row_seed(config: &SwopeConfig) -> Result<u64, SwopeError> {
    match config.sampling {
        SamplingStrategy::Row { seed } => Ok(seed),
        SamplingStrategy::Page { .. } => Err(SwopeError::ShardedPageSampling),
    }
}

/// In-process [`ShardTransport`]: row shards of one resident [`Dataset`],
/// counted in parallel on an [`Executor`].
///
/// Holds the one global [`PrefixShuffle`]; every `advance` partitions the
/// sample delta by [`ShardPlan::shard_of`] into reusable per-shard row
/// lists and fans one count job per `(shard, live attribute)` out on the
/// executor.
pub struct LocalShardSource<'a> {
    dataset: &'a Dataset,
    exec: &'a Executor,
    plan: ShardPlan,
    meta: Vec<AttrMeta>,
    sampler: PrefixShuffle,
    grouper: PageGrouper,
    shard_rows: Vec<Vec<u32>>,
    shard_targets: Vec<TargetBuf>,
    // One per (shard, live attribute) count job, kept across iterations.
    scratch: Vec<CountScratch>,
}

impl<'a> LocalShardSource<'a> {
    /// A shard source over `dataset` split into `shards` contiguous row
    /// shards, sampling with `config`'s row seed.
    ///
    /// # Errors
    ///
    /// [`SwopeError::ShardedPageSampling`] if `config` asks for
    /// page-granular sampling.
    pub fn new(
        dataset: &'a Dataset,
        shards: usize,
        config: &SwopeConfig,
        exec: &'a Executor,
    ) -> Result<Self, SwopeError> {
        let seed = row_seed(config)?;
        let n = dataset.num_rows();
        let plan = ShardPlan::new(n, shards);
        let s = plan.num_shards();
        Ok(Self {
            dataset,
            exec,
            meta: dataset_meta(dataset),
            sampler: PrefixShuffle::new(n, seed),
            grouper: dataset.page_grouper(),
            shard_rows: vec![Vec::new(); s],
            shard_targets: (0..s).map(|_| TargetBuf::new()).collect(),
            scratch: Vec::new(),
            plan,
        })
    }

    /// The shard plan in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }
}

struct CountJob<'d> {
    column: &'d Column,
    rows: &'d [u32],
    target: Option<TargetCodes<'d>>,
    out: CountState,
    pairs: PairCountState,
    scratch: &'d mut CountScratch,
}

impl ShardTransport for LocalShardSource<'_> {
    fn num_rows(&self) -> usize {
        self.dataset.num_rows()
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
        for rows in &mut self.shard_rows {
            rows.clear();
        }
        // Grouped by page before the split (which keeps each shard's
        // list in delta order), so paged gathers pin each page once.
        let delta = self.grouper.group(self.sampler.grow_to(m_target));
        for &r in delta {
            self.shard_rows[self.plan.shard_of(r)].push(r);
        }

        let num_shards = self.plan.num_shards();
        // Gather target codes and count the target marginal per shard
        // first; every candidate job zips against its shard's codes.
        let mut targets: Vec<Option<CountState>> = (0..num_shards).map(|_| None).collect();
        if let Some(t) = req.target {
            let support = self.meta[t].support;
            let column = self.dataset.column(t);
            for (s_i, target) in targets.iter_mut().enumerate() {
                let mut counts = CountState::new(support);
                count_target(
                    column,
                    &self.shard_rows[s_i],
                    &mut counts,
                    &mut self.shard_targets[s_i],
                );
                *target = Some(counts);
            }
        }

        let live = req.live.len();
        if self.scratch.len() < num_shards * live {
            self.scratch.resize_with(num_shards * live, CountScratch::new);
        }
        let mut scratch = self.scratch.iter_mut();
        let mut jobs: Vec<CountJob<'_>> = Vec::with_capacity(num_shards * live);
        for s_i in 0..num_shards {
            for &attr in &req.live {
                jobs.push(CountJob {
                    column: self.dataset.column(attr),
                    rows: &self.shard_rows[s_i],
                    target: req.target.map(|_| self.shard_targets[s_i].target()),
                    out: CountState::new(self.meta[attr].support),
                    pairs: PairCountState::new(),
                    scratch: scratch.next().expect("one scratch per (shard, live attr)"),
                });
            }
        }
        self.exec.for_each_mut(&mut jobs, |job| {
            count_candidate(
                job.column,
                job.rows,
                job.target,
                &mut job.out,
                &mut job.pairs,
                job.scratch,
            )
        });

        let mut out = Vec::with_capacity(num_shards);
        let mut jobs = jobs.into_iter();
        for target in targets {
            let mut attrs = Vec::with_capacity(live);
            let mut joints = Vec::with_capacity(live);
            for _ in 0..live {
                let job = jobs.next().expect("one job per (shard, live attr)");
                attrs.push(job.out);
                joints.push(job.pairs);
            }
            out.push(ShardCounts { target, attrs, joints });
        }
        Ok(out)
    }
}

/// Folds all shards' deltas into the first shard's and applies them to
/// the entropy states in canonical order. Returns the merged shard count
/// for sanity checks.
fn merge_apply_entropy(
    shards: Vec<ShardCounts>,
    states: &mut [EntropyState],
) -> Result<(), SwopeError> {
    let mut iter = shards.into_iter();
    let mut acc =
        iter.next().ok_or_else(|| SwopeError::Transport("no shard counts returned".into()))?;
    for sh in iter {
        for (a, b) in acc.attrs.iter_mut().zip(&sh.attrs) {
            a.merge(b);
        }
    }
    if acc.attrs.len() != states.len() {
        return Err(SwopeError::Transport(format!(
            "shard returned {} attribute deltas, engine expected {}",
            acc.attrs.len(),
            states.len()
        )));
    }
    for (st, delta) in states.iter_mut().zip(acc.attrs.iter_mut()) {
        st.apply_delta(delta);
    }
    Ok(())
}

/// MI form of [`merge_apply_entropy`]: also merges the target marginal
/// and the per-candidate joint deltas.
fn merge_apply_mi(
    shards: Vec<ShardCounts>,
    target: &mut TargetState,
    states: &mut [MiState],
) -> Result<(), SwopeError> {
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
    if acc.attrs.len() != states.len() || acc.joints.len() != states.len() {
        return Err(SwopeError::Transport(format!(
            "shard returned {}/{} candidate deltas, engine expected {}",
            acc.attrs.len(),
            acc.joints.len(),
            states.len()
        )));
    }
    let mut tdelta = acc
        .target
        .ok_or_else(|| SwopeError::Transport("shard omitted the target histogram".into()))?;
    target.apply_delta(&mut tdelta);
    for (st, (delta, joint)) in
        states.iter_mut().zip(acc.attrs.iter_mut().zip(acc.joints.iter_mut()))
    {
        st.apply_delta(delta, joint);
    }
    Ok(())
}

fn entropy_score(meta: &[AttrMeta], st: &EntropyState, retired_iteration: usize) -> AttrScore {
    AttrScore {
        attr: st.attr,
        name: meta.get(st.attr).map(|m| m.name.clone()).unwrap_or_default(),
        estimate: st.bounds.point_estimate(),
        lower: st.bounds.lower,
        upper: st.bounds.upper,
        retired_iteration,
    }
}

fn mi_score(meta: &[AttrMeta], st: &MiState, retired_iteration: usize) -> AttrScore {
    AttrScore {
        attr: st.attr,
        name: meta.get(st.attr).map(|m| m.name.clone()).unwrap_or_default(),
        estimate: st.bounds.point_estimate(),
        lower: st.bounds.lower,
        upper: st.bounds.upper,
        retired_iteration,
    }
}

fn live_request(states: &[EntropyState]) -> CountRequest {
    CountRequest { target: None, live: states.iter().map(|st| st.attr).collect() }
}

fn live_request_mi(target: AttrIndex, states: &[MiState]) -> CountRequest {
    CountRequest { target: Some(target), live: states.iter().map(|st| st.attr).collect() }
}

/// Shard-parallel [`crate::entropy_top_k`], generic over the transport.
///
/// Bitwise identical to the unsharded call for any transport that
/// reports the same population (see the module docs for the argument).
pub fn entropy_top_k_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if k == 0 || k > h {
        return Err(SwopeError::InvalidK { k, candidates: h });
    }
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut states: Vec<EntropyState> = meta
        .iter()
        .enumerate()
        .map(|(attr, am)| EntropyState::with_support(attr, am.support))
        .collect();
    let mut it = Instrumented::start(observer, QueryKind::EntropyTopK, h, n, config);
    it.setup(0, None);

    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    loop {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request(&states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let lam = lambda(m as u64, n as u64, p_prime);
        let live = states.len();
        it.iteration(m, live, lam);
        it.record_work(delta_len, live, WorkKind::EntropyMarginals);

        let span = it.phase_start();
        merge_apply_entropy(shards, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        let by_upper = top_k_indices(&states, k, |st| st.bounds.upper);
        let kth_upper = states[by_upper[k - 1]].bounds.upper;
        let b_max = by_upper.iter().map(|&i| states[i].bounds.bias).fold(0.0f64, f64::max);

        let stop = kth_upper > 0.0 && (kth_upper - 2.0 * lam - b_max) / kth_upper >= 1.0 - epsilon;
        if stop || m >= n {
            it.phase_end(Phase::Decide, span);
            for st in &states {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            let retired_iteration = it.current_iteration();
            let top = by_upper
                .iter()
                .map(|&i| entropy_score(&meta, &states[i], retired_iteration))
                .collect();
            let converged_early = stop && m < n;
            return Ok(TopKResult { top, stats: it.finish(converged_early) });
        }

        let by_lower = top_k_indices(&states, k, |st| st.bounds.lower);
        let kth_lower = states[by_lower[k - 1]].bounds.lower;
        states.retain(|st| {
            let keep = st.bounds.upper >= kth_lower;
            if !keep {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            keep
        });
        it.phase_end(Phase::Decide, span);

        m_target = (m * 2).min(n);
    }
}

/// Shard-parallel [`crate::entropy_filter`], generic over the transport.
pub fn entropy_filter_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    if !eta.is_finite() || eta < 0.0 {
        return Err(SwopeError::InvalidThreshold(eta));
    }
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut states: Vec<EntropyState> = meta
        .iter()
        .enumerate()
        .map(|(attr, am)| EntropyState::with_support(attr, am.support))
        .collect();
    let mut accepted: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::EntropyFilter, h, n, config);
    it.setup(0, None);

    let mut converged_early = false;
    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    while !states.is_empty() {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request(&states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let live = states.len();
        it.iteration(m, live, lambda(m as u64, n as u64, p_prime));
        it.record_work(delta_len, live, WorkKind::EntropyMarginals);

        let span = it.phase_start();
        merge_apply_entropy(shards, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        states.retain(|st| {
            let b = &st.bounds;
            if b.width() < 2.0 * epsilon * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                if b.point_estimate() >= eta {
                    accepted.push(entropy_score(&meta, st, iter));
                }
                false
            } else if b.lower >= (1.0 - epsilon) * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                accepted.push(entropy_score(&meta, st, iter));
                false
            } else if b.upper >= (1.0 + epsilon) * eta {
                true
            } else {
                it.attr_retired(st.attr, b.lower, b.upper);
                false
            }
        });

        if states.is_empty() {
            converged_early = m < n;
            it.phase_end(Phase::Decide, span);
            break;
        }
        if m >= n {
            for st in states.drain(..) {
                let iter = it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
                if st.sample_entropy() >= eta {
                    accepted.push(entropy_score(&meta, &st, iter));
                }
            }
            it.phase_end(Phase::Decide, span);
            break;
        }
        it.phase_end(Phase::Decide, span);
        m_target = (m * 2).min(n);
    }

    accepted.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    Ok(FilterResult { accepted, stats: it.finish(converged_early) })
}

/// Shard-parallel [`crate::entropy_profile`], generic over the transport.
pub fn entropy_profile_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    if !floor.is_finite() || floor < 0.0 {
        return Err(SwopeError::InvalidThreshold(floor));
    }
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (schedule.i_max() as f64 * h as f64);

    let mut states: Vec<EntropyState> = meta
        .iter()
        .enumerate()
        .map(|(attr, am)| EntropyState::with_support(attr, am.support))
        .collect();
    let mut done: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::EntropyProfile, h, n, config);
    it.setup(0, None);

    let mut converged_early = false;
    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    while !states.is_empty() {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request(&states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let live = states.len();
        it.iteration(m, live, lambda(m as u64, n as u64, p_prime));
        it.record_work(delta_len, live, WorkKind::EntropyMarginals);

        let span = it.phase_start();
        merge_apply_entropy(shards, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        let exact_now = m >= n;
        states.retain(|st| {
            let b = &st.bounds;
            let budget = (epsilon * b.point_estimate()).max(floor);
            if b.width() <= budget || exact_now {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                done.push(entropy_score(&meta, st, iter));
                false
            } else {
                true
            }
        });
        it.phase_end(Phase::Decide, span);

        if states.is_empty() {
            converged_early = m < n;
            break;
        }
        m_target = (m * 2).min(n);
    }

    done.sort_by_key(|s| s.attr);
    Ok(ProfileResult { scores: done, stats: it.finish(converged_early) })
}

/// Shard-parallel [`crate::mi_top_k`], generic over the transport.
pub fn mi_top_k_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    target: AttrIndex,
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if target >= h {
        return Err(SwopeError::TargetOutOfRange { target, num_attrs: h });
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    let candidates = h - 1;
    if k == 0 || k > candidates {
        return Err(SwopeError::InvalidK { k, candidates });
    }
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut target_state = TargetState::with_support(target, meta[target].support);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, meta[a].support)).collect();
    let mut it = Instrumented::start(observer, QueryKind::MiTopK, h, n, config);
    it.setup(0, None);

    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    loop {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request_mi(target, &states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let lam = lambda(m as u64, n as u64, p_prime);
        let live = states.len();
        it.iteration(m, live, lam);
        it.record_work(delta_len, live, WorkKind::MiPerTarget);

        let span = it.phase_start();
        merge_apply_mi(shards, &mut target_state, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        let h_t = target_state.sample_entropy();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        let by_upper = top_k_indices(&states, k, |st| st.bounds.upper);
        let kth_upper = states[by_upper[k - 1]].bounds.upper;
        let b_max = by_upper.iter().map(|&i| states[i].bounds.bias_total).fold(0.0f64, f64::max);

        let stop = kth_upper > 0.0 && (kth_upper - 6.0 * lam - b_max) / kth_upper >= 1.0 - epsilon;
        if stop || m >= n {
            it.phase_end(Phase::Decide, span);
            for st in &states {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            let retired_iteration = it.current_iteration();
            let top =
                by_upper.iter().map(|&i| mi_score(&meta, &states[i], retired_iteration)).collect();
            let converged_early = stop && m < n;
            return Ok(TopKResult { top, stats: it.finish(converged_early) });
        }

        let by_lower = top_k_indices(&states, k, |st| st.bounds.lower);
        let kth_lower = states[by_lower[k - 1]].bounds.lower;
        states.retain(|st| {
            let keep = st.bounds.upper >= kth_lower;
            if !keep {
                it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
            }
            keep
        });
        it.phase_end(Phase::Decide, span);

        m_target = (m * 2).min(n);
    }
}

/// Shard-parallel [`crate::mi_filter`], generic over the transport.
pub fn mi_filter_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    if !eta.is_finite() || eta < 0.0 {
        return Err(SwopeError::InvalidThreshold(eta));
    }
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if target >= h {
        return Err(SwopeError::TargetOutOfRange { target, num_attrs: h });
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    let candidates = h - 1;
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut target_state = TargetState::with_support(target, meta[target].support);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, meta[a].support)).collect();
    let mut accepted: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::MiFilter, h, n, config);
    it.setup(0, None);

    let mut converged_early = false;
    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    while !states.is_empty() {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request_mi(target, &states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let live = states.len();
        it.iteration(m, live, lambda(m as u64, n as u64, p_prime));
        it.record_work(delta_len, live, WorkKind::MiPerTarget);

        let span = it.phase_start();
        merge_apply_mi(shards, &mut target_state, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        let h_t = target_state.sample_entropy();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        states.retain(|st| {
            let b = &st.bounds;
            if b.width() < 2.0 * epsilon * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                if b.point_estimate() >= eta {
                    accepted.push(mi_score(&meta, st, iter));
                }
                false
            } else if b.lower >= (1.0 - epsilon) * eta {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                accepted.push(mi_score(&meta, st, iter));
                false
            } else if b.upper >= (1.0 + epsilon) * eta {
                true
            } else {
                it.attr_retired(st.attr, b.lower, b.upper);
                false
            }
        });

        if states.is_empty() {
            converged_early = m < n;
            it.phase_end(Phase::Decide, span);
            break;
        }
        if m >= n {
            for st in states.drain(..) {
                let iter = it.attr_retired(st.attr, st.bounds.lower, st.bounds.upper);
                let exact_mi = (target_state.sample_entropy() + st.sample_entropy()
                    - st.sample_joint_entropy())
                .max(0.0);
                if exact_mi >= eta {
                    accepted.push(mi_score(&meta, &st, iter));
                }
            }
            it.phase_end(Phase::Decide, span);
            break;
        }
        it.phase_end(Phase::Decide, span);
        m_target = (m * 2).min(n);
    }

    accepted.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    Ok(FilterResult { accepted, stats: it.finish(converged_early) })
}

/// Shard-parallel [`crate::mi_profile`], generic over the transport.
pub fn mi_profile_transport<T: ShardTransport, O: QueryObserver>(
    transport: &mut T,
    target: AttrIndex,
    floor: f64,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    row_seed(config)?;
    if !floor.is_finite() || floor < 0.0 {
        return Err(SwopeError::InvalidThreshold(floor));
    }
    let meta: Vec<AttrMeta> = transport.attrs().to_vec();
    let h = meta.len();
    let n = transport.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if target >= h {
        return Err(SwopeError::TargetOutOfRange { target, num_attrs: h });
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    let candidates = h - 1;
    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f_rows(n);
    let m0 = config.resolve_m0_meta(n, h, meta_max_support(&meta), p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * candidates as f64);

    let mut target_state = TargetState::with_support(target, meta[target].support);
    let u_t = target_state.support;
    let mut states: Vec<MiState> =
        (0..h).filter(|&a| a != target).map(|a| MiState::new(a, u_t, meta[a].support)).collect();
    let mut done: Vec<AttrScore> = Vec::new();
    let mut it = Instrumented::start(observer, QueryKind::MiProfile, h, n, config);
    it.setup(0, None);

    let mut converged_early = false;
    let mut sampled = 0usize;
    let mut m_target = schedule.m0();
    while !states.is_empty() {
        it.begin_iteration();
        let m = m_target.min(n);
        let req = live_request_mi(target, &states);
        let span = it.phase_start();
        let shards = transport.advance(m, &req)?;
        it.phase_end(Phase::Ingest, span);
        let delta_len = m - sampled;
        sampled = m;
        let live = states.len();
        it.iteration(m, live, lambda(m as u64, n as u64, p_prime));
        it.record_work(delta_len, live, WorkKind::MiPerTarget);

        let span = it.phase_start();
        merge_apply_mi(shards, &mut target_state, &mut states)?;
        it.phase_end(Phase::ShardMerge, span);
        let span = it.phase_start();
        let h_t = target_state.sample_entropy();
        exec.for_each_mut(&mut states, |st| {
            st.update_bounds(h_t, u_t, n as u64, p_prime);
        });
        it.phase_end(Phase::UpdateBounds, span);

        let span = it.phase_start();
        let exact_now = m >= n;
        states.retain(|st| {
            let b = &st.bounds;
            let budget = (epsilon * b.point_estimate()).max(floor);
            if b.width() <= budget || exact_now {
                let iter = it.attr_retired(st.attr, b.lower, b.upper);
                done.push(mi_score(&meta, st, iter));
                false
            } else {
                true
            }
        });
        it.phase_end(Phase::Decide, span);

        if states.is_empty() {
            converged_early = m < n;
            break;
        }
        m_target = (m * 2).min(n);
    }

    done.sort_by_key(|s| s.attr);
    Ok(ProfileResult { scores: done, stats: it.finish(converged_early) })
}

/// [`crate::entropy_top_k`] over `shards` in-process row shards.
///
/// Bitwise identical to the unsharded call for every shard count.
pub fn entropy_top_k_sharded(
    dataset: &Dataset,
    k: usize,
    shards: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    entropy_top_k_sharded_exec(
        dataset,
        k,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`entropy_top_k_sharded`] with an observer and injected [`Executor`].
pub fn entropy_top_k_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    k: usize,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    entropy_top_k_transport(&mut source, k, config, observer, exec)
}

/// [`crate::entropy_filter`] over `shards` in-process row shards.
pub fn entropy_filter_sharded(
    dataset: &Dataset,
    eta: f64,
    shards: usize,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    entropy_filter_sharded_exec(
        dataset,
        eta,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`entropy_filter_sharded`] with an observer and injected [`Executor`].
pub fn entropy_filter_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    eta: f64,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    entropy_filter_transport(&mut source, eta, config, observer, exec)
}

/// [`crate::entropy_profile`] over `shards` in-process row shards.
pub fn entropy_profile_sharded(
    dataset: &Dataset,
    floor: f64,
    shards: usize,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    entropy_profile_sharded_exec(
        dataset,
        floor,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`entropy_profile_sharded`] with an observer and injected [`Executor`].
pub fn entropy_profile_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    floor: f64,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    entropy_profile_transport(&mut source, floor, config, observer, exec)
}

/// [`crate::mi_top_k`] over `shards` in-process row shards.
pub fn mi_top_k_sharded(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    shards: usize,
    config: &SwopeConfig,
) -> Result<TopKResult, SwopeError> {
    mi_top_k_sharded_exec(
        dataset,
        target,
        k,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`mi_top_k_sharded`] with an observer and injected [`Executor`].
#[allow(clippy::too_many_arguments)]
pub fn mi_top_k_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    k: usize,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<TopKResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    mi_top_k_transport(&mut source, target, k, config, observer, exec)
}

/// [`crate::mi_filter`] over `shards` in-process row shards.
pub fn mi_filter_sharded(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    shards: usize,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    mi_filter_sharded_exec(
        dataset,
        target,
        eta,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`mi_filter_sharded`] with an observer and injected [`Executor`].
#[allow(clippy::too_many_arguments)]
pub fn mi_filter_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<FilterResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    mi_filter_transport(&mut source, target, eta, config, observer, exec)
}

/// [`crate::mi_profile`] over `shards` in-process row shards.
pub fn mi_profile_sharded(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    shards: usize,
    config: &SwopeConfig,
) -> Result<ProfileResult, SwopeError> {
    mi_profile_sharded_exec(
        dataset,
        target,
        floor,
        shards,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`mi_profile_sharded`] with an observer and injected [`Executor`].
#[allow(clippy::too_many_arguments)]
pub fn mi_profile_sharded_exec<O: QueryObserver>(
    dataset: &Dataset,
    target: AttrIndex,
    floor: f64,
    shards: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<ProfileResult, SwopeError> {
    config.validate()?;
    let mut source = LocalShardSource::new(dataset, shards, config, exec)?;
    mi_profile_transport(&mut source, target, floor, config, observer, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};

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
            let sharded = entropy_top_k_sharded(&ds, 3, shards, &config).unwrap();
            assert_eq!(sharded.top, reference.top, "shards = {shards}");
            assert_eq!(sharded.stats.sample_size, reference.stats.sample_size);
            assert_eq!(sharded.stats.iterations, reference.stats.iterations);
            assert_eq!(sharded.stats.rows_scanned, reference.stats.rows_scanned);
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
            let sharded = mi_top_k_sharded(&ds, 0, 2, shards, &config).unwrap();
            assert_eq!(sharded.top, reference.top, "shards = {shards}");
        }
    }

    #[test]
    fn page_sampling_is_rejected() {
        let ds = cyclic_dataset(1000, &[2, 8]);
        let config = SwopeConfig {
            sampling: SamplingStrategy::Page { page_rows: 64, seed: 1 },
            ..SwopeConfig::default()
        };
        assert!(matches!(
            entropy_top_k_sharded(&ds, 1, 2, &config),
            Err(SwopeError::ShardedPageSampling)
        ));
    }

    #[test]
    fn sharded_validation_matches_unsharded() {
        let ds = cyclic_dataset(100, &[2, 4]);
        let config = SwopeConfig::default();
        assert!(matches!(
            entropy_top_k_sharded(&ds, 0, 2, &config),
            Err(SwopeError::InvalidK { .. })
        ));
        assert!(matches!(
            mi_top_k_sharded(&ds, 9, 1, 2, &config),
            Err(SwopeError::TargetOutOfRange { .. })
        ));
        assert!(matches!(
            entropy_filter_sharded(&ds, f64::NAN, 2, &config),
            Err(SwopeError::InvalidThreshold(_))
        ));
    }
}
