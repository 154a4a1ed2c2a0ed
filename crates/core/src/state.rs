//! Per-attribute incremental query state.
//!
//! The SWOPE algorithms (and the exact baselines built on the same bound
//! machinery) maintain, for every live candidate attribute, counters over
//! the sampled records plus the current confidence interval. This module
//! holds that state so `swope-core` and `swope-baselines` share one
//! implementation.
//!
//! The key performance property: [`EntropyState::ingest`] and
//! [`MiState::ingest`] accept only the **newly sampled** rows of an
//! iteration, so the total counting work over a whole query is
//! `O(candidates × final M)` — the quantity the paper's complexity
//! analysis bounds — rather than re-scanning the sample every iteration.
//!
//! Every ingest is **width-generic**: columns arrive width-packed
//! (`u8`/`u16`/`u32`, see [`swope_store::PackedColumn`]) and each public
//! ingest dispatches once per call via [`swope_store::for_packed!`] into
//! a monomorphized inner loop over the native code type — no per-row
//! branching, no widening until the counter update (a register
//! zero-extension). Gathered block buffers are [`CodeBuf`]s so scratch
//! stays at the column's width too: a `u8` column moves a quarter of the
//! bytes an unpacked gather would.
//!
//! Paged (out-of-core) columns run the same gather → count block loop
//! (`shard::count_paged`, shared with the shard engine):
//! [`swope_columnar::PagedColumn::gather`] stages a block at the
//! column's width, pinning one page at a time. The rows every ingest of
//! an iteration sees are already grouped by page (by
//! `scope::Population::grow`, which produces them), so each touched page
//! is pinned once per block; the order-independence described next is
//! what makes that reordering invisible in the answers.
//!
//! Every ingest is also **canonically applied**: an ingest call first
//! accumulates its rows into a pure-integer delta histogram
//! ([`crate::shard::CountState`]; joint occurrences into a
//! [`crate::shard::PairCountState`]) and then drains the histogram into
//! the floating-point counters in ascending-code order. The counters'
//! running `f64` sums therefore see an update sequence that depends only
//! on the *multiset* of rows an ingest call covers, never on their
//! order — which is what lets the shard-parallel loops ([`crate::shard`])
//! count the same delta on any number of shards, merge the integer
//! histograms, and land on bitwise-identical results.

use swope_columnar::{AttrIndex, Code, CodeBuf, CodeRepr, Column, ColumnStorage, Dataset};
use swope_estimate::bounds::{entropy_bounds, mi_bounds, EntropyBounds, MiBounds};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::joint::JointEntropyCounter;
use swope_sampling::{PageShuffle, PrefixShuffle, Sampler};
use swope_store::{for_packed, gather};

use crate::scope::CoveredDist;
use crate::shard::{count_paged, count_paged_pairs, CountState, PairCountState};
use crate::{sketch_stats, SamplingStrategy};

/// Row-block granularity of the gather-staged ingest path.
///
/// Staged ingest splits an iteration's ΔM rows into blocks of this many
/// rows, gathers one block of a column's codes into a reusable buffer,
/// then counts the block sequentially. The block bound keeps every
/// scratch buffer at most `4 · INGEST_BLOCK_ROWS` bytes (32 KiB — L1/L2
/// resident; narrower columns use proportionally less) no matter how
/// large ΔM grows under doubling, which is what makes the steady-state
/// loop allocation-free: buffers reach block size once and are never
/// regrown. Matches the batch engine's block size.
pub const INGEST_BLOCK_ROWS: usize = 8192;

/// Reusable per-query scratch buffers for gather-staged ingest.
///
/// One `GatherScratch` lives for the whole adaptive loop: `target` holds
/// the MI target column's gathered codes for the current iteration
/// (always widened to `u32` — it is shared by every candidate, so it is
/// gathered once), and `slots[i]` is candidate state `i`'s private block
/// buffer (private so the executor can fan candidates out without
/// sharing buffers). A slot is a [`CodeBuf`], so it holds codes at
/// whatever width the candidate's column is packed at. All buffers grow
/// to their high-water mark once and are then reused, so steady-state
/// iterations allocate nothing.
#[derive(Debug, Default)]
pub struct GatherScratch {
    target: Vec<Code>,
    slots: Vec<CodeBuf>,
}

impl GatherScratch {
    /// Scratch with `slots` per-candidate block buffers (more are added
    /// on demand by [`GatherScratch::slots`]).
    pub fn new(slots: usize) -> Self {
        Self { target: Vec::new(), slots: (0..slots).map(|_| CodeBuf::new()).collect() }
    }

    /// The first `n` per-candidate block buffers, growing the slot list
    /// if needed. Pair with states via `Executor::for_each2`.
    pub fn slots(&mut self, n: usize) -> &mut [CodeBuf] {
        if self.slots.len() < n {
            self.slots.resize_with(n, CodeBuf::new);
        }
        &mut self.slots[..n]
    }

    /// Splits the scratch into the target-code buffer and the first `n`
    /// candidate slots, so an MI iteration can fill the target buffer
    /// and then fan candidates out over it in one borrow.
    pub fn target_and_slots(&mut self, n: usize) -> (&mut Vec<Code>, &mut [CodeBuf]) {
        if self.slots.len() < n {
            self.slots.resize_with(n, CodeBuf::new);
        }
        (&mut self.target, &mut self.slots[..n])
    }
}

/// Constructs the sampler a query's `SamplingStrategy` asks for.
pub fn make_sampler(num_rows: usize, strategy: SamplingStrategy) -> Box<dyn Sampler> {
    match strategy {
        SamplingStrategy::Row { seed } => Box::new(PrefixShuffle::new(num_rows, seed)),
        SamplingStrategy::Page { page_rows, seed } => {
            Box::new(PageShuffle::new(num_rows, page_rows, seed))
        }
    }
}

/// Incremental entropy-query state for one attribute.
#[derive(Debug, Clone)]
pub struct EntropyState {
    /// The attribute this state tracks.
    pub attr: AttrIndex,
    /// The attribute's support size `u_alpha`.
    pub support: u32,
    counter: EntropyCounter,
    delta: CountState,
    /// Covered-region code distribution of a scoped hybrid sample
    /// (see [`crate::scope`]); `None` for unscoped queries.
    covered: Option<CoveredDist>,
    /// Confidence interval from the most recent [`EntropyState::update_bounds`].
    pub bounds: EntropyBounds,
}

impl EntropyState {
    /// Creates state for attribute `attr` of `dataset`.
    pub fn new(dataset: &Dataset, attr: AttrIndex) -> Self {
        Self::with_support(attr, dataset.support(attr))
    }

    /// Creates state from the attribute's support alone — the shard
    /// engine's constructor, which holds attribute metadata but no local
    /// [`Dataset`].
    pub fn with_support(attr: AttrIndex, support: u32) -> Self {
        Self {
            attr,
            support,
            counter: EntropyCounter::new(support),
            delta: CountState::new(support),
            covered: None,
            bounds: EntropyBounds {
                sample_entropy: 0.0,
                lower: 0.0,
                upper: f64::INFINITY,
                lambda: f64::INFINITY,
                bias: f64::INFINITY,
            },
        }
    }

    /// Drains an externally accumulated delta histogram (one iteration's
    /// merged shard counts) into the counter in canonical code order —
    /// the exact apply the ingest paths use on their own deltas.
    pub fn apply_delta(&mut self, delta: &mut CountState) {
        delta.apply_to(&mut self.counter);
    }

    /// Attaches the covered-region code distribution of a scoped hybrid
    /// sample; [`EntropyState::ingest_covered`] draws from it.
    pub(crate) fn set_covered(&mut self, dist: CoveredDist) {
        self.covered = Some(dist);
    }

    /// Draws `k` covered-region records from the attached distribution
    /// into the delta histogram (no-op without one, or when `k == 0`).
    /// Nothing reaches the counter yet: the same iteration's
    /// [`EntropyState::ingest`] / [`EntropyState::ingest_staged`] of the
    /// physical fringe delta (every loop calls it, on an empty delta
    /// too) drains covered and fringe counts in one canonical apply.
    #[inline]
    pub(crate) fn ingest_covered(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        if let Some(dist) = &mut self.covered {
            dist.draw_into(&mut self.delta, k);
            sketch_stats::record_covered_draws(k);
        }
    }

    /// Ingests newly sampled rows (O(Δrows)), applied canonically: the
    /// counter update depends only on the row multiset, not its order.
    /// Paged columns have no slab to index, so they take the staged
    /// path through a throwaway buffer — same multiset, same counter.
    #[inline]
    pub fn ingest(&mut self, column: &Column, new_rows: &[u32]) {
        match column.storage() {
            ColumnStorage::Heap(packed) => {
                for_packed!(packed.codes(), |codes| self.ingest_repr(codes, new_rows))
            }
            ColumnStorage::Paged(paged) => {
                count_paged(paged, new_rows, &mut self.delta, &mut CodeBuf::new())
            }
        }
        self.delta.apply_to(&mut self.counter);
    }

    #[inline]
    fn ingest_repr<R: CodeRepr>(&mut self, codes: &[R], new_rows: &[u32]) {
        for &r in new_rows {
            self.delta.add(codes[r as usize].widen());
        }
    }

    /// Gather-staged form of [`EntropyState::ingest`]: materializes the
    /// column's codes block-by-block into `buf` at the column's native
    /// width, then counts each block as a sequential pass. Bitwise
    /// identical to `ingest` (same codes in the same order); O(Δrows)
    /// with zero steady-state allocation once `buf` has reached
    /// [`INGEST_BLOCK_ROWS`].
    #[inline]
    pub fn ingest_staged(&mut self, column: &Column, new_rows: &[u32], buf: &mut CodeBuf) {
        match column.storage() {
            ColumnStorage::Heap(packed) => {
                for_packed!(packed.codes(), |codes| self.ingest_staged_repr(codes, new_rows, buf))
            }
            ColumnStorage::Paged(paged) => count_paged(paged, new_rows, &mut self.delta, buf),
        }
        self.delta.apply_to(&mut self.counter);
    }

    #[inline]
    fn ingest_staged_repr<R: CodeRepr>(
        &mut self,
        codes: &[R],
        new_rows: &[u32],
        buf: &mut CodeBuf,
    ) {
        let buf = R::buf(buf);
        for block in new_rows.chunks(INGEST_BLOCK_ROWS) {
            gather(codes, block, buf);
            for &c in buf.iter() {
                self.delta.add(c.widen());
            }
        }
    }

    /// Recomputes the Lemma 3 interval for the current sample.
    ///
    /// * `n` — population size, `p` — per-application failure budget
    ///   (`p'_f`). The sample size `m` is taken from the counter.
    pub fn update_bounds(&mut self, n: u64, p: f64) {
        let m = self.counter.total();
        self.bounds = entropy_bounds(self.counter.entropy(), m, n, self.support as u64, p);
    }

    /// The sample entropy `H_S(α)` over everything ingested so far.
    pub fn sample_entropy(&self) -> f64 {
        self.counter.entropy()
    }

    /// Records ingested so far.
    pub fn sampled(&self) -> u64 {
        self.counter.total()
    }
}

/// Incremental MI-query state for one candidate attribute (the target
/// attribute's marginal is shared across candidates and lives in
/// [`TargetState`]).
#[derive(Debug, Clone)]
pub struct MiState {
    /// The candidate attribute this state tracks.
    pub attr: AttrIndex,
    /// The candidate's support size `u_alpha`.
    pub support: u32,
    counter: EntropyCounter,
    joint: JointEntropyCounter,
    delta: CountState,
    jdelta: PairCountState,
    /// Confidence interval from the most recent [`MiState::update_bounds`].
    pub bounds: MiBounds,
}

impl MiState {
    /// Creates state for candidate `attr` with support `u_a` against a
    /// target of support `u_t`.
    pub fn new(attr: AttrIndex, u_t: u32, u_a: u32) -> Self {
        Self {
            attr,
            support: u_a,
            counter: EntropyCounter::new(u_a),
            joint: JointEntropyCounter::new(u_t, u_a),
            delta: CountState::new(u_a),
            jdelta: PairCountState::new(),
            bounds: MiBounds {
                sample_mi: 0.0,
                lower: 0.0,
                upper: f64::INFINITY,
                lambda: f64::INFINITY,
                bias_total: f64::INFINITY,
            },
        }
    }

    /// Drains externally accumulated marginal and joint delta histograms
    /// (one iteration's merged shard counts) into the counters in the
    /// canonical order the ingest paths use: marginal first, then joint,
    /// each ascending by code.
    pub fn apply_delta(&mut self, delta: &mut CountState, joint: &mut PairCountState) {
        delta.apply_to(&mut self.counter);
        joint.apply_to(&mut self.joint);
    }

    /// Ingests newly sampled rows. `target_codes[i]` must be the target
    /// attribute's code at `new_rows[i]` (pre-gathered once per iteration
    /// so `h−1` candidates don't each re-read the target column; the
    /// shared buffer is widened to `u32`, only the candidate's own codes
    /// stay at their packed width).
    #[inline]
    pub fn ingest(&mut self, column: &Column, target_codes: &[Code], new_rows: &[u32]) {
        match column.storage() {
            ColumnStorage::Heap(packed) => {
                for_packed!(packed.codes(), |codes| {
                    self.ingest_repr(codes, target_codes, new_rows)
                })
            }
            ColumnStorage::Paged(paged) => count_paged_pairs(
                paged,
                new_rows,
                target_codes,
                &mut self.delta,
                &mut self.jdelta,
                &mut CodeBuf::new(),
            ),
        }
        self.delta.apply_to(&mut self.counter);
        self.jdelta.apply_to(&mut self.joint);
    }

    #[inline]
    fn ingest_repr<R: CodeRepr>(&mut self, codes: &[R], target_codes: &[Code], new_rows: &[u32]) {
        debug_assert_eq!(target_codes.len(), new_rows.len());
        for (&r, &tc) in new_rows.iter().zip(target_codes) {
            let c = codes[r as usize].widen();
            self.delta.add(c);
            self.jdelta.add(tc, c);
        }
    }

    /// Gather-staged form of [`MiState::ingest`]: the candidate column's
    /// codes are gathered block-by-block into `buf` at their native
    /// width, then zipped with the matching block of pre-gathered
    /// `target_codes`. Bitwise identical to `ingest` (same
    /// `(counter, joint)` update sequence).
    #[inline]
    pub fn ingest_staged(
        &mut self,
        column: &Column,
        target_codes: &[Code],
        new_rows: &[u32],
        buf: &mut CodeBuf,
    ) {
        match column.storage() {
            ColumnStorage::Heap(packed) => {
                for_packed!(packed.codes(), |codes| {
                    self.ingest_staged_repr(codes, target_codes, new_rows, buf)
                })
            }
            ColumnStorage::Paged(paged) => count_paged_pairs(
                paged,
                new_rows,
                target_codes,
                &mut self.delta,
                &mut self.jdelta,
                buf,
            ),
        }
        self.delta.apply_to(&mut self.counter);
        self.jdelta.apply_to(&mut self.joint);
    }

    #[inline]
    fn ingest_staged_repr<R: CodeRepr>(
        &mut self,
        codes: &[R],
        target_codes: &[Code],
        new_rows: &[u32],
        buf: &mut CodeBuf,
    ) {
        debug_assert_eq!(target_codes.len(), new_rows.len());
        let buf = R::buf(buf);
        for (rows, tcs) in
            new_rows.chunks(INGEST_BLOCK_ROWS).zip(target_codes.chunks(INGEST_BLOCK_ROWS))
        {
            gather(codes, rows, buf);
            for (&c, &tc) in buf.iter().zip(tcs) {
                let c = c.widen();
                self.delta.add(c);
                self.jdelta.add(tc, c);
            }
        }
    }

    /// Recomputes the §4.1 interval for the current sample.
    ///
    /// * `h_t`, `u_t` — the target attribute's sample entropy and support,
    /// * `n`, `p` — population size and per-application failure budget.
    pub fn update_bounds(&mut self, h_t: f64, u_t: u32, n: u64, p: f64) {
        let m = self.counter.total();
        self.bounds = mi_bounds(
            h_t,
            self.counter.entropy(),
            self.joint.entropy(),
            u_t as u64,
            self.support as u64,
            m,
            n,
            p,
        );
    }

    /// The candidate's sample entropy `H_S(α)`.
    pub fn sample_entropy(&self) -> f64 {
        self.counter.entropy()
    }

    /// The pair's sample joint entropy `H_S(α_t, α)`.
    pub fn sample_joint_entropy(&self) -> f64 {
        self.joint.entropy()
    }

    /// Records ingested so far.
    pub fn sampled(&self) -> u64 {
        self.counter.total()
    }
}

/// The target attribute's shared state in an MI query.
#[derive(Debug, Clone)]
pub struct TargetState {
    /// The target attribute index.
    pub attr: AttrIndex,
    /// The target's support size `u_t`.
    pub support: u32,
    counter: EntropyCounter,
    delta: CountState,
}

impl TargetState {
    /// Creates state for target attribute `attr` of `dataset`.
    pub fn new(dataset: &Dataset, attr: AttrIndex) -> Self {
        Self::with_support(attr, dataset.support(attr))
    }

    /// Creates state from the target's support alone (shard engine).
    pub fn with_support(attr: AttrIndex, support: u32) -> Self {
        Self {
            attr,
            support,
            counter: EntropyCounter::new(support),
            delta: CountState::new(support),
        }
    }

    /// Drains an externally accumulated target delta histogram into the
    /// counter in canonical code order.
    pub fn apply_delta(&mut self, delta: &mut CountState) {
        delta.apply_to(&mut self.counter);
    }

    /// Ingests newly sampled rows, returning their target codes for reuse
    /// by every candidate's [`MiState::ingest`].
    pub fn ingest(&mut self, column: &Column, new_rows: &[u32]) -> Vec<Code> {
        let mut gathered = Vec::new();
        self.ingest_into(column, new_rows, &mut gathered);
        gathered
    }

    /// Allocation-reusing form of [`TargetState::ingest`]: gathers the
    /// target codes into `out` (cleared first) instead of a fresh `Vec`,
    /// so the doubling loop reuses one buffer across iterations. The
    /// whole delta is gathered (not blocked) because every candidate's
    /// [`MiState::ingest_staged`] needs the full iteration's codes, and
    /// it is widened to `u32` because candidates of any width share it.
    pub fn ingest_into(&mut self, column: &Column, new_rows: &[u32], out: &mut Vec<Code>) {
        match column.storage() {
            ColumnStorage::Heap(packed) => {
                for_packed!(packed.codes(), |codes| self.ingest_into_repr(codes, new_rows, out))
            }
            ColumnStorage::Paged(paged) => {
                paged.gather_widen(new_rows, out).unwrap_or_else(|e| panic!("{e}"));
                for &c in out.iter() {
                    self.delta.add(c);
                }
            }
        }
        self.delta.apply_to(&mut self.counter);
    }

    fn ingest_into_repr<R: CodeRepr>(
        &mut self,
        codes: &[R],
        new_rows: &[u32],
        out: &mut Vec<Code>,
    ) {
        out.clear();
        out.reserve(new_rows.len());
        for &r in new_rows {
            let c = codes[r as usize].widen();
            self.delta.add(c);
            out.push(c);
        }
    }

    /// The target's sample entropy `H_S(α_t)`.
    pub fn sample_entropy(&self) -> f64 {
        self.counter.entropy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Field, Schema, Width};
    use swope_estimate::entropy::column_entropy;
    use swope_estimate::joint::mutual_information;

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Field::new("a", 4), Field::new("b", 2)]);
        let a = Column::new((0..64).map(|i| i % 4).collect(), 4).unwrap();
        let b = Column::new((0..64).map(|i| (i / 2) % 2).collect(), 2).unwrap();
        Dataset::new(schema, vec![a, b]).unwrap()
    }

    #[test]
    fn entropy_state_full_ingest_matches_exact() {
        let ds = dataset();
        let mut st = EntropyState::new(&ds, 0);
        let rows: Vec<u32> = (0..64).collect();
        st.ingest(ds.column(0), &rows);
        assert!((st.sample_entropy() - column_entropy(ds.column(0))).abs() < 1e-12);
        st.update_bounds(64, 0.01);
        // Full sample: bounds collapse.
        assert!((st.bounds.lower - st.bounds.upper).abs() < 1e-12);
    }

    #[test]
    fn entropy_state_incremental_ingest() {
        let ds = dataset();
        let mut st = EntropyState::new(&ds, 0);
        let rows: Vec<u32> = (0..64).collect();
        st.ingest(ds.column(0), &rows[..32]);
        st.ingest(ds.column(0), &rows[32..]);
        assert_eq!(st.sampled(), 64);
        assert!((st.sample_entropy() - column_entropy(ds.column(0))).abs() < 1e-12);
    }

    #[test]
    fn entropy_state_initial_bounds_are_vacuous() {
        let ds = dataset();
        let st = EntropyState::new(&ds, 1);
        assert_eq!(st.bounds.lower, 0.0);
        assert!(st.bounds.upper.is_infinite());
    }

    #[test]
    fn mi_state_full_ingest_matches_exact() {
        let ds = dataset();
        let mut target = TargetState::new(&ds, 0);
        let mut cand = MiState::new(1, ds.support(0), ds.support(1));
        let rows: Vec<u32> = (0..64).collect();
        let t_codes = target.ingest(ds.column(0), &rows);
        cand.ingest(ds.column(1), &t_codes, &rows);
        cand.update_bounds(target.sample_entropy(), target.support, 64, 0.01);
        let exact = mutual_information(ds.column(0), ds.column(1));
        assert!((cand.bounds.lower - exact).abs() < 1e-9);
        assert!((cand.bounds.upper - exact).abs() < 1e-9);
    }

    #[test]
    fn staged_ingest_is_bitwise_identical_to_direct() {
        // Use a delta larger than one block so the blocked path is
        // exercised, with a deterministic shuffled row order.
        let n = 3 * INGEST_BLOCK_ROWS + 137;
        let schema = Schema::new(vec![Field::new("a", 8), Field::new("b", 3)]);
        let a = Column::new((0..n as u32).map(|i| (i * 7 + i / 5) % 8).collect(), 8).unwrap();
        let b = Column::new((0..n as u32).map(|i| (i / 3) % 3).collect(), 3).unwrap();
        let ds = Dataset::new(schema, vec![a, b]).unwrap();
        let mut sampler = PrefixShuffle::new(n, 42);
        let rows: Vec<u32> = sampler.grow_to(n).to_vec();

        let mut direct = EntropyState::new(&ds, 0);
        direct.ingest(ds.column(0), &rows);
        let mut staged = EntropyState::new(&ds, 0);
        let mut buf = CodeBuf::new();
        staged.ingest_staged(ds.column(0), &rows, &mut buf);
        assert_eq!(direct.sampled(), staged.sampled());
        assert_eq!(direct.sample_entropy().to_bits(), staged.sample_entropy().to_bits());
        // The buffer must stay block-sized (allow allocator rounding)
        // rather than growing with the 3-block delta.
        assert!(buf.capacity() < 2 * INGEST_BLOCK_ROWS, "block buffer must stay block-sized");

        let mut target = TargetState::new(&ds, 1);
        let mut t_codes = Vec::new();
        target.ingest_into(ds.column(1), &rows, &mut t_codes);
        let mut direct_mi = MiState::new(0, ds.support(1), ds.support(0));
        direct_mi.ingest(ds.column(0), &t_codes, &rows);
        let mut staged_mi = MiState::new(0, ds.support(1), ds.support(0));
        staged_mi.ingest_staged(ds.column(0), &t_codes, &rows, &mut buf);
        assert_eq!(direct_mi.sample_entropy().to_bits(), staged_mi.sample_entropy().to_bits());
        assert_eq!(
            direct_mi.sample_joint_entropy().to_bits(),
            staged_mi.sample_joint_entropy().to_bits()
        );
    }

    #[test]
    fn staged_ingest_matches_direct_across_widths() {
        // The same logical column forced to each storage width must
        // produce identical counters via both ingest paths, and the
        // scratch buffer must land on the column's native width.
        let n = INGEST_BLOCK_ROWS + 321;
        let codes: Vec<Code> = (0..n as u32).map(|i| (i * 31 + i / 7) % 200).collect();
        let base = Column::new(codes, 200).unwrap();
        let mut sampler = PrefixShuffle::new(n, 7);
        let rows: Vec<u32> = sampler.grow_to(n / 2).to_vec();

        let schema = Schema::new(vec![Field::new("a", 200)]);
        let reference = {
            let ds = Dataset::new(schema.clone(), vec![base.clone()]).unwrap();
            let mut st = EntropyState::new(&ds, 0);
            st.ingest(ds.column(0), &rows);
            st.sample_entropy().to_bits()
        };
        for width in [Width::U8, Width::U16, Width::U32] {
            let col = base.with_width(width).unwrap();
            let ds = Dataset::new(schema.clone(), vec![col]).unwrap();
            let mut st = EntropyState::new(&ds, 0);
            let mut buf = CodeBuf::new();
            st.ingest_staged(ds.column(0), &rows, &mut buf);
            assert_eq!(st.sample_entropy().to_bits(), reference, "width {width}");
        }
    }

    #[test]
    fn gather_scratch_grows_slots_on_demand() {
        let mut scratch = GatherScratch::new(2);
        assert_eq!(scratch.slots(5).len(), 5);
        let (target, slots) = scratch.target_and_slots(3);
        target.push(1);
        assert_eq!(slots.len(), 3);
        // Existing slots are preserved (buffers are reused, not rebuilt).
        <u32 as CodeRepr>::buf(&mut scratch.slots(5)[4]).push(9);
        assert_eq!(<u32 as CodeRepr>::buf(&mut scratch.slots(5)[4]), &vec![9]);
    }

    #[test]
    fn target_state_returns_gathered_codes() {
        let ds = dataset();
        let mut target = TargetState::new(&ds, 0);
        let codes = target.ingest(ds.column(0), &[0, 5, 10]);
        assert_eq!(codes, vec![0, 1, 2]);
    }

    #[test]
    fn make_sampler_respects_strategy() {
        let mut row = make_sampler(100, SamplingStrategy::Row { seed: 1 });
        assert_eq!(row.grow_to(10).len(), 10);
        let mut page = make_sampler(100, SamplingStrategy::Page { page_rows: 8, seed: 1 });
        // Page sampler rounds up to whole pages.
        assert_eq!(page.grow_to(10).len(), 16);
    }

    #[test]
    fn bounds_bracket_exact_value_during_sampling() {
        // With generous p, sampled bounds should bracket the exact entropy.
        let ds = dataset();
        let exact = column_entropy(ds.column(0));
        let mut sampler = make_sampler(64, SamplingStrategy::Row { seed: 3 });
        let mut st = EntropyState::new(&ds, 0);
        let delta = sampler.grow_to(32).to_vec();
        st.ingest(ds.column(0), &delta);
        st.update_bounds(64, 0.001);
        assert!(st.bounds.lower <= exact + 1e-9);
        assert!(exact <= st.bounds.upper + 1e-9);
    }
}
