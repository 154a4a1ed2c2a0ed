//! Per-attribute incremental query state.
//!
//! The adaptive loop maintains, for every live candidate attribute,
//! counters over the sampled records plus the current confidence
//! interval. This module holds that state.
//!
//! The key performance property: [`EntropyState::ingest_staged`] and
//! [`MiState::ingest_staged`] accept only the **newly sampled** rows of an
//! iteration, so the total counting work over a whole query is
//! `O(candidates × final M)` — the quantity the paper's complexity
//! analysis bounds — rather than re-scanning the sample every iteration.
//!
//! Every ingest fills its integer deltas through [`crate::count`] — the
//! one gather → count block loop, marginal kernel and joint kernel that
//! heap and paged columns, shards and peers all share — and then drains
//! them into the floating-point counters in canonical ascending-code
//! order, so a counter's running `f64` sum depends only on the
//! *multiset* of rows an ingest call covers, never on their order (see
//! the module docs there).

use swope_columnar::{AttrIndex, Code, Column, Dataset};
use swope_estimate::bounds::{
    entropy_bounds, mi_bounds, mi_bounds_exact_marginals, EntropyBounds, MiBounds,
};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::joint::JointEntropyCounter;

pub use crate::count::INGEST_BLOCK_ROWS;
use crate::count::{
    count_candidate, count_target, CountScratch, CountState, PairCountState, TargetBuf, TargetCodes,
};
use crate::scope::CoveredDist;
use crate::sketch_stats;

/// Reusable per-query scratch for gather-staged ingest.
///
/// One `GatherScratch` lives for the whole adaptive loop: `target` holds
/// the MI target column's gathered codes for the current iteration
/// (shared by every candidate, so gathered once), and `slots[i]` is
/// candidate state `i`'s private [`CountScratch`] (private so the
/// executor can fan candidates out without sharing buffers). All buffers
/// grow to their high-water mark once and are then reused, so
/// steady-state iterations allocate nothing.
#[derive(Debug, Default)]
pub struct GatherScratch {
    target: TargetBuf,
    slots: Vec<CountScratch>,
}

impl GatherScratch {
    /// Scratch with `slots` per-candidate slots (more are added on
    /// demand by [`GatherScratch::slots`]).
    pub fn new(slots: usize) -> Self {
        Self { target: TargetBuf::new(), slots: (0..slots).map(|_| CountScratch::new()).collect() }
    }

    /// The first `n` per-candidate slots, growing the slot list if
    /// needed. Pair with states via `Executor::for_each2`.
    pub fn slots(&mut self, n: usize) -> &mut [CountScratch] {
        self.target_and_slots(n).1
    }

    /// Splits the scratch into the target buffer and the first `n`
    /// candidate slots, so an MI iteration can fill the target buffer
    /// and then fan candidates out over it in one borrow.
    pub fn target_and_slots(&mut self, n: usize) -> (&mut TargetBuf, &mut [CountScratch]) {
        if self.slots.len() < n {
            self.slots.resize_with(n, CountScratch::new);
        }
        (&mut self.target, &mut self.slots[..n])
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
    /// [`EntropyState::ingest_staged`] of the physical fringe delta (the
    /// loop calls it on an empty delta too) drains covered and fringe
    /// counts in one canonical apply.
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
    /// The column's codes are staged block-by-block at their native width
    /// into the caller's `scratch` and counted by the marginal kernel,
    /// with zero steady-state allocation once `scratch` has reached its
    /// high-water mark.
    pub fn ingest_staged(&mut self, column: &Column, new_rows: &[u32], scratch: &mut CountScratch) {
        // No target, so no pairs: the joint delta is never touched.
        count_candidate(
            column,
            new_rows,
            None,
            &mut self.delta,
            &mut PairCountState::new(),
            scratch,
        );
        self.delta.apply_to(&mut self.counter);
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
    u_t: u32,
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
            u_t,
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
    /// stay at their packed width). The candidate's codes are staged
    /// block-by-block into the caller's `scratch`, counted by the
    /// marginal kernel and paired with the matching block of
    /// `target_codes` by the joint kernel.
    pub fn ingest_staged(
        &mut self,
        column: &Column,
        target_codes: &[Code],
        new_rows: &[u32],
        scratch: &mut CountScratch,
    ) {
        let target = Some(TargetCodes { codes: target_codes, support: self.u_t });
        count_candidate(column, new_rows, target, &mut self.delta, &mut self.jdelta, scratch);
        self.delta.apply_to(&mut self.counter);
        self.jdelta.apply_to(&mut self.joint);
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

    /// Recomputes the interval from exact marginals: `h_t = H_D(α_t)` and
    /// `h_a = H_D(α)`, so only the joint is sampled
    /// ([`mi_bounds_exact_marginals`]); `u_t`, `n`, `p` as in
    /// [`MiState::update_bounds`].
    pub fn update_bounds_exact(&mut self, h_t: f64, h_a: f64, u_t: u32, n: u64, p: f64) {
        let m = self.joint.total();
        self.bounds = mi_bounds_exact_marginals(
            h_t,
            h_a,
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

    /// Ingests newly sampled rows, gathering their target codes into
    /// `out` (replacing its contents) for every candidate's
    /// [`MiState::ingest_staged`] to read back through
    /// [`TargetBuf::codes`]; the doubling loop reuses one buffer across
    /// iterations.
    pub fn ingest_into(&mut self, column: &Column, new_rows: &[u32], out: &mut TargetBuf) {
        count_target(column, new_rows, &mut self.delta, out);
        self.delta.apply_to(&mut self.counter);
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
    use swope_sampling::PrefixShuffle;

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
        st.ingest_staged(ds.column(0), &rows, &mut CountScratch::new());
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
        let mut scratch = CountScratch::new();
        st.ingest_staged(ds.column(0), &rows[..32], &mut scratch);
        st.ingest_staged(ds.column(0), &rows[32..], &mut scratch);
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
        let mut t_buf = TargetBuf::new();
        target.ingest_into(ds.column(0), &rows, &mut t_buf);
        cand.ingest_staged(ds.column(1), t_buf.codes(), &rows, &mut CountScratch::new());
        cand.update_bounds(target.sample_entropy(), target.support, 64, 0.01);
        let exact = mutual_information(ds.column(0), ds.column(1));
        assert!((cand.bounds.lower - exact).abs() < 1e-9);
        assert!((cand.bounds.upper - exact).abs() < 1e-9);
    }

    #[test]
    fn ingest_is_bitwise_identical_to_per_row_counting() {
        // A delta larger than one block, in shuffled row order, through
        // the kernels (lanes and the dense pair table both apply here)
        // against deltas filled one `add` per row.
        let n = 3 * INGEST_BLOCK_ROWS + 137;
        let schema = Schema::new(vec![Field::new("a", 8), Field::new("b", 3)]);
        let a = Column::new((0..n as u32).map(|i| (i * 7 + i / 5) % 8).collect(), 8).unwrap();
        let b = Column::new((0..n as u32).map(|i| (i / 3) % 3).collect(), 3).unwrap();
        let ds = Dataset::new(schema, vec![a, b]).unwrap();
        let mut sampler = PrefixShuffle::new(n, 42);
        let rows: Vec<u32> = sampler.grow_to(n).to_vec();

        let (mut marginal, mut pairs) = (CountState::new(8), PairCountState::new());
        for &r in &rows {
            let (ca, cb) = (ds.column(0).code(r as usize), ds.column(1).code(r as usize));
            marginal.add(ca);
            pairs.add(cb, ca);
        }
        let mut counter = EntropyCounter::new(8);
        marginal.apply_to(&mut counter);
        let mut joint = JointEntropyCounter::new(3, 8);
        pairs.apply_to(&mut joint);

        let mut st = EntropyState::new(&ds, 0);
        let mut scratch = CountScratch::new();
        st.ingest_staged(ds.column(0), &rows, &mut scratch);
        assert_eq!(st.sampled(), n as u64);
        assert_eq!(st.sample_entropy().to_bits(), counter.entropy().to_bits());
        // The block buffer must stay block-sized (allow allocator
        // rounding) rather than growing with the 3-block delta.
        assert!(scratch.block_capacity() < 2 * INGEST_BLOCK_ROWS);

        let mut target = TargetState::new(&ds, 1);
        let mut t_buf = TargetBuf::new();
        target.ingest_into(ds.column(1), &rows, &mut t_buf);
        let mut mi = MiState::new(0, ds.support(1), ds.support(0));
        mi.ingest_staged(ds.column(0), t_buf.codes(), &rows, &mut scratch);
        assert_eq!(mi.sample_entropy().to_bits(), counter.entropy().to_bits());
        assert_eq!(mi.sample_joint_entropy().to_bits(), joint.entropy().to_bits());
    }

    #[test]
    fn ingest_is_width_invariant() {
        // The same logical column forced to each storage width must
        // produce identical counters, one scratch serving all three.
        let n = INGEST_BLOCK_ROWS + 321;
        let codes: Vec<Code> = (0..n as u32).map(|i| (i * 31 + i / 7) % 200).collect();
        let base = Column::new(codes, 200).unwrap();
        let mut sampler = PrefixShuffle::new(n, 7);
        let rows: Vec<u32> = sampler.grow_to(n / 2).to_vec();

        let schema = Schema::new(vec![Field::new("a", 200)]);
        let reference = {
            let ds = Dataset::new(schema.clone(), vec![base.clone()]).unwrap();
            let mut st = EntropyState::new(&ds, 0);
            st.ingest_staged(ds.column(0), &rows, &mut CountScratch::new());
            st.sample_entropy().to_bits()
        };
        let mut scratch = CountScratch::new();
        for width in [Width::U8, Width::U16, Width::U32] {
            let col = base.with_width(width).unwrap();
            let ds = Dataset::new(schema.clone(), vec![col]).unwrap();
            let mut st = EntropyState::new(&ds, 0);
            st.ingest_staged(ds.column(0), &rows, &mut scratch);
            assert_eq!(st.sample_entropy().to_bits(), reference, "width {width}");
        }
    }

    #[test]
    fn gather_scratch_grows_slots_on_demand() {
        let ds = dataset();
        let mut scratch = GatherScratch::new(2);
        assert_eq!(scratch.slots(5).len(), 5);
        let (target, slots) = scratch.target_and_slots(3);
        TargetState::new(&ds, 0).ingest_into(ds.column(0), &[1, 2], target);
        assert_eq!(slots.len(), 3);
        // Growing the slot list keeps what the scratch already holds.
        assert_eq!(scratch.target_and_slots(7).0.codes(), &[1, 2]);
    }

    #[test]
    fn target_state_returns_gathered_codes() {
        let ds = dataset();
        let mut target = TargetState::new(&ds, 0);
        let mut t_buf = TargetBuf::new();
        target.ingest_into(ds.column(0), &[0, 5, 10], &mut t_buf);
        assert_eq!(t_buf.codes(), &[0, 1, 2]);
    }

    #[test]
    fn bounds_bracket_exact_value_during_sampling() {
        // With generous p, sampled bounds should bracket the exact entropy.
        let ds = dataset();
        let exact = column_entropy(ds.column(0));
        let mut sampler = PrefixShuffle::new(64, 3);
        let mut st = EntropyState::new(&ds, 0);
        let delta = sampler.grow_to(32).to_vec();
        st.ingest_staged(ds.column(0), &delta, &mut CountScratch::new());
        st.update_bounds(64, 0.001);
        assert!(st.bounds.lower <= exact + 1e-9);
        assert!(exact <= st.bounds.upper + 1e-9);
    }
}
