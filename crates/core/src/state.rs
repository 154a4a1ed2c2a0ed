//! Per-attribute incremental query state: for every live candidate,
//! counters over the sampled records plus the current confidence
//! interval.
//!
//! A state never sees a row. Each iteration it takes the integer deltas
//! of the **newly sampled** rows, which the one count body
//! ([`crate::shard::Counter`], over the kernels of [`crate::count`])
//! filled locally or a transport's shards filled and merged, so the
//! counting work over a whole query is `O(candidates × final M)`, the
//! quantity the paper's complexity analysis bounds. It drains them into
//! its floating-point counters in canonical ascending-code order, so a
//! counter's running `f64` sum depends only on the *multiset* of rows a
//! delta covers, never on their order (see the module docs there).

use swope_columnar::{AttrIndex, Code};
use swope_estimate::bounds::{
    entropy_bounds, mi_bounds, mi_bounds_exact_marginals, EntropyBounds, MiBounds,
};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::freq::unpack_pair;
use swope_estimate::joint::JointEntropyCounter;

use crate::count::{CountState, PairCountState};

/// Incremental entropy-query state for one attribute.
#[derive(Debug, Clone)]
pub struct EntropyState {
    /// The attribute this state tracks.
    pub attr: AttrIndex,
    /// The attribute's support size `u_alpha`.
    pub support: u32,
    counter: EntropyCounter,
    /// Confidence interval from the most recent [`EntropyState::update_bounds`].
    pub bounds: EntropyBounds,
}

impl EntropyState {
    /// Creates state for attribute `attr` of support `support`.
    pub fn with_support(attr: AttrIndex, support: u32) -> Self {
        Self {
            attr,
            support,
            counter: EntropyCounter::new(support),
            bounds: EntropyBounds {
                sample_entropy: 0.0,
                lower: 0.0,
                upper: f64::INFINITY,
                lambda: f64::INFINITY,
                bias: f64::INFINITY,
            },
        }
    }

    /// Drains one iteration's delta histogram into the counter in
    /// canonical code order, leaving it empty.
    pub fn apply_delta(&mut self, delta: &mut CountState) {
        delta.apply_to(&mut self.counter);
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
            bounds: MiBounds {
                sample_mi: 0.0,
                lower: 0.0,
                upper: f64::INFINITY,
                lambda: f64::INFINITY,
                bias_total: f64::INFINITY,
            },
        }
    }

    /// Drains one iteration's marginal and joint deltas into the counters
    /// in canonical order — marginal first, then joint, each ascending by
    /// code — leaving both empty.
    pub fn apply_delta(&mut self, delta: &mut CountState, joint: &mut PairCountState) {
        delta.apply_to(&mut self.counter);
        joint.apply_to(&mut self.joint);
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
}

/// The target attribute's shared state in an MI query.
#[derive(Debug, Clone)]
pub struct TargetState {
    /// The target attribute index.
    pub attr: AttrIndex,
    /// The target's support size `u_t`.
    pub support: u32,
    counter: EntropyCounter,
}

impl TargetState {
    /// Creates state for target attribute `attr` of support `support`.
    pub fn with_support(attr: AttrIndex, support: u32) -> Self {
        Self { attr, support, counter: EntropyCounter::new(support) }
    }

    /// Drains one iteration's target delta histogram into the counter in
    /// canonical code order, leaving it empty.
    pub fn apply_delta(&mut self, delta: &mut CountState) {
        delta.apply_to(&mut self.counter);
    }

    /// The target's sample entropy `H_S(α_t)`.
    pub fn sample_entropy(&self) -> f64 {
        self.counter.entropy()
    }
}

/// Taking a merged delta entry by entry, in the canonical order the
/// shard merge hands it over (see `crate::shard::CountSink`).
impl EntropyState {
    /// Adds `k` occurrences of `code`.
    #[inline]
    pub fn add_count(&mut self, code: Code, k: u64) {
        self.counter.add_count(code, k);
    }
}

impl MiState {
    /// Adds `k` occurrences of the candidate's `code`.
    #[inline]
    pub fn add_count(&mut self, code: Code, k: u64) {
        self.counter.add_count(code, k);
    }

    /// Adds `k` co-occurrences of the packed pair `key`
    /// (`target << 32 | candidate`).
    #[inline]
    pub fn add_joint(&mut self, key: u64, k: u64) {
        let (t, a) = unpack_pair(key);
        self.joint.add_count(t, a, k);
    }
}

impl TargetState {
    /// Adds `k` occurrences of the target's `code`.
    #[inline]
    pub fn add_count(&mut self, code: Code, k: u64) {
        self.counter.add_count(code, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::{count_candidate, count_target, CountScratch, TargetBuf, INGEST_BLOCK_ROWS};
    use swope_columnar::{Code, Column, Dataset, Field, Schema, Width};
    use swope_estimate::entropy::column_entropy;
    use swope_estimate::joint::mutual_information;
    use swope_sampling::PrefixShuffle;

    /// Counts `rows` of `column` through the marginal kernel into `st`.
    fn ingest(st: &mut EntropyState, column: &Column, rows: &[u32], scratch: &mut CountScratch) {
        let mut delta = CountState::new(column.support());
        count_candidate(column, rows, None, &mut delta, &mut PairCountState::new(), scratch);
        st.apply_delta(&mut delta);
    }

    /// Counts `rows` of `target` and `column` through the kernels into
    /// `t` and `mi`.
    fn ingest_mi(
        t: &mut TargetState,
        target: &Column,
        mi: &mut MiState,
        column: &Column,
        rows: &[u32],
        scratch: &mut CountScratch,
    ) {
        let (mut t_delta, mut t_buf) = (CountState::new(target.support()), TargetBuf::new());
        count_target(target, rows, &mut t_delta, &mut t_buf);
        t.apply_delta(&mut t_delta);
        let (mut delta, mut pairs) = (CountState::new(column.support()), PairCountState::new());
        count_candidate(column, rows, Some(t_buf.target()), &mut delta, &mut pairs, scratch);
        mi.apply_delta(&mut delta, &mut pairs);
    }

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Field::new("a", 4), Field::new("b", 2)]);
        let a = Column::new((0..64).map(|i| i % 4).collect(), 4).unwrap();
        let b = Column::new((0..64).map(|i| (i / 2) % 2).collect(), 2).unwrap();
        Dataset::new(schema, vec![a, b]).unwrap()
    }

    #[test]
    fn entropy_state_full_ingest_matches_exact() {
        let ds = dataset();
        let mut st = EntropyState::with_support(0, 4);
        let rows: Vec<u32> = (0..64).collect();
        ingest(&mut st, ds.column(0), &rows, &mut CountScratch::new());
        assert!((st.sample_entropy() - column_entropy(ds.column(0))).abs() < 1e-12);
        st.update_bounds(64, 0.01);
        // Full sample: bounds collapse.
        assert!((st.bounds.lower - st.bounds.upper).abs() < 1e-12);
    }

    #[test]
    fn entropy_state_incremental_ingest() {
        let ds = dataset();
        let mut st = EntropyState::with_support(0, 4);
        let rows: Vec<u32> = (0..64).collect();
        let mut scratch = CountScratch::new();
        ingest(&mut st, ds.column(0), &rows[..32], &mut scratch);
        ingest(&mut st, ds.column(0), &rows[32..], &mut scratch);
        assert_eq!(st.counter.total(), 64);
        assert!((st.sample_entropy() - column_entropy(ds.column(0))).abs() < 1e-12);
    }

    #[test]
    fn entropy_state_initial_bounds_are_vacuous() {
        let st = EntropyState::with_support(1, 2);
        assert_eq!(st.bounds.lower, 0.0);
        assert!(st.bounds.upper.is_infinite());
    }

    #[test]
    fn mi_state_full_ingest_matches_exact() {
        let ds = dataset();
        let mut target = TargetState::with_support(0, ds.support(0));
        let mut cand = MiState::new(1, ds.support(0), ds.support(1));
        let rows: Vec<u32> = (0..64).collect();
        let scratch = &mut CountScratch::new();
        ingest_mi(&mut target, ds.column(0), &mut cand, ds.column(1), &rows, scratch);
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

        let mut st = EntropyState::with_support(0, 8);
        let mut scratch = CountScratch::new();
        ingest(&mut st, ds.column(0), &rows, &mut scratch);
        assert_eq!(st.counter.total(), n as u64);
        assert_eq!(st.sample_entropy().to_bits(), counter.entropy().to_bits());
        // The block buffer must stay block-sized (allow allocator
        // rounding) rather than growing with the 3-block delta.
        assert!(scratch.block_capacity() < 2 * INGEST_BLOCK_ROWS);

        let mut target = TargetState::with_support(1, 3);
        let mut mi = MiState::new(0, 3, 8);
        ingest_mi(&mut target, ds.column(1), &mut mi, ds.column(0), &rows, &mut scratch);
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

        let reference = {
            let mut st = EntropyState::with_support(0, 200);
            ingest(&mut st, &base, &rows, &mut CountScratch::new());
            st.sample_entropy().to_bits()
        };
        let mut scratch = CountScratch::new();
        for width in [Width::U8, Width::U16, Width::U32] {
            let mut st = EntropyState::with_support(0, 200);
            ingest(&mut st, &base.with_width(width).unwrap(), &rows, &mut scratch);
            assert_eq!(st.sample_entropy().to_bits(), reference, "width {width}");
        }
    }

    #[test]
    fn bounds_bracket_exact_value_during_sampling() {
        // With generous p, sampled bounds should bracket the exact entropy.
        let ds = dataset();
        let exact = column_entropy(ds.column(0));
        let mut sampler = PrefixShuffle::new(64, 3);
        let mut st = EntropyState::with_support(0, 4);
        let delta = sampler.grow_to(32).to_vec();
        ingest(&mut st, ds.column(0), &delta, &mut CountScratch::new());
        st.update_bounds(64, 0.001);
        assert!(st.bounds.lower <= exact + 1e-9);
        assert!(exact <= st.bounds.upper + 1e-9);
    }
}
