//! Integer count deltas and the two kernels that fill them.
//!
//! Every source of counts in this crate — the unsharded loop over any
//! scope, heap or paged, the in-process shards and the cluster peers
//! ([`crate::shard`]) — counts an iteration's newly sampled rows through
//! one body, `Counter::count`, into the same two pure-integer deltas: a
//! [`CountState`] histogram per attribute and, for MI, a
//! [`PairCountState`] of joint `(target, candidate)` occurrences. Both
//! are filled here, once, by [`count_target`] and [`count_candidate`]:
//!
//! 1. a block of at most [`INGEST_BLOCK_ROWS`] rows is staged at the
//!    column's packed width into a reusable [`CodeBuf`] — a heap column
//!    through [`swope_store::gather`], a paged one through
//!    [`swope_columnar::PagedColumn::gather`], which looks a page up once
//!    per run of adjacent rows it holds (deltas arrive grouped by page);
//! 2. the **marginal kernel** (`CountState::add_block`) counts the staged
//!    block. When the delta is at least twice the support and the support
//!    at most `LANE_MAX_SUPPORT`, into four `u32` lane tables selected by
//!    `i mod 4`, so a repeated code never waits on the store of its own
//!    previous increment; otherwise by the scalar [`CountState::add`];
//! 3. for MI the **joint kernel** (`PairCountState::add_block`) counts the
//!    block's pairs. When the `u_t × u_a` key space has at most
//!    `DENSE_MAX_CELLS` cells and the delta at least that many rows, into
//!    a two-lane dense table indexed `t·u_a + a`; otherwise as one
//!    `(key, 1)` run per row, sorted at canonicalisation;
//! 4. after the last block the tables are folded into the deltas by one
//!    ascending scan each. For the histogram that leaves the touched-code
//!    list sorted, which [`CountState::apply_to`] only has to verify; for
//!    the pairs `t·u_a + a` *is* ascending packed-key order, so the run
//!    list is born canonical — no push per row and no sort.
//!
//! The lane and dense tables are scratch ([`CountScratch`],
//! [`TargetBuf`]): they sit beside the block buffer, are all-zero
//! between calls, reach their high-water mark once, and are no part of
//! a delta's value, equality or wire form.
//!
//! ## Why any fill order is the same answer
//!
//! The entropy counters downstream carry a running `f64` sum, so the
//! order codes reach them decides the rounding. A delta therefore never
//! touches floating point while it is filled, merged or shipped — integer
//! addition is associative and commutative — and is drained into its
//! counter in one canonical order: ascending code
//! ([`CountState::apply_to`]), ascending packed key
//! ([`PairCountState::apply_to`]). The counter sees an update sequence
//! that depends only on the *multiset* of rows a delta covers: not their
//! order, not the lane a row fell in, not the shard that counted it.

use swope_columnar::{Code, CodeBuf, CodeRepr, Column, ColumnStorage};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::freq::{pack_pair, unpack_pair};
use swope_estimate::joint::JointEntropyCounter;
use swope_store::{for_buf, for_packed, gather};

/// Row-block granularity of every count path.
///
/// An iteration's ΔM rows are split into blocks of this many rows; one
/// block of a column's codes is gathered into a reusable buffer, then
/// counted as a sequential pass. The block bound keeps every block
/// buffer at most `4 · INGEST_BLOCK_ROWS` bytes (32 KiB — L1/L2
/// resident; narrower columns use proportionally less) no matter how
/// large ΔM grows under doubling, which is what makes the steady-state
/// loop allocation-free: buffers reach block size once and are never
/// regrown.
pub const INGEST_BLOCK_ROWS: usize = 8192;

/// Lane tables per marginal count. Four `u32` lanes interleaved per code
/// (`table[4·code + i mod 4]`) keep a code's lanes in one 16-byte line
/// and put three other increments between two to the same address.
const LANES: usize = 4;

/// The marginal kernel counts through lane tables when the delta has at
/// least `LANE_MIN_ROWS_PER_CODE` rows per code of the support (the fold
/// reads `4·support` lanes once per call, and has to be paid for) and
/// the support is at most `LANE_MAX_SUPPORT` (a 16 KiB table beside the
/// block, bounding what a scratch slot can grow to).
///
/// Measured on the 2-vCPU 2.1 GHz reference box over staged `u16` codes,
/// ns per code for one call of `ratio × support` codes including the
/// drain, scalar → lanes. Uniform codes (the scalar loop's best case):
/// ratio 1, 6.4 → 7.9 (lanes lose); ratio 2, 4.7 → 2.3; ratio 4,
/// 3.7 → 1.2; ratio 64, 2.4 → 0.47 at support 1024 and 2.2 → 0.63 at
/// support 16. Cubic-skewed codes: ratio 2, 2.9 → 2.4; ratio 64,
/// 2.6 → 0.50. A constant stream: 2.7 → 0.77. Folding per block instead
/// of per call lost at ratio 2 (2.2 → 2.6) and was dropped. Supports up
/// to 8192 still win at ratio 64 (2.6 → 0.99) on a 128 KiB table; the
/// bound is the table size, not a crossover.
const LANE_MAX_SUPPORT: usize = 1024;
const LANE_MIN_ROWS_PER_CODE: usize = 2;

/// The joint kernel counts into a dense table when the `u_t × u_a` key
/// space has at most `DENSE_MAX_CELLS` cells (two `u32` lanes a cell:
/// 128 KiB at the limit, L2-resident) and the delta has at least a row
/// per cell (the fold scans every cell once per call).
///
/// Same box, uniform pairs, ns per pair including canonical runs, run
/// list → dense. Δ = cells: 16 × 16, 11.7 → 6.3; 64 × 64, 18.9 → 8.1;
/// 128 × 128, 33.2 → 10.2. Δ = cells / 4: 10.7 → 10.6 and 23.0 → 16.2
/// (a wash, hence a row per cell). Δ = 2¹⁷: 16 × 16, 14.1 → 0.95;
/// 128 × 128, 32.1 → 2.1. One hot pair at 60 %, 16 × 16: one lane 1.60,
/// two lanes 1.02. Larger tables keep winning per pair (512 × 512 at
/// Δ = 2²⁰: 38.8 → 5.0) but cost 2 MiB a scratch slot; the bound is
/// memory, and no column pair of the corpora needs more.
const DENSE_MAX_CELLS: usize = 1 << 14;
const DENSE_LANES: usize = 2;

/// The first `len` entries of a kernel table, grown (zeroed) on first
/// use, if the kernel is to `take` it for this call. Tables are all-zero
/// between calls: the folds zero what they read.
///
/// Lanes are `u32`. A marginal lane takes at most `⌈rows / 4⌉` increments
/// per call and a dense cell's lane `⌈rows / 2⌉` (one pair may repeat
/// through a whole delta), so they are exact for any delta
/// [`check_delta_len`] lets through.
fn table(take: bool, len: usize, table: &mut Vec<u32>) -> Option<&mut [u32]> {
    if !take {
        return None;
    }
    if table.len() < len {
        table.resize(len, 0);
    }
    Some(&mut table[..len])
}

/// Rows are `u32` indexes into a population sampled without
/// replacement, so no delta is longer than `u32::MAX` rows; the kernels'
/// lane widths rely on it.
fn check_delta_len(rows: &[u32]) {
    assert!(rows.len() <= u32::MAX as usize, "delta of {} rows overflows a lane", rows.len());
}

/// A pure-integer delta histogram over one attribute's codes.
///
/// This is the unit of the exact merge protocol: counting accumulates
/// codes here (no floating point), merges add counts (associative and
/// commutative), and [`CountState::apply_to`] drains the histogram into
/// an [`EntropyCounter`] in canonical ascending-code order so the
/// counter's running `f64` sum is updated by an order-independent
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct CountState {
    support: u32,
    counts: Vec<u64>,
    touched: Vec<u32>,
    total: u64,
}

impl CountState {
    /// An empty histogram over codes `0..support`.
    pub fn new(support: u32) -> Self {
        Self { support, counts: vec![0; support as usize], touched: Vec::new(), total: 0 }
    }

    /// The attribute's support size.
    pub fn support(&self) -> u32 {
        self.support
    }

    /// Total occurrences accumulated.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one occurrence of `code`.
    #[inline]
    pub fn add(&mut self, code: Code) {
        self.increment(code, 1);
    }

    /// Records `k` occurrences of `code`.
    #[inline]
    pub fn increment(&mut self, code: Code, k: u64) {
        if k == 0 {
            return;
        }
        let slot = &mut self.counts[code as usize];
        if *slot == 0 {
            self.touched.push(code);
        }
        *slot += k;
        self.total += k;
    }

    /// Whether a delta of `rows` rows over this support is counted
    /// through lane tables.
    fn takes_lanes(&self, rows: usize) -> bool {
        let support = self.counts.len();
        support <= LANE_MAX_SUPPORT && rows >= LANE_MIN_ROWS_PER_CODE * support
    }

    /// The marginal kernel: records one occurrence of every code of a
    /// staged block — into `lanes` (see the module docs), which
    /// [`CountState::fold_lanes`] later drains, or by [`CountState::add`]
    /// when the caller has none.
    ///
    /// # Panics
    ///
    /// If a code is not below the histogram's support: the lane table is
    /// sliced to exactly the support's lanes, so an out-of-range code is
    /// a bounds panic there as it is in `add`.
    #[inline(never)]
    fn add_block<R: CodeRepr>(&mut self, codes: &[R], lanes: Option<&mut [u32]>) {
        let Some(table) = lanes else {
            for &c in codes {
                self.add(c.widen());
            }
            return;
        };
        let mut quads = codes.chunks_exact(LANES);
        for quad in &mut quads {
            table[LANES * quad[0].widen() as usize] += 1;
            table[LANES * quad[1].widen() as usize + 1] += 1;
            table[LANES * quad[2].widen() as usize + 2] += 1;
            table[LANES * quad[3].widen() as usize + 3] += 1;
        }
        for (lane, &c) in quads.remainder().iter().enumerate() {
            table[LANES * c.widen() as usize + lane] += 1;
        }
    }

    /// Drains a lane table into the histogram in ascending code order —
    /// on an empty histogram that leaves `touched` sorted — zeroing the
    /// table on the way.
    fn fold_lanes(&mut self, table: &mut [u32]) {
        for (code, lanes) in table.chunks_exact_mut(LANES).enumerate() {
            let k: u64 = lanes.iter().map(|&n| u64::from(n)).sum();
            if k != 0 {
                lanes.fill(0);
                self.increment(code as Code, k);
            }
        }
    }

    /// Merges another shard's histogram into this one. Plain addition of
    /// per-code counts: associative, commutative, and exact.
    pub fn merge(&mut self, other: &CountState) {
        debug_assert_eq!(self.support, other.support, "merging histograms of different supports");
        for &code in &other.touched {
            self.increment(code, other.counts[code as usize]);
        }
    }

    /// The accumulated `(code, count)` entries in ascending code order —
    /// the canonical form used for merge-order-independence checks and
    /// for wire serialization.
    pub fn sorted_entries(&self) -> Vec<(Code, u64)> {
        let mut touched = self.touched.clone();
        touched.sort_unstable();
        touched.into_iter().map(|c| (c, self.counts[c as usize])).collect()
    }

    /// Puts the histogram's own code list in ascending order: nothing to
    /// do when it already is (a lane fold leaves it so), one scan of the
    /// counts once an eighth of the codes are touched — reading the list
    /// back in code order is then cheaper than sorting it — and a sort
    /// otherwise.
    fn order_touched(&mut self) {
        if self.touched.windows(2).all(|w| w[0] < w[1]) {
            return;
        }
        if self.touched.len() * 8 >= self.counts.len() {
            self.touched.clear();
            let codes = self.counts.iter().zip(0..).filter(|&(&n, _)| n != 0);
            self.touched.extend(codes.map(|(_, code)| code));
        } else {
            self.touched.sort_unstable();
        }
    }

    /// [`CountState::sorted_entries`] without the copy: orders the
    /// histogram's own code list in place and walks it (wire encode path).
    pub fn canonical_entries(&mut self) -> impl ExactSizeIterator<Item = (Code, u64)> + '_ {
        self.order_touched();
        self.touched.iter().map(|&c| (c, self.counts[c as usize]))
    }

    /// Drains the histogram into `counter` in canonical ascending-code
    /// order, leaving the histogram empty for reuse.
    pub fn apply_to(&mut self, counter: &mut EntropyCounter) {
        self.order_touched();
        for &code in &self.touched {
            let slot = &mut self.counts[code as usize];
            counter.add_count(code, *slot);
            *slot = 0;
        }
        self.touched.clear();
        self.total = 0;
    }

    /// Empties the histogram without applying it.
    pub fn clear(&mut self) {
        for &code in &self.touched {
            self.counts[code as usize] = 0;
        }
        self.touched.clear();
        self.total = 0;
    }
}

/// A pure-integer delta of joint `(target, candidate)` code occurrences.
///
/// Stored as packed-pair runs (`key = target << 32 | candidate`);
/// [`PairCountState::canonicalize`] sorts and coalesces the runs, after
/// which [`PairCountState::apply_to`] feeds a [`JointEntropyCounter`] in
/// ascending-key order. Like [`CountState`], merging is run-list
/// concatenation followed by canonicalization — exact and order
/// independent. The run list is what merges and what the wire carries;
/// the joint kernel's dense table is only a faster way to *produce* it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairCountState {
    runs: Vec<(u64, u64)>,
    canonical: bool,
}

impl PairCountState {
    /// An empty joint delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total joint occurrences accumulated.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|&(_, k)| k).sum()
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Records one co-occurrence of `(code_t, code_a)`.
    #[inline]
    pub fn add(&mut self, code_t: Code, code_a: Code) {
        self.runs.push((pack_pair(code_t, code_a), 1));
        self.canonical = false;
    }

    /// Records `k` co-occurrences of a packed pair key (wire decode path).
    #[inline]
    pub fn increment(&mut self, key: u64, k: u64) {
        if k == 0 {
            return;
        }
        self.runs.push((key, k));
        self.canonical = false;
    }

    /// The joint kernel: records the pair `(tcodes[i], codes[i])` for
    /// every code of a staged block — into `dense`, a `u_t × u_a` table
    /// of [`DENSE_LANES`] interleaved `u32` lanes a cell that
    /// [`PairCountState::fold_dense`] later drains, or as `(key, 1)` runs
    /// when the caller has none.
    ///
    /// The marginal kernel has counted the same block first, so every
    /// candidate code is known to be below `u_a`; a target code at or
    /// beyond `u_t` indexes past the table and panics.
    #[inline(never)]
    fn add_block<R: CodeRepr>(
        &mut self,
        tcodes: &[Code],
        codes: &[R],
        dense: Option<&mut [u32]>,
        u_a: usize,
    ) {
        debug_assert_eq!(tcodes.len(), codes.len());
        let Some(table) = dense else {
            for (&tc, &c) in tcodes.iter().zip(codes) {
                self.add(tc, c.widen());
            }
            return;
        };
        let cell = |tc: Code, c: R| DENSE_LANES * (tc as usize * u_a + c.widen() as usize);
        let mut tcs = tcodes.chunks_exact(DENSE_LANES);
        let mut cs = codes.chunks_exact(DENSE_LANES);
        for (tc, c) in (&mut tcs).zip(&mut cs) {
            table[cell(tc[0], c[0])] += 1;
            table[cell(tc[1], c[1]) + 1] += 1;
        }
        for (&tc, &c) in tcs.remainder().iter().zip(cs.remainder()) {
            table[cell(tc, c)] += 1;
        }
    }

    /// Drains a dense `u_t × u_a` pair table (see
    /// [`PairCountState::add_block`]) into the run list in ascending cell
    /// order — which is ascending packed-key order, so a delta that was
    /// empty before is canonical after — zeroing the table on the way.
    fn fold_dense(&mut self, table: &mut [u32], u_a: usize) {
        let canonical = self.runs.is_empty();
        for (t, row) in table.chunks_exact_mut(DENSE_LANES * u_a).enumerate() {
            for (a, lanes) in row.chunks_exact_mut(DENSE_LANES).enumerate() {
                let k: u64 = lanes.iter().map(|&n| u64::from(n)).sum();
                if k != 0 {
                    lanes.fill(0);
                    self.runs.push((pack_pair(t as Code, a as Code), k));
                }
            }
        }
        self.canonical = canonical;
    }

    /// Merges another shard's joint delta into this one.
    pub fn merge(&mut self, other: &PairCountState) {
        self.runs.extend_from_slice(&other.runs);
        self.canonical = false;
    }

    /// Sorts the runs by pair key and coalesces duplicates, producing the
    /// canonical form. Idempotent.
    pub fn canonicalize(&mut self) {
        if self.canonical {
            return;
        }
        self.runs.sort_unstable_by_key(|&(key, _)| key);
        let mut out = 0usize;
        for i in 0..self.runs.len() {
            if out > 0 && self.runs[out - 1].0 == self.runs[i].0 {
                self.runs[out - 1].1 += self.runs[i].1;
            } else {
                self.runs[out] = self.runs[i];
                out += 1;
            }
        }
        self.runs.truncate(out);
        self.canonical = true;
    }

    /// The canonicalized `(packed_key, count)` runs (wire encode path).
    pub fn canonical_runs(&mut self) -> &[(u64, u64)] {
        self.canonicalize();
        &self.runs
    }

    /// Empties the delta without applying it, keeping its buffer.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.canonical = false;
    }

    /// Drains the delta into `joint` in canonical ascending-key order,
    /// leaving it empty for reuse.
    pub fn apply_to(&mut self, joint: &mut JointEntropyCounter) {
        self.canonicalize();
        for &(key, k) in &self.runs {
            let (t, a) = unpack_pair(key);
            joint.add_count(t, a, k);
        }
        self.runs.clear();
    }
}

/// Reusable scratch of one candidate's count: the block buffer its codes
/// are staged in (at the column's width) and the marginal and joint
/// kernels' tables. A counter holds one per slot of its candidate
/// fan-out; everything grows to its high-water mark once, so
/// steady-state iterations allocate nothing.
/// The tables are all-zero between calls. A call that unwinds (a corrupt
/// page) leaves them dirty, which is why every owner lives and dies with
/// one query.
#[derive(Debug, Default)]
pub struct CountScratch {
    buf: CodeBuf,
    lanes: Vec<u32>,
    dense: Vec<u32>,
}

impl CountScratch {
    /// Empty scratch; buffers are sized by the first count that uses them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Element capacity of the block buffer (it must stay block-sized
    /// however large a delta grows).
    pub fn block_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// The MI target's codes at one iteration's rows — gathered once,
/// widened to `u32` because candidates of any width pair against them —
/// with the target's support and the lane table its own marginal count
/// uses. Filled by [`count_target`], read through [`TargetBuf::codes`] /
/// [`TargetBuf::target`].
#[derive(Debug, Default)]
pub struct TargetBuf {
    codes: Vec<Code>,
    support: u32,
    lanes: Vec<u32>,
}

impl TargetBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gathered codes: `codes()[i]` is the target's code at row `i`
    /// of the delta last passed to [`count_target`].
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// The gathered codes with their support, as [`count_candidate`]
    /// takes them.
    pub fn target(&self) -> TargetCodes<'_> {
        TargetCodes { codes: &self.codes, support: self.support }
    }
}

/// A borrowed view of the target's codes at a delta's rows.
#[derive(Debug, Clone, Copy)]
pub struct TargetCodes<'a> {
    /// `codes[i]` is the target's code at the delta's row `i`.
    pub codes: &'a [Code],
    /// The target's support `u_t`: every code is below it.
    pub support: u32,
}

/// Stages one block of a column's codes into `buf` at the column's
/// width. A corrupt page panics with the store's one-line
/// `page N: checksum mismatch` message, which the executor (or the
/// server's dispatch guard) turns back into a query error — the loops
/// have no error channel of their own.
#[inline]
fn stage(column: &Column, block: &[u32], buf: &mut CodeBuf) {
    match column.storage() {
        ColumnStorage::Heap(packed) => {
            for_packed!(packed.codes(), |codes| gather(codes, block, CodeRepr::buf(buf)))
        }
        ColumnStorage::Paged(paged) => paged.gather(block, buf).unwrap_or_else(|e| panic!("{e}")),
    }
}

/// Counts the target column's codes at `rows` into `counts` and leaves
/// them in `target` (replacing its contents): `target.codes()[i]` is the
/// code at `rows[i]`, which is what [`count_candidate`] pairs against.
/// The whole delta is gathered, not a block at a time, because every
/// candidate needs all of it.
pub fn count_target(
    column: &Column,
    rows: &[u32],
    counts: &mut CountState,
    target: &mut TargetBuf,
) {
    match column.storage() {
        ColumnStorage::Heap(packed) => packed.codes().gather_widen(rows, &mut target.codes),
        ColumnStorage::Paged(paged) => {
            paged.gather_widen(rows, &mut target.codes).unwrap_or_else(|e| panic!("{e}"))
        }
    }
    target.support = column.support();
    let lane_len = LANES * counts.counts.len();
    let mut lanes = table(counts.takes_lanes(rows.len()), lane_len, &mut target.lanes);
    counts.add_block(&target.codes, lanes.as_deref_mut());
    if let Some(lanes) = lanes {
        counts.fold_lanes(lanes);
    }
}

/// Counts a candidate column's codes at `rows` into `out` and, when
/// `target` carries the target's codes at the same rows, each row's
/// `(target, candidate)` pair into `pairs`. Heap or paged, local, shard
/// or peer: this is the one block loop that fills a candidate's deltas —
/// stage, marginal kernel, joint kernel, then one fold per table.
///
/// # Panics
///
/// If `target` has fewer codes than `rows`, a code is not below its
/// column's support, or the delta is longer than `u32::MAX` rows.
pub fn count_candidate(
    column: &Column,
    rows: &[u32],
    target: Option<TargetCodes<'_>>,
    out: &mut CountState,
    pairs: &mut PairCountState,
    scratch: &mut CountScratch,
) {
    check_delta_len(rows);
    let CountScratch { buf, lanes, dense } = scratch;
    let lane_len = LANES * out.counts.len();
    let mut lanes = table(out.takes_lanes(rows.len()), lane_len, lanes);
    let u_a = column.support() as usize;
    let cells = target.map_or(0, |t| t.support as usize * u_a);
    let take_dense = (1..=DENSE_MAX_CELLS).contains(&cells) && rows.len() >= cells;
    let mut dense = table(take_dense, DENSE_LANES * cells, dense);

    for (i, block) in rows.chunks(INGEST_BLOCK_ROWS).enumerate() {
        stage(column, block, buf);
        let tcs = target.map(|t| &t.codes[i * INGEST_BLOCK_ROWS..][..block.len()]);
        for_buf!(&*buf, |codes| {
            out.add_block(codes, lanes.as_deref_mut());
            if let Some(tcs) = tcs {
                pairs.add_block(tcs, codes, dense.as_deref_mut(), u_a);
            }
        });
    }
    if let Some(lanes) = lanes {
        out.fold_lanes(lanes);
    }
    if let Some(dense) = dense {
        pairs.fold_dense(dense, u_a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::Width;
    use swope_datagen::Distribution;
    use swope_sampling::rng::Xoshiro256pp;

    fn random_count_states(seed: u64, parts: usize, support: u32, adds: usize) -> Vec<CountState> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut states = vec![CountState::new(support); parts];
        for _ in 0..adds {
            let part = rng.next_below(parts as u64) as usize;
            let code = rng.next_below(support as u64) as u32;
            states[part].add(code);
        }
        states
    }

    #[test]
    fn count_state_merge_is_commutative() {
        let states = random_count_states(11, 2, 37, 5000);
        let (a, b) = (&states[0], &states[1]);
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab.sorted_entries(), ba.sorted_entries());
        assert_eq!(ab.total(), a.total() + b.total());
    }

    #[test]
    fn canonical_entries_equal_sorted_entries_sparse_and_dense() {
        // 1000 codes with 20 adds take the sort, with 5000 the scan; the
        // histogram must then still clear and apply like any other.
        for (seed, adds) in [(3, 0), (4, 20), (5, 124), (6, 125), (7, 5000)] {
            let mut cs = random_count_states(seed, 1, 1000, adds).remove(0);
            let sorted = cs.sorted_entries();
            assert_eq!(cs.canonical_entries().collect::<Vec<_>>(), sorted, "{adds} adds");
            assert_eq!(cs.sorted_entries(), sorted);
            let mut counter = EntropyCounter::new(1000);
            cs.clone().apply_to(&mut counter);
            assert_eq!(counter.total(), adds as u64);
            cs.clear();
            assert_eq!(cs, CountState::new(1000));
        }
    }

    #[test]
    fn apply_order_is_canonical_however_the_code_list_got_its_order() {
        // Already ascending (skip), an eighth touched (scan) and sparse
        // (sort) must all drain like a histogram filled in code order.
        for (support, codes) in [
            (64u32, vec![1u32, 5, 9, 60]),
            (16, vec![9, 3, 12]),
            (1000, vec![700, 2, 31, 30]),
            (1000, (0..400).rev().collect()),
        ] {
            let mut entries: Vec<(Code, u64)> =
                codes.iter().map(|&c| (c, u64::from(c) + 1)).collect();
            let (mut got, mut want) = (CountState::new(support), CountState::new(support));
            entries.iter().for_each(|&(c, k)| got.increment(c, k));
            entries.sort_unstable();
            entries.iter().for_each(|&(c, k)| want.increment(c, k));
            let (mut a, mut b) = (EntropyCounter::new(support), EntropyCounter::new(support));
            got.apply_to(&mut a);
            want.apply_to(&mut b);
            assert_eq!(a.entropy().to_bits(), b.entropy().to_bits(), "{codes:?}");
            assert_eq!(a.counts(), b.counts());
            assert_eq!(got, CountState::new(support));
        }
    }

    #[test]
    fn count_state_merge_is_associative() {
        let states = random_count_states(23, 3, 64, 8000);
        let (a, b, c) = (&states[0], &states[1], &states[2]);
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.sorted_entries(), right.sorted_entries());
    }

    #[test]
    fn count_state_apply_is_merge_order_invariant() {
        // Applying (a ⊕ b) ⊕ c and (c ⊕ a) ⊕ b to fresh counters must
        // produce bitwise-identical entropies: apply_to drains in
        // canonical code order regardless of merge history.
        let states = random_count_states(5, 3, 100, 10_000);
        let (a, b, c) = (&states[0], &states[1], &states[2]);
        let mut one = a.clone();
        one.merge(b);
        one.merge(c);
        let mut two = c.clone();
        two.merge(a);
        two.merge(b);
        let mut counter_one = EntropyCounter::new(100);
        let mut counter_two = EntropyCounter::new(100);
        one.apply_to(&mut counter_one);
        two.apply_to(&mut counter_two);
        assert_eq!(counter_one.entropy().to_bits(), counter_two.entropy().to_bits());
        assert_eq!(counter_one.total(), counter_two.total());
        // apply_to drains.
        assert!(one.is_empty() && two.is_empty());
    }

    #[test]
    fn pair_count_state_merge_is_order_invariant() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut parts = vec![PairCountState::new(); 3];
        for _ in 0..6000 {
            let p = rng.next_below(3) as usize;
            parts[p].add(rng.next_below(8) as u32, rng.next_below(16) as u32);
        }
        let (a, b, c) = (parts[0].clone(), parts[1].clone(), parts[2].clone());
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c;
        right.merge(&a);
        right.merge(&b);
        let mut j_left = JointEntropyCounter::new(8, 16);
        let mut j_right = JointEntropyCounter::new(8, 16);
        left.apply_to(&mut j_left);
        right.apply_to(&mut j_right);
        assert_eq!(j_left.entropy().to_bits(), j_right.entropy().to_bits());
    }

    /// The three code streams of the kernel tests: uniform, Zipf(1.2) and
    /// one code repeated (the case lanes exist for).
    fn streams(support: u32, len: usize, rng: &mut Xoshiro256pp) -> [Vec<Code>; 3] {
        let zipf = Distribution::Zipf { u: support, s: 1.2 }.sampler();
        [
            (0..len).map(|_| rng.next_below(u64::from(support)) as Code).collect(),
            (0..len).map(|_| zipf.sample(rng)).collect(),
            vec![support - 1; len],
        ]
    }

    const LENGTHS: [usize; 9] = [
        0,
        1,
        3,
        4,
        5,
        INGEST_BLOCK_ROWS - 1,
        INGEST_BLOCK_ROWS,
        INGEST_BLOCK_ROWS + 1,
        3 * INGEST_BLOCK_ROWS + 137,
    ];

    fn widths_holding(support: u32) -> impl Iterator<Item = Width> {
        [Width::U8, Width::U16, Width::U32].into_iter().filter(move |w| w.holds(support))
    }

    #[test]
    fn marginal_kernel_equals_per_element_add() {
        // Supports on both sides of every width and of the lane limit;
        // lengths on both sides of the lane factor, the lane count and
        // the block size. One scratch and one histogram per (support,
        // width) serve every case, so a lane left dirty by one would
        // show in the next.
        let mut rng = Xoshiro256pp::seed_from_u64(0xC0DE);
        for support in [1u32, 2, 255, 256, 257, 1000, 1024, 1025, 70_000] {
            for len in LENGTHS {
                for codes in streams(support, len, &mut rng) {
                    let mut want = CountState::new(support);
                    codes.iter().for_each(|&c| want.add(c));
                    let base = Column::new(codes, support).unwrap();
                    let rows: Vec<u32> = (0..len as u32).collect();
                    for width in widths_holding(support) {
                        let column = base.with_width(width).unwrap();
                        let mut scratch = CountScratch::new();
                        let mut got = CountState::new(support);
                        let mut pairs = PairCountState::new();
                        for _ in 0..2 {
                            count_candidate(
                                &column,
                                &rows,
                                None,
                                &mut got,
                                &mut pairs,
                                &mut scratch,
                            );
                            let case = format!("support {support} len {len} {width}");
                            assert_eq!(got.sorted_entries(), want.sorted_entries(), "{case}");
                            assert_eq!(got.total(), want.total(), "{case}");
                            assert!(pairs.is_empty());
                            assert!(scratch.lanes.iter().all(|&n| n == 0), "{case}");
                            got.clear();
                            assert_eq!(got, CountState::new(support), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn target_count_equals_per_element_add_and_returns_the_codes() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x7A6);
        for support in [1u32, 16, 1024, 1025] {
            for len in [0usize, 5, 2 * 1024, 3 * INGEST_BLOCK_ROWS + 137] {
                let mut target = TargetBuf::new();
                for codes in streams(support, len, &mut rng) {
                    let mut want = CountState::new(support);
                    codes.iter().for_each(|&c| want.add(c));
                    let column = Column::new(codes.clone(), support).unwrap();
                    let rows: Vec<u32> = (0..len as u32).collect();
                    let mut got = CountState::new(support);
                    count_target(&column, &rows, &mut got, &mut target);
                    assert_eq!(target.codes(), codes);
                    assert_eq!(target.target().support, support);
                    assert_eq!(got.sorted_entries(), want.sorted_entries());
                    assert_eq!(got.total(), len as u64);
                }
            }
        }
    }

    /// `(u_t, u_a)` shapes around the dense limit: well inside, exactly
    /// 2¹⁴ cells, one row of cells beyond it, and a wide candidate.
    const PAIR_SHAPES: [(u32, u32); 6] =
        [(1, 1), (2, 3), (16, 16), (128, 128), (129, 128), (4, 70_000)];

    fn run_filled(tcodes: &[Code], codes: &[Code]) -> PairCountState {
        let mut pairs = PairCountState::new();
        tcodes.iter().zip(codes).for_each(|(&t, &c)| pairs.add(t, c));
        pairs
    }

    #[test]
    fn joint_kernel_equals_the_run_path() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xD15E);
        for (u_t, u_a) in PAIR_SHAPES {
            let cells = (u_t * u_a) as usize;
            let lengths =
                [0, 1, 3, cells.saturating_sub(1), cells, cells + 1, 3 * INGEST_BLOCK_ROWS + 137];
            for len in lengths {
                let tstreams = streams(u_t, len, &mut rng);
                for (tcodes, codes) in tstreams.iter().zip(streams(u_a, len, &mut rng)) {
                    let mut want = run_filled(tcodes, &codes);
                    let want_total = want.total();
                    let base = Column::new(codes, u_a).unwrap();
                    let rows: Vec<u32> = (0..len as u32).collect();
                    let target = TargetCodes { codes: tcodes, support: u_t };
                    for width in widths_holding(u_a) {
                        let column = base.with_width(width).unwrap();
                        let mut scratch = CountScratch::new();
                        let mut out = CountState::new(u_a);
                        let mut got = PairCountState::new();
                        for _ in 0..2 {
                            count_candidate(
                                &column,
                                &rows,
                                Some(target),
                                &mut out,
                                &mut got,
                                &mut scratch,
                            );
                            let case = format!("{u_t}x{u_a} len {len} {width}");
                            // Read before anything canonicalises.
                            assert_eq!(got.total(), want_total, "{case}");
                            assert_eq!(got.is_empty(), len == 0, "{case}");
                            assert_eq!(out.total(), len as u64, "{case}");
                            assert_eq!(got.canonical_runs(), want.canonical_runs(), "{case}");
                            assert!(scratch.dense.iter().all(|&n| n == 0), "{case}");
                            got.clear();
                            out.clear();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_filled_delta_merges_with_a_run_filled_one() {
        // Two shards of one delta, one long enough for the dense table
        // and one not, merged in either order, against the whole delta's
        // runs; then a second kernel call on top of a non-empty delta.
        let mut rng = Xoshiro256pp::seed_from_u64(0x3E26E);
        let (u_t, u_a, len) = (16u32, 16u32, 5000usize);
        let [tcodes, _, _] = streams(u_t, len, &mut rng);
        let [_, codes, _] = streams(u_a, len, &mut rng);
        let column = Column::new(codes.clone(), u_a).unwrap();
        let cut = 100; // < 256 cells: the short shard takes the run list.
        let mut scratch = CountScratch::new();
        let mut shard = |range: std::ops::Range<usize>, pairs: &mut PairCountState| {
            let rows: Vec<u32> = (range.start as u32..range.end as u32).collect();
            let target = TargetCodes { codes: &tcodes[range], support: u_t };
            let mut out = CountState::new(u_a);
            count_candidate(&column, &rows, Some(target), &mut out, pairs, &mut scratch);
        };
        let (mut short, mut long) = (PairCountState::new(), PairCountState::new());
        shard(0..cut, &mut short);
        shard(cut..len, &mut long);
        assert_eq!(short.runs.len(), cut, "short shard pushed a run per row");
        assert!(long.canonical && long.runs.len() <= 256, "long shard folded a dense table");

        let mut want = run_filled(&tcodes, &codes);
        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        assert_eq!(a.canonical_runs(), want.canonical_runs());
        assert_eq!(b.canonical_runs(), want.canonical_runs());

        // Folding onto runs already present must not claim canonical form.
        shard(cut..len, &mut short);
        assert!(!short.canonical);
        assert_eq!(short.canonical_runs(), want.canonical_runs());
    }

    #[test]
    fn one_pair_repeated_past_u16_in_one_delta() {
        // The lanes are u32: a cell's lane takes ⌈rows / 2⌉ increments at
        // most, a marginal lane ⌈rows / 4⌉, and `check_delta_len` asserts
        // rows ≤ u32::MAX. 2¹⁸ repeats of one pair is 2¹⁷ a dense lane
        // and 2¹⁶ a marginal lane — past anything a u16 would hold.
        let len = 1usize << 18;
        let column = Column::new(vec![2; len], 3).unwrap();
        let rows: Vec<u32> = (0..len as u32).collect();
        let mut target = TargetBuf::new();
        let mut tcounts = CountState::new(2);
        count_target(&Column::new(vec![1; len], 2).unwrap(), &rows, &mut tcounts, &mut target);
        let (mut out, mut pairs) = (CountState::new(3), PairCountState::new());
        let mut scratch = CountScratch::new();
        count_candidate(&column, &rows, Some(target.target()), &mut out, &mut pairs, &mut scratch);
        assert_eq!(tcounts.sorted_entries(), vec![(1, len as u64)]);
        assert_eq!(out.sorted_entries(), vec![(2, len as u64)]);
        assert_eq!(pairs.canonical_runs(), &[(pack_pair(1, 2), len as u64)]);
    }
}
