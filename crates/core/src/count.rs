//! Integer count deltas and the kernels that fill them.
//!
//! Every source of counts in this crate — the unsharded loop over any
//! scope, heap or paged, the in-process shards and the cluster peers
//! ([`crate::shard`]) — counts an iteration's newly sampled rows through
//! one body, `Counter::count`, into the same two pure-integer deltas: a
//! [`CountState`] histogram per attribute and, for MI, a
//! [`PairCountState`] of joint `(target, candidate)` occurrences. Both
//! are filled here, once, by [`count_target`] and [`count_candidate`] —
//! or by [`gather_target`] and [`count_joint`], which leave the
//! histograms out, when an MI query reads only the joint:
//!
//! 1. a delta's rows arrive as *positions*: where the page layout
//!    stores them, on a heap column and in a v3 snapshot's pages alike —
//!    one or two contiguous runs for each whole page a sample drew from,
//!    a list for the rest (`swope_sampling::PagePrefix`; a cluster
//!    peer's slot table, for the windows it is sent);
//! 2. the MI target's codes at those positions are widened once into a
//!    [`TargetBuf`], runs first and then the list, the order every
//!    candidate reads its own in. Every candidate pairs against all of
//!    them, so this is a real copy, and it is booked in
//!    [`swope_store::gather_stats`] like any staged row;
//! 3. a run is counted **in place**: the kernels read the slice the run
//!    names, at the column's width, however long it is — a heap column's
//!    packed slice, or a paged column's page slice (`u8` as it is, `u16`
//!    and `u32` decoded a block of at most [`INGEST_BLOCK_ROWS`] codes at
//!    a time into the block buffer). A list is staged a block at a time
//!    into that reusable [`CodeBuf`] — through [`swope_store::gather`]
//!    on the heap, through [`swope_columnar::PagedColumn::gather`] on a
//!    paged column, which looks a page up once per run of adjacent
//!    positions it holds;
//! 4. the **marginal kernel** (`CountState::add_block`) counts each run
//!    or staged block. A support of at most `LANE_MAX_SUPPORT` counts
//!    into a `u32` table: four lanes a code selected by `i mod 4` when the
//!    delta has at least two rows per code, so a repeated code never
//!    waits on the store of its own previous increment; one lane a code
//!    for a shorter delta of at least a row per `ONE_LANE_CODES_PER_ROW`
//!    codes. Anything else goes through the scalar [`CountState::add`];
//! 5. for MI the **joint kernel** (`PairCountState::add_block`) counts the
//!    same slice's pairs against the target codes at the same positions.
//!    When the `u_t × u_a` key space has at most `DENSE_MAX_CELLS` cells
//!    and the delta at least that many rows, into a two-lane dense table
//!    indexed `t·u_a + a`; otherwise as one `(key, 1)` run per row, sorted
//!    at canonicalisation. It checks the candidate codes against `u_a`
//!    itself, because [`count_joint`] runs it without the marginal
//!    kernel, whose table bounds would otherwise catch a bad code;
//! 6. after the last slice the tables are folded into the deltas by one
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
//! order, not the lane a row fell in, not whether it was staged, not the
//! shard that counted it, not where the column lives.

use std::ops::Range;
use std::time::Instant;

use swope_columnar::{
    Code, CodeBuf, CodeRepr, Column, ColumnStorage, PageView, PagedColumn, Positions, Width,
};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::freq::{pack_pair, unpack_pair};
use swope_estimate::joint::JointEntropyCounter;
use swope_store::{for_buf, for_packed, gather, gather_stats};

/// Row-block granularity of a staged list.
///
/// A delta's list of positions is split into blocks of this many rows;
/// one block of a column's codes is gathered into a reusable buffer,
/// then counted as a sequential pass. The block bound keeps every block
/// buffer at most `4 · INGEST_BLOCK_ROWS` bytes (32 KiB — L1/L2
/// resident; narrower columns use proportionally less) no matter how
/// large ΔM grows under doubling, which is what makes the steady-state
/// loop allocation-free: buffers reach block size once and are never
/// regrown. Runs are not staged, so they are not split either.
pub const INGEST_BLOCK_ROWS: usize = 8192;

/// Lanes of the marginal kernel's wide table. Four `u32` lanes
/// interleaved per code (`table[4·code + i mod 4]`) keep a code's lanes
/// in one 16-byte line and put three other increments between two to the
/// same address.
const LANES: usize = 4;

/// The marginal kernel counts through a lane table when the support is
/// at most `LANE_MAX_SUPPORT` (a 16 KiB table beside the block, bounding
/// what a scratch slot can grow to): through [`LANES`] lanes when the
/// delta has at least `LANE_MIN_ROWS_PER_CODE` rows per code of the
/// support (the fold reads `4·support` lanes once per call, and has to be
/// paid for), through one lane when it has fewer.
///
/// Measured on the 2-vCPU 2.1 GHz reference box over staged `u16` codes,
/// ns per code for one call of `ratio × support` codes including the
/// drain, scalar → four lanes. Uniform codes (the scalar loop's best
/// case): ratio 1, 6.4 → 7.9 (four lanes lose); ratio 2, 4.7 → 2.3;
/// ratio 4, 3.7 → 1.2; ratio 64, 2.4 → 0.47 at support 1024 and
/// 2.2 → 0.63 at support 16. Cubic-skewed codes: ratio 2, 2.9 → 2.4;
/// ratio 64, 2.6 → 0.50. A constant stream: 2.7 → 0.77. Folding per block
/// instead of per call lost at ratio 2 (2.2 → 2.6) and was dropped.
/// Supports up to 8192 still win at ratio 64 (2.6 → 0.99) on a 128 KiB
/// table; the bound is the table size, not a crossover.
const LANE_MAX_SUPPORT: usize = 1024;
const LANE_MIN_ROWS_PER_CODE: usize = 2;

/// Below [`LANE_MIN_ROWS_PER_CODE`] rows per code, a delta counts into
/// one lane a code when it has at least a row per
/// `ONE_LANE_CODES_PER_ROW` codes of the support, and by the scalar
/// [`CountState::add`] when it is shorter still: the one-lane fold scans
/// the whole support, which a handful of rows cannot pay for.
///
/// Same box, one pinned core, uniform `u16` codes, ns per code for one
/// call including the drain, scalar → one lane (→ four lanes). The
/// crossover sits at a row per four codes for every support measured:
/// support 16, 4 rows 23.0 → 21.1 (25.9); support 64, 8 rows
/// 21.8 → 23.3 and 16 rows 21.5 → 18.0; support 256, 32 rows
/// 15.3 → 23.8 and 64 rows 20.7 → 17.7; support 1000, 128 rows
/// 11.8 → 18.7 and 256 rows 16.2 → 13.4 (16.2); support 1024, 128 rows
/// 11.5 → 18.5 and 256 rows 18.5 → 15.0. A row per code: 10.5 → 5.6
/// (7.1) at support 1024. The tiny deltas a paged list hands over are
/// where the fold cannot pay: support 1000, 1 row 4.7 → 378; 16 rows
/// 12.6 → 41. Cubic-skewed codes move every crossover the same way.
const ONE_LANE_CODES_PER_ROW: usize = 4;

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
/// use. Tables are all-zero between calls: the folds zero what they read.
///
/// Lanes are `u32`. A marginal lane takes at most `rows` increments per
/// call and a dense cell's lane `⌈rows / 2⌉` (one pair may repeat
/// through a whole delta), so they are exact for any delta
/// [`check_delta_len`] lets through.
fn table(len: usize, table: &mut Vec<u32>) -> &mut [u32] {
    if table.len() < len {
        table.resize(len, 0);
    }
    &mut table[..len]
}

/// Rows are `u32` indexes into a population sampled without
/// replacement, so no delta is longer than `u32::MAX` rows; the kernels'
/// lane widths rely on it.
fn check_delta_len(rows: usize) {
    assert!(rows <= u32::MAX as usize, "delta of {rows} rows overflows a lane");
}

/// What the marginal kernel counts one delta into (see
/// [`CountState::lanes`]).
#[derive(Debug)]
enum Lanes<'t> {
    /// No table: [`CountState::add`], code by code.
    Scalar,
    /// One `u32` lane a code: `table[code]`.
    One(&'t mut [u32]),
    /// [`LANES`] interleaved `u32` lanes a code: `table[4·code + i mod 4]`.
    Four(&'t mut [u32]),
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

    /// The table the marginal kernel counts a delta of `rows` rows over
    /// this support into, cut from `table` (see the module docs).
    fn lanes<'t>(&self, rows: usize, table: &'t mut Vec<u32>) -> Lanes<'t> {
        let support = self.counts.len();
        if support > LANE_MAX_SUPPORT || rows * ONE_LANE_CODES_PER_ROW < support {
            Lanes::Scalar
        } else if rows >= LANE_MIN_ROWS_PER_CODE * support {
            Lanes::Four(self::table(LANES * support, table))
        } else {
            Lanes::One(self::table(support, table))
        }
    }

    /// The marginal kernel: records one occurrence of every code of a
    /// slice — into the lane table [`CountState::fold_lanes`] later
    /// drains, or by [`CountState::add`] when there is none.
    ///
    /// # Panics
    ///
    /// If a code is not below the histogram's support: a lane table is
    /// sliced to exactly the support's lanes, so an out-of-range code is
    /// a bounds panic there as it is in `add`.
    #[inline(never)]
    fn add_block<R: CodeRepr>(&mut self, codes: &[R], lanes: &mut Lanes<'_>) {
        // The tables are reborrowed as locals: indexed through the
        // enum, every increment would reload the slice from memory.
        match lanes {
            Lanes::Scalar => codes.iter().for_each(|&c| self.add(c.widen())),
            Lanes::One(table) => {
                let table = &mut **table;
                codes.iter().for_each(|&c| table[c.widen() as usize] += 1)
            }
            Lanes::Four(table) => {
                let table = &mut **table;
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
        }
    }

    /// Drains a lane table into the histogram in ascending code order —
    /// on an empty histogram that leaves `touched` sorted — zeroing the
    /// table on the way.
    fn fold_lanes(&mut self, lanes: Lanes<'_>) {
        match lanes {
            Lanes::Scalar => {}
            Lanes::One(table) => self.fold::<1>(table),
            Lanes::Four(table) => self.fold::<LANES>(table),
        }
    }

    /// [`CountState::fold_lanes`] over a table of `L` lanes a code.
    fn fold<const L: usize>(&mut self, table: &mut [u32]) {
        for (code, lanes) in table.chunks_exact_mut(L).enumerate() {
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
    /// every code of a slice — into `dense`, a `u_t × u_a` table of
    /// [`DENSE_LANES`] interleaved `u32` lanes a cell that
    /// [`PairCountState::fold_dense`] later drains, or as `(key, 1)` runs
    /// when the caller has none.
    ///
    /// # Panics
    ///
    /// If a candidate code is not below `u_a`: checked here, since no
    /// marginal kernel may have read the slice first, and such a code
    /// would alias cell `(t + 1, c - u_a)` of the dense table. A target
    /// code at or beyond `u_t` indexes past the table and panics there.
    #[inline(never)]
    fn add_block<R: CodeRepr>(
        &mut self,
        tcodes: &[Code],
        codes: &[R],
        dense: Option<&mut [u32]>,
        u_a: usize,
    ) {
        debug_assert_eq!(tcodes.len(), codes.len());
        // At the column's width, where the maximum vectorises.
        if let Some(top) = codes.iter().copied().max().map(CodeRepr::widen) {
            assert!((top as usize) < u_a, "candidate code {top} is not below its support {u_a}");
        }
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

/// Reusable scratch of one candidate's count: the block buffer a list's
/// codes are staged in (at the column's width) and the marginal and
/// joint kernels' tables. A counter holds one per slot of its candidate
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
/// uses. Filled by [`count_target`] or [`gather_target`], read through
/// [`TargetBuf::codes`] / [`TargetBuf::target`].
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
    /// of the delta last passed to [`count_target`] or [`gather_target`].
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

/// Widens the target column's codes at `rows` — storage positions, see
/// the module docs — into `target` (replacing its contents):
/// `target.codes()[i]` is the code at the delta's `i`-th position, runs
/// first, which is what [`count_candidate`] and [`count_joint`] pair
/// against. The whole delta is read, not a block at a time, because
/// every candidate needs all of it; the copy is booked in
/// [`gather_stats`] when it is on.
///
/// # Panics
///
/// If a position is out of range, or a paged column meets a corrupt page.
pub fn gather_target<'a>(column: &Column, rows: impl Into<Positions<'a>>, target: &mut TargetBuf) {
    let Positions { runs, list } = rows.into();
    let started = gather_stats::enabled().then(Instant::now);
    let codes = &mut target.codes;
    codes.clear();
    match column.storage() {
        ColumnStorage::Heap(packed) => {
            for_packed!(packed.codes(), |stored| {
                for run in runs {
                    let run = &stored[run.start as usize..run.end as usize];
                    codes.extend(run.iter().map(|&c| c.widen()));
                }
                codes.extend(list.iter().map(|&p| stored[p as usize].widen()));
            });
        }
        ColumnStorage::Paged(paged) => {
            for_each_slice(paged, runs, |view| view.for_each(|c| codes.push(c)));
            paged.gather_widen(list, codes).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    if let Some(started) = started {
        gather_stats::record(codes.len(), started.elapsed().as_nanos() as u64);
    }
    target.support = column.support();
}

/// [`gather_target`], then counts the codes into `counts`.
///
/// # Panics
///
/// As [`gather_target`].
pub fn count_target<'a>(
    column: &Column,
    rows: impl Into<Positions<'a>>,
    counts: &mut CountState,
    target: &mut TargetBuf,
) {
    gather_target(column, rows, target);
    let TargetBuf { codes, lanes, .. } = target;
    let mut lanes = counts.lanes(codes.len(), lanes);
    counts.add_block(codes, &mut lanes);
    counts.fold_lanes(lanes);
}

/// Counts a candidate column's codes at `rows` — storage positions — into
/// `out` and, when `target` carries the target's codes at the same
/// positions, each row's `(target, candidate)` pair into `pairs`. Heap or
/// paged, local, shard or peer: this is the one loop that fills a
/// candidate's deltas — each heap run read in place, each block of the
/// list staged, through the marginal and joint kernels, then one fold
/// per table.
///
/// # Panics
///
/// If `target` has fewer codes than `rows`, a position is out of range,
/// a code is not below its column's support, the delta is longer than
/// `u32::MAX` rows, or `rows` are runs and the column is paged.
pub fn count_candidate<'a>(
    column: &Column,
    rows: impl Into<Positions<'a>>,
    target: Option<TargetCodes<'_>>,
    out: &mut CountState,
    pairs: &mut PairCountState,
    scratch: &mut CountScratch,
) {
    count(column, rows.into(), target, Some(out), pairs, scratch);
}

/// [`count_candidate`] without the candidate's histogram: only the
/// `(target, candidate)` pairs at `rows`, for an MI query whose
/// marginals are exact and whose interval reads the joint alone.
///
/// # Panics
///
/// As [`count_candidate`]; the joint kernel checks the codes against the
/// column's support itself.
pub fn count_joint<'a>(
    column: &Column,
    rows: impl Into<Positions<'a>>,
    target: TargetCodes<'_>,
    pairs: &mut PairCountState,
    scratch: &mut CountScratch,
) {
    count(column, rows.into(), Some(target), None, pairs, scratch);
}

/// The body of [`count_candidate`] and [`count_joint`].
fn count(
    column: &Column,
    rows: Positions<'_>,
    target: Option<TargetCodes<'_>>,
    out: Option<&mut CountState>,
    pairs: &mut PairCountState,
    scratch: &mut CountScratch,
) {
    let len = rows.len();
    check_delta_len(len);
    let CountScratch { buf, lanes, dense } = scratch;
    let u_a = column.support() as usize;
    let mut kernels = Kernels {
        marginal: out.map(move |out| {
            let lanes = out.lanes(len, lanes);
            (out, lanes)
        }),
        joint: target.map(move |t| {
            let cells = t.support as usize * u_a;
            let take_dense = (1..=DENSE_MAX_CELLS).contains(&cells) && len >= cells;
            let dense = take_dense.then(|| table(DENSE_LANES * cells, dense));
            Joint { pairs, dense, tcodes: t.codes, u_a }
        }),
    };
    match column.storage() {
        ColumnStorage::Heap(packed) => for_packed!(packed.codes(), |stored| {
            for run in rows.runs {
                kernels.count(&stored[run.start as usize..run.end as usize]);
            }
        }),
        ColumnStorage::Paged(paged) => count_paged_runs(paged, rows.runs, buf, &mut kernels),
    }
    for block in rows.list.chunks(INGEST_BLOCK_ROWS) {
        stage(column, block, buf);
        for_buf!(&*buf, |codes| kernels.count(codes));
    }
    kernels.fold();
}

/// Counts runs of positions of a paged column in place, one page slice
/// at a time: a `u8` slice is the codes, a `u16` or `u32` one is decoded
/// a block at a time into `buf`. Out of line, so the heap arm of
/// [`count`] compiles as if this did not exist.
#[inline(never)]
fn count_paged_runs(
    paged: &PagedColumn,
    runs: &[Range<u32>],
    buf: &mut CodeBuf,
    kernels: &mut Kernels<'_>,
) {
    for_each_slice(paged, runs, |view| match paged.width() {
        Width::U8 => kernels.count(view.payload()),
        _ => {
            for start in (0..view.len()).step_by(INGEST_BLOCK_ROWS) {
                view.slice(start..view.len().min(start + INGEST_BLOCK_ROWS)).decode_into(buf);
                for_buf!(&*buf, |codes| kernels.count(codes));
            }
        }
    });
}

/// Calls `f` with the codes of `runs` of a paged column, one view per
/// page a run crosses.
///
/// # Panics
///
/// On a corrupt page, with the store's one-line message (see [`stage`]).
fn for_each_slice(paged: &PagedColumn, runs: &[Range<u32>], mut f: impl FnMut(PageView<'_>)) {
    for run in runs {
        let read = paged.try_for_each_slice(run.start as usize..run.end as usize, &mut f);
        read.unwrap_or_else(|e| panic!("{e}"));
    }
}

/// One call's kernels: the candidate's histogram with the lane table it
/// counts into, unless only the joint is counted, and for MI the joint's.
struct Kernels<'k> {
    marginal: Option<(&'k mut CountState, Lanes<'k>)>,
    joint: Option<Joint<'k>>,
}

/// The joint delta of one call, its dense table if it takes one, and the
/// target codes at the positions not yet counted.
struct Joint<'k> {
    pairs: &'k mut PairCountState,
    dense: Option<&'k mut [u32]>,
    tcodes: &'k [Code],
    u_a: usize,
}

impl Kernels<'_> {
    /// Counts the codes at the delta's next `codes.len()` positions.
    #[inline]
    fn count<R: CodeRepr>(&mut self, codes: &[R]) {
        if let Some((out, lanes)) = &mut self.marginal {
            out.add_block(codes, lanes);
        }
        if let Some(joint) = &mut self.joint {
            let (tcodes, rest) = joint.tcodes.split_at(codes.len());
            joint.tcodes = rest;
            joint.pairs.add_block(tcodes, codes, joint.dense.as_deref_mut(), joint.u_a);
        }
    }

    /// Folds the tables into the deltas, zeroing them.
    fn fold(self) {
        if let Some((out, lanes)) = self.marginal {
            out.fold_lanes(lanes);
        }
        if let Some(Joint { pairs, dense: Some(dense), u_a, .. }) = self.joint {
            pairs.fold_dense(dense, u_a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::slice;
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

    /// Where a column stores `rows`: what the kernels index by.
    fn positions(column: &Column, rows: std::ops::Range<usize>) -> Vec<u32> {
        rows.map(|r| column.layout().position_of(r as u32)).collect()
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
                    let rows: Vec<u32> = positions(&column, 0..len);
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
                    let rows: Vec<u32> = positions(&base, 0..len);
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
            let rows: Vec<u32> = positions(&column, range.clone());
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
    fn one_lane_kernel_equals_per_element_add() {
        // Every support the lane tables take, at the lengths on both
        // sides of where one lane starts (a row per four codes) and ends
        // (two rows a code), counted as runs read in place and as a list
        // staged, at every width. One scratch serves every case, so a
        // lane left dirty by one would show in the next.
        let mut rng = Xoshiro256pp::seed_from_u64(0x1A4E);
        let mut scratch = CountScratch::new();
        for support in 1..=LANE_MAX_SUPPORT as u32 + 1 {
            let s = support as usize;
            let first = s.div_ceil(ONE_LANE_CODES_PER_ROW);
            let (one, four) = match s <= LANE_MAX_SUPPORT {
                true => ("one lane", "four lanes"),
                false => ("scalar", "scalar"),
            };
            for (len, expected) in
                [(first - 1, "scalar"), (first, one), (2 * s - 1, one), (2 * s, four)]
            {
                let mut want = CountState::new(support);
                let kind = match want.lanes(len, &mut Vec::new()) {
                    Lanes::Scalar => "scalar",
                    Lanes::One(_) => "one lane",
                    Lanes::Four(_) => "four lanes",
                };
                assert_eq!(kind, expected, "support {support} len {len}");
                let codes: Vec<Code> = (0..len).map(|_| rng.next_below(s as u64) as Code).collect();
                codes.iter().for_each(|&c| want.add(c));
                let base = Column::new(codes, support).unwrap();
                let list: Vec<u32> = positions(&base, 0..len);
                let run = 0..len as u32;
                for width in widths_holding(support) {
                    let column = base.with_width(width).unwrap();
                    for rows in [
                        Positions::from(&list),
                        Positions { runs: slice::from_ref(&run), list: &[] },
                    ] {
                        let mut got = CountState::new(support);
                        let mut pairs = PairCountState::new();
                        count_candidate(&column, rows, None, &mut got, &mut pairs, &mut scratch);
                        let case = format!("support {support} len {len} {width} {kind}");
                        assert_eq!(got.sorted_entries(), want.sorted_entries(), "{case}");
                        assert_eq!(got.total(), len as u64, "{case}");
                        assert!(scratch.lanes.iter().all(|&n| n == 0), "{case}");
                    }
                }
            }
        }
    }

    /// Runs over heap storage, alone or followed by a list, count what
    /// the list of the same positions counts, target pairs included,
    /// whatever the runs' lengths against the block size and whatever
    /// the columns' widths.
    #[test]
    fn runs_count_like_the_list_of_their_positions() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x2C45);
        let n = 3 * INGEST_BLOCK_ROWS + 500;
        let block = INGEST_BLOCK_ROWS as u32;
        // Long runs, runs past a block, and the short ones a page-prefix
        // sample mostly draws: one row, 96 rows, 1 024 rows.
        let runs = [
            5..9,
            100..block + 300,
            2..3,
            9..10,
            block + 400..block + 496,
            2 * block..2 * block + 1024,
            n as u32 - 40..n as u32,
        ];
        let list: Vec<u32> = runs.iter().flat_map(Clone::clone).collect();
        for (support, width) in [(16, Width::U8), (16, Width::U16), (1000, Width::U16)]
            .into_iter()
            .chain([(16, Width::U32), (1000, Width::U32)])
        {
            let [tcodes_all, codes, _] = streams(support, n, &mut rng);
            let target = Column::new(tcodes_all, support).unwrap().with_width(width).unwrap();
            let column = Column::new(codes, support).unwrap().with_width(width).unwrap();
            let count = |rows: Positions<'_>| {
                let (mut tcounts, mut tbuf) = (CountState::new(support), TargetBuf::new());
                count_target(&target, rows, &mut tcounts, &mut tbuf);
                let (mut out, mut pairs) = (CountState::new(support), PairCountState::new());
                let mut scratch = CountScratch::new();
                let t = Some(tbuf.target());
                count_candidate(&column, rows, t, &mut out, &mut pairs, &mut scratch);
                let codes = tbuf.codes().to_vec();
                let pairs = pairs.canonical_runs().to_vec();
                (codes, tcounts.sorted_entries(), out.sorted_entries(), pairs)
            };
            let want = count(Positions::from(&list));
            let case = format!("support {support} {width}");
            assert_eq!(count(Positions { runs: &runs, list: &[] }), want, "{case}");
            // A delta of both, as a sample drawing whole and member pages
            // hands over: its runs, then its list.
            let tail: Vec<u32> = runs[2..].iter().flat_map(Clone::clone).collect();
            assert_eq!(count(Positions { runs: &runs[..2], list: &tail }), want, "{case}");
        }
    }

    #[test]
    fn joint_only_count_fills_the_pairs_a_full_count_fills() {
        // Runs and a list, dense shapes and the run path, short and long
        // deltas: the joint is the same with or without the marginal.
        let mut rng = Xoshiro256pp::seed_from_u64(0x7015);
        for (u_t, u_a) in PAIR_SHAPES {
            let n = 2 * INGEST_BLOCK_ROWS + 77;
            let [tcodes, _, _] = streams(u_t, n, &mut rng);
            let [codes, _, _] = streams(u_a, n, &mut rng);
            let target = Column::new(tcodes, u_t).unwrap();
            let column = Column::new(codes, u_a).unwrap();
            for len in [0, 3, 500, n - 1000] {
                let run = 0..len as u32 / 2;
                let list: Vec<u32> = (n as u32 - len as u32 / 2..n as u32).collect();
                let rows = Positions { runs: slice::from_ref(&run), list: &list };
                let mut tbuf = TargetBuf::new();
                gather_target(&target, rows, &mut tbuf);
                let mut scratch = CountScratch::new();
                let (mut out, mut want) = (CountState::new(u_a), PairCountState::new());
                count_candidate(
                    &column,
                    rows,
                    Some(tbuf.target()),
                    &mut out,
                    &mut want,
                    &mut scratch,
                );
                let mut got = PairCountState::new();
                count_joint(&column, rows, tbuf.target(), &mut got, &mut scratch);
                let case = format!("{u_t}x{u_a} len {len}");
                assert_eq!(got.canonical_runs(), want.canonical_runs(), "{case}");
                assert!(scratch.dense.iter().all(|&n| n == 0), "{case}");
            }
        }
    }

    #[test]
    fn joint_kernel_refuses_a_candidate_code_past_its_support() {
        // What the marginal kernel's table bounds caught before a count
        // could skip it: code 5 of a support of 5 would alias cell
        // (t + 1, 0) of the dense table. Both paths panic instead.
        let (tcodes, codes) = ([0, 1, 0, 1], [4u8, 0, 5, 1]);
        let (u_t, u_a) = (2, 5);
        for dense in [true, false] {
            let counted = std::panic::catch_unwind(|| {
                let mut table = vec![0u32; DENSE_LANES * u_t * u_a];
                let mut pairs = PairCountState::new();
                pairs.add_block(&tcodes, &codes, dense.then_some(&mut table[..]), u_a);
            });
            let message = counted.expect_err("a code past its support was counted");
            let message = message.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("candidate code 5 is not below its support 5"), "{message}");
        }
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
