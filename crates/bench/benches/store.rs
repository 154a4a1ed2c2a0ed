//! Storage-layer microbenchmarks: gather+ingest throughput of the
//! width-generic path at each physical code width.
//!
//! The same logical column (support 200, so its codes fit all three
//! widths) is repacked at u8/u16/u32 and pushed through
//! `count_candidate` into a reused delta, drained by
//! `CountState::apply_to`: what every count source runs per candidate.
//! Narrow widths move fewer bytes per gathered block, so the
//! cache-hostile gather should get cheaper as the packing shrinks —
//! this bench checks that and records the memory footprint alongside.
//!
//! Two more groups measure the count kernels of `swope_core::count`
//! against the per-element loops they replaced, over rows in storage
//! order so the gather is a sequential copy and the *count* is what is
//! timed: `count_lanes_over_scalar` (marginal kernel's lane tables vs
//! `CountState::add`, a Zipf(1.2) u8 column, the median of alternating
//! rounds) and `pair_dense_over_runs` (joint kernel's dense table vs a
//! `(key, 1)` run per row plus the sort, 16 × 16 pairs). Both are ratios of two loops on the same machine in
//! the same process, so CI gates them (≤ 0.6 and ≤ 0.35).
//!
//! `count_runs_in_place_over_staged` measures what counting heap runs in
//! place saves: `count_candidate` over the short runs a page-prefix
//! sample hands over (96–1 024 rows, supports 16 to 1 000, `u8` and
//! `u16` columns) against the staged loop it replaced, rebuilt here —
//! every run copied into the block buffer a block at a time, then
//! counted by the same kernels. The two alternate for a fixed number of
//! rounds and the fastest of each is kept; CI gates their ratio at
//! ≤ 1.0 (reading in place must never lose to copying first).
//!
//! Medians (fastest rounds for the runs) are persisted to
//! `results/BENCH_store.json` so the numbers backing the DESIGN.md
//! storage-layer notes are checked in and reproducible. The CI smoke step runs it with `SWOPE_MICRO_MS=1`;
//! absolute numbers come from a default run.

use std::ops::Range;
use std::time::Instant;
use swope_bench::micro::{black_box, Group};

use swope_columnar::{
    for_buf, CodeBuf, CodeRepr, CodeVisitor, Column, Dataset, Field, Positions, Schema, Width,
};
use swope_core::count::INGEST_BLOCK_ROWS;
use swope_core::{
    count_candidate, count_target, CountScratch, CountState, PairCountState, TargetBuf,
};
use swope_datagen::Distribution;
use swope_estimate::entropy::EntropyCounter;
use swope_obs::json::ObjectWriter;
use swope_sampling::rng::Xoshiro256pp;

/// Rows per simulated iteration delta (same as the exec bench): 1M
/// gathered codes, comfortably past L2 at every width.
const DELTA_ROWS: usize = 1 << 20;

/// Support of the benched column: fits u8, so the identical logical
/// data can be packed at all three widths.
const SUPPORT: u32 = 200;

/// A sampler-like row permutation: multiplying by an odd constant is a
/// bijection modulo a power of two, so every row index appears exactly
/// once but in cache-hostile order.
fn shuffled_rows(n: usize) -> Vec<u32> {
    debug_assert!(n.is_power_of_two());
    (0..n).map(|i| (i.wrapping_mul(0x9E37_79B1) & (n - 1)) as u32).collect()
}

fn dataset(width: Width) -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(0x5170);
    let codes: Vec<u32> = (0..DELTA_ROWS).map(|_| r.next_below(SUPPORT as u64) as u32).collect();
    let column =
        Column::new(codes, SUPPORT).unwrap().with_width(width).expect("support fits every width");
    Dataset::new(Schema::new(vec![Field::new("a0", SUPPORT)]), vec![column]).unwrap()
}

/// Gather+ingest one full delta through the width-generic staged path.
fn bench_width(g: &mut Group, width: Width) -> (f64, usize) {
    let ds = dataset(width);
    let rows = shuffled_rows(DELTA_ROWS);
    let column = ds.column(0);
    let bytes = column.bytes_in_memory();
    let (mut delta, mut pairs) = (CountState::new(SUPPORT), PairCountState::new());
    let mut scratch = CountScratch::new();
    let ns = g.bench_with_setup(
        &format!("staged_ingest_{}_1m_rows", width.name()),
        || EntropyCounter::new(SUPPORT),
        |mut counter| {
            count_candidate(column, &rows, None, &mut delta, &mut pairs, &mut scratch);
            delta.apply_to(&mut counter);
            black_box(counter.total())
        },
    );
    (ns, bytes)
}

/// Rows per delta of the pair comparison: 2¹⁷, so the run list the
/// reference sorts (2 MiB) is past L2 as a real MI delta's is.
const PAIR_DELTA_ROWS: usize = 1 << 17;

/// Support of both columns of the pair comparison (`mi_heap`'s shape).
const PAIR_SUPPORT: u32 = 16;

fn zipf_column(support: u32, rows: usize, seed: u64) -> Column {
    let mut r = Xoshiro256pp::seed_from_u64(seed);
    let zipf = Distribution::Zipf { u: support, s: 1.2 }.sampler();
    Column::new((0..rows).map(|_| zipf.sample(&mut r)).collect(), support).unwrap()
}

/// The per-element loops the kernels replaced, kept here as the
/// reference both ratios divide by: the same block-staged gather, then
/// one `CountState::add` (and one `PairCountState::add`) per code.
fn count_per_element(
    column: &Column,
    rows: &[u32],
    tcodes: Option<&[u32]>,
    out: &mut CountState,
    pairs: &mut PairCountState,
    buf: &mut CodeBuf,
) {
    for (i, block) in rows.chunks(INGEST_BLOCK_ROWS).enumerate() {
        column.gather(block, buf);
        for_buf!(&*buf, |buf| {
            match tcodes {
                Some(tcodes) => {
                    for (&c, &tc) in buf.iter().zip(&tcodes[i * INGEST_BLOCK_ROWS..]) {
                        out.add(c.widen());
                        pairs.add(tc, c.widen());
                    }
                }
                None => buf.iter().for_each(|&c| out.add(c.widen())),
            }
        });
    }
}

/// Marginal count of one Zipf(1.2) u8 delta, lane kernel vs scalar: the
/// median of [`RUN_ROUNDS`] alternating rounds of each, in ns. Not the
/// fastest, as the run comparison takes: the scalar loop's fastest round
/// is rare (1.0 ms against a 1.7–3.5 ms median), so a ratio of fastest
/// rounds read 0.45–0.66 over ten processes on one unpinned host, two of
/// them past CI's 0.6. Medians of alternating rounds read 0.29–0.56 over
/// fifteen, and medians of separate batches 0.28–0.56: the spread is the
/// scalar loop's from process to process, which no estimator removes.
fn bench_lanes() -> (f64, f64) {
    let column = zipf_column(SUPPORT, DELTA_ROWS, 0x21FF);
    let rows: Vec<u32> = (0..DELTA_ROWS as u32).collect();
    let (mut out, mut pairs) = (CountState::new(SUPPORT), PairCountState::new());
    let (mut buf, mut scratch) = (CodeBuf::new(), CountScratch::new());
    let (mut scalar, mut lanes) = (Vec::new(), Vec::new());
    for _ in 0..RUN_ROUNDS {
        let started = Instant::now();
        count_per_element(&column, &rows, None, &mut out, &mut pairs, &mut buf);
        scalar.push(started.elapsed().as_nanos() as f64);
        black_box(out.total());
        out.clear();
        let started = Instant::now();
        count_candidate(&column, &rows, None, &mut out, &mut pairs, &mut scratch);
        lanes.push(started.elapsed().as_nanos() as f64);
        black_box(out.total());
        out.clear();
    }
    let (scalar, lanes) = (median(scalar), median(lanes));
    println!(
        "store_count/lanes_zipf_u8_1m_rows  scalar {:.1} µs  lanes {:.1} µs  (median of {RUN_ROUNDS})",
        scalar / 1e3,
        lanes / 1e3
    );
    (scalar, lanes)
}

/// The middle of `times`.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Joint count of one 16 × 16 delta, canonical runs included: dense
/// table vs a run per row and the sort.
fn bench_pairs(g: &mut Group) -> (f64, f64) {
    let column = zipf_column(PAIR_SUPPORT, PAIR_DELTA_ROWS, 0xA11);
    let target_column = zipf_column(PAIR_SUPPORT, PAIR_DELTA_ROWS, 0x7A6);
    let rows: Vec<u32> = (0..PAIR_DELTA_ROWS as u32).collect();
    let mut target = TargetBuf::new();
    count_target(&target_column, &rows, &mut CountState::new(PAIR_SUPPORT), &mut target);
    let (mut out, mut pairs) = (CountState::new(PAIR_SUPPORT), PairCountState::new());
    let mut buf = CodeBuf::new();
    let runs = g.bench("pairs_runs_16x16_128k_rows", || {
        count_per_element(&column, &rows, Some(target.codes()), &mut out, &mut pairs, &mut buf);
        let distinct = pairs.canonical_runs().len();
        out.clear();
        pairs.clear();
        black_box(distinct)
    });
    let mut scratch = CountScratch::new();
    let dense = g.bench("pairs_dense_16x16_128k_rows", || {
        count_candidate(&column, &rows, Some(target.target()), &mut out, &mut pairs, &mut scratch);
        let distinct = pairs.canonical_runs().len();
        out.clear();
        pairs.clear();
        black_box(distinct)
    });
    (runs, dense)
}

/// Rows of each column the run comparison reads runs from.
const RUN_COLUMN_ROWS: usize = 1 << 20;

/// The runs of one delta: 256 disjoint runs of 96–1 024 rows, one every
/// 4 096 rows, as a page-prefix sample's short runs lie.
fn short_runs() -> Vec<Range<u32>> {
    let mut r = Xoshiro256pp::seed_from_u64(0x52E5);
    (0..256u32)
        .map(|i| {
            let start = i * 4096 + r.next_below(2048) as u32;
            start..start + 96 + r.next_below(1024 - 96 + 1) as u32
        })
        .collect()
}

/// The loop that counted runs before they were read in place: each run
/// staged into the block buffer a block at a time (a slice copy), then
/// counted. The copy is rebuilt here; the kernels after it are the ones
/// `count_candidate` runs.
fn count_staged(
    column: &Column,
    runs: &[Range<u32>],
    out: &mut CountState,
    pairs: &mut PairCountState,
    buf: &mut CodeBuf,
    scratch: &mut CountScratch,
) {
    for run in runs {
        for start in (run.start..run.end).step_by(INGEST_BLOCK_ROWS) {
            let block = start..(start + INGEST_BLOCK_ROWS as u32).min(run.end);
            column.read(std::iter::once(block), &mut CodeBuf::new(), &mut Stage(buf));
        }
    }
    count_candidate(column, Positions { runs, list: &[] }, None, out, pairs, scratch);
}

/// A read that copies each slice into a block buffer.
struct Stage<'a>(&'a mut CodeBuf);

impl CodeVisitor for Stage<'_> {
    fn codes<R: CodeRepr>(&mut self, codes: &[R]) {
        let buf = R::buf(self.0);
        buf.clear();
        buf.extend_from_slice(codes);
        black_box(buf.as_slice());
    }
}

/// Rounds of the run and lane comparisons. Each round counts the delta
/// once each way, alternating; the runs keep the fastest round of each,
/// the lanes the median. A fixed count, not governed by `SWOPE_MICRO_MS`,
/// so the CI smoke measures what a default run does (≈ 30 ms for the
/// runs, ≈ 0.1 s for the lanes).
const RUN_ROUNDS: usize = 31;

/// Marginal counts of one delta of short runs, staged vs in place, summed
/// over the `(support, width)` cases: the fastest round of each, in ns.
fn bench_runs() -> (f64, f64) {
    let runs = short_runs();
    let cases = [(16, Width::U8), (16, Width::U16), (200, Width::U8), (1000, Width::U16)];
    let columns = cases.map(|(support, width)| {
        zipf_column(support, RUN_COLUMN_ROWS, 0x0D0E).with_width(width).unwrap()
    });
    let mut outs: Vec<CountState> = columns.iter().map(|c| CountState::new(c.support())).collect();
    let (mut pairs, mut buf, mut scratch) =
        (PairCountState::new(), CodeBuf::new(), CountScratch::new());
    let (mut staged, mut in_place) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUN_ROUNDS {
        let (mut round_staged, mut round_in_place) = (0.0, 0.0);
        for (column, out) in columns.iter().zip(&mut outs) {
            let started = Instant::now();
            count_staged(column, &runs, out, &mut pairs, &mut buf, &mut scratch);
            round_staged += started.elapsed().as_nanos() as f64;
            black_box(out.total());
            out.clear();
            let started = Instant::now();
            let rows = Positions { runs: &runs, list: &[] };
            count_candidate(column, rows, None, out, &mut pairs, &mut scratch);
            round_in_place += started.elapsed().as_nanos() as f64;
            black_box(out.total());
            out.clear();
        }
        staged = staged.min(round_staged);
        in_place = in_place.min(round_in_place);
    }
    let rows: usize = runs.iter().map(|r| r.len()).sum();
    println!(
        "store_count/runs_{}_in_{}_cases  staged {:.1} µs  in place {:.1} µs  (fastest of {RUN_ROUNDS})",
        rows,
        cases.len(),
        staged / 1e3,
        in_place / 1e3
    );
    (in_place, staged)
}

fn main() {
    let mut g = Group::new("store_ingest");
    let (u8_ns, u8_bytes) = bench_width(&mut g, Width::U8);
    let (u16_ns, u16_bytes) = bench_width(&mut g, Width::U16);
    let (u32_ns, u32_bytes) = bench_width(&mut g, Width::U32);

    let mut g = Group::new("store_count");
    let (scalar_ns, lanes_ns) = bench_lanes();
    let (runs_ns, dense_ns) = bench_pairs(&mut g);
    let (in_place_ns, staged_ns) = bench_runs();

    let mut w = ObjectWriter::new();
    w.str_field("bench", "store")
        .usize_field("delta_rows", DELTA_ROWS)
        .usize_field("support", SUPPORT as usize)
        .f64_field("ingest_u8_ns", u8_ns)
        .f64_field("ingest_u16_ns", u16_ns)
        .f64_field("ingest_u32_ns", u32_ns)
        .f64_field("ingest_u32_over_u8", u32_ns / u8_ns)
        .usize_field("column_bytes_u8", u8_bytes)
        .usize_field("column_bytes_u16", u16_bytes)
        .usize_field("column_bytes_u32", u32_bytes)
        .f64_field("count_scalar_ns", scalar_ns)
        .f64_field("count_lanes_ns", lanes_ns)
        .f64_field("count_lanes_over_scalar", lanes_ns / scalar_ns)
        .usize_field("pair_delta_rows", PAIR_DELTA_ROWS)
        .f64_field("pair_runs_ns", runs_ns)
        .f64_field("pair_dense_ns", dense_ns)
        .f64_field("pair_dense_over_runs", dense_ns / runs_ns)
        .f64_field("runs_staged_ns", staged_ns)
        .f64_field("runs_in_place_ns", in_place_ns)
        .f64_field("count_runs_in_place_over_staged", in_place_ns / staged_ns);
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_store.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_store.json");
    println!("\nwrote {out}");
    println!("{json}");
}
