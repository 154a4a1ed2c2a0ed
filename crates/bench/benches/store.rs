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
//! `CountState::add`, a Zipf(1.2) u8 column) and `pair_dense_over_runs`
//! (joint kernel's dense table vs a `(key, 1)` run per row plus the sort,
//! 16 × 16 pairs). Both are ratios of two loops on the same machine in
//! the same process, so CI gates them (≤ 0.6 and ≤ 0.35).
//!
//! Medians are persisted to `results/BENCH_store.json` so the numbers
//! backing the DESIGN.md storage-layer notes are checked in and
//! reproducible. The CI smoke step runs it with `SWOPE_MICRO_MS=1`;
//! absolute numbers come from a default run.

use swope_bench::micro::{black_box, Group};
use swope_columnar::{
    for_packed, gather, CodeBuf, CodeRepr, Column, ColumnStorage, Dataset, Field, Schema, Width,
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
    let ColumnStorage::Heap(packed) = column.storage() else { unreachable!("heap column") };
    for (i, block) in rows.chunks(INGEST_BLOCK_ROWS).enumerate() {
        for_packed!(packed.codes(), |codes| {
            let buf = CodeRepr::buf(buf);
            gather(codes, block, buf);
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

/// Marginal count of one Zipf(1.2) u8 delta: lane kernel vs scalar.
fn bench_lanes(g: &mut Group) -> (f64, f64) {
    let column = zipf_column(SUPPORT, DELTA_ROWS, 0x21FF);
    let rows: Vec<u32> = (0..DELTA_ROWS as u32).collect();
    let (mut out, mut pairs) = (CountState::new(SUPPORT), PairCountState::new());
    let mut buf = CodeBuf::new();
    let scalar = g.bench("count_scalar_zipf_u8_1m_rows", || {
        count_per_element(&column, &rows, None, &mut out, &mut pairs, &mut buf);
        let total = out.total();
        out.clear();
        black_box(total)
    });
    let mut scratch = CountScratch::new();
    let lanes = g.bench("count_lanes_zipf_u8_1m_rows", || {
        count_candidate(&column, &rows, None, &mut out, &mut pairs, &mut scratch);
        let total = out.total();
        out.clear();
        black_box(total)
    });
    (scalar, lanes)
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

fn main() {
    let mut g = Group::new("store_ingest");
    let (u8_ns, u8_bytes) = bench_width(&mut g, Width::U8);
    let (u16_ns, u16_bytes) = bench_width(&mut g, Width::U16);
    let (u32_ns, u32_bytes) = bench_width(&mut g, Width::U32);

    let mut g = Group::new("store_count");
    let (scalar_ns, lanes_ns) = bench_lanes(&mut g);
    let (runs_ns, dense_ns) = bench_pairs(&mut g);

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
        .f64_field("pair_dense_over_runs", dense_ns / runs_ns);
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_store.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_store.json");
    println!("\nwrote {out}");
    println!("{json}");
}
