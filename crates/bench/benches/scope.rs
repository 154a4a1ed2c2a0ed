//! Scoped-query benchmark: what a partition sketch buys a range scope.
//!
//! One multi-page dataset answers the same seeded entropy top-k three
//! ways: unscoped (the baseline every pre-scope caller gets), scoped to
//! a ~25% row range *with* the sketch (covered pages are synthesized
//! from per-page histograms by hypergeometric splits; only the
//! unaligned fringe touches the store), and scoped *without* the sketch
//! (the physical fallback that samples the range directly). Medians and
//! `rows_scanned` for all three are persisted to
//! `results/BENCH_scope.json`, with two machine-independent ratios the
//! CI scope-smoke step gates (it runs this with `SWOPE_MICRO_MS=1`):
//! `scan_reduction` (a ≤25% range must scan ≥4x fewer rows than the
//! full query) and `sketch_over_physical` = `scoped_sketch_ns /
//! scoped_nosketch_ns`.
//!
//! The sketch path wins on both axes here. It avoids the store traffic
//! (`rows_scanned`, the paper's counter cost — what matters most when
//! pages are cold, compressed, or remote), and on this hot in-memory
//! dataset it is also the faster wall clock: a covered draw costs a
//! share of one hypergeometric variate per histogram node (≈ 1–25 ns
//! depending on the column's support) against ≈ 4.5 ns per row and
//! attribute for a heap gather, and the supports here are small.
//! ROADMAP's bar is a ratio ≤ 1 on hot data; until PR 14 it was 7.8
//! (one Fenwick walk per covered draw).

use swope_bench::micro::{black_box, Group};
use swope_columnar::{Column, Dataset, DatasetSketch, Field, Schema, PAGE_ROWS};
use swope_core::{entropy_top_k, run, Answer, Executor, NoopObserver, Scope, Shape, SwopeConfig};
use swope_obs::json::ObjectWriter;
use swope_sampling::rng::Xoshiro256pp;

/// Eight full sketch pages plus a ragged tail.
const ROWS: usize = 8 * PAGE_ROWS + 12_345;

const K: usize = 4;
const SEED: u64 = 0x5C09;

fn dataset() -> Dataset {
    let mut r = Xoshiro256pp::seed_from_u64(SEED);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &support) in [2u32, 8, 40, 200, 16, 100].iter().enumerate() {
        let skew = i % 2 == 0;
        let codes: Vec<u32> = (0..ROWS)
            .map(|_| {
                let c = r.next_below(support as u64) as u32;
                if skew && r.next_below(4) != 0 {
                    0
                } else {
                    c
                }
            })
            .collect();
        fields.push(Field::new(format!("a{i}"), support));
        columns.push(Column::new(codes, support).unwrap());
    }
    Dataset::new(Schema::new(fields), columns).unwrap()
}

fn main() {
    let ds = dataset();
    let sketch =
        DatasetSketch::build(ds.num_rows(), (0..ds.num_attrs()).map(|a| ds.column(a).packed()));
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(SEED);
    // An unaligned ~25% range: two covered pages plus a 500-row fringe
    // on each side — the common case for "rows loaded last week".
    let scope = Scope::range(PAGE_ROWS - 500, 3 * PAGE_ROWS + 500);
    let scope_rows = 2 * PAGE_ROWS + 1000;

    let exec = Executor::sequential();
    let scoped_with = |sketch: Option<&DatasetSketch>| -> Answer {
        let shape = Shape::EntropyTopK { k: K };
        run(&ds, &shape, &scope, sketch, &cfg, &mut NoopObserver, &exec).unwrap()
    };

    let mut g = Group::new("scope");
    let full_ns = g.bench("entropy_topk_full", || black_box(entropy_top_k(&ds, K, &cfg).unwrap()));
    let scoped_ns = g.bench("entropy_topk_scoped_sketch", || black_box(scoped_with(Some(&sketch))));
    let nosketch_ns = g.bench("entropy_topk_scoped_nosketch", || black_box(scoped_with(None)));

    let full = entropy_top_k(&ds, K, &cfg).unwrap();
    let scoped = scoped_with(Some(&sketch));
    let nosketch = scoped_with(None);

    let mut w = ObjectWriter::new();
    w.str_field("bench", "scope")
        .usize_field("rows", ROWS)
        .usize_field("scope_rows", scope_rows)
        .usize_field("sketch_bytes", sketch.encoded_len())
        .f64_field("full_ns", full_ns)
        .f64_field("scoped_sketch_ns", scoped_ns)
        .f64_field("scoped_nosketch_ns", nosketch_ns)
        .u64_field("rows_scanned_full", full.stats.rows_scanned)
        .u64_field("rows_scanned_scoped_sketch", scoped.stats.rows_scanned)
        .u64_field("rows_scanned_scoped_nosketch", nosketch.stats.rows_scanned)
        .f64_field(
            "scan_reduction",
            full.stats.rows_scanned as f64 / scoped.stats.rows_scanned.max(1) as f64,
        )
        .f64_field("sketch_over_physical", scoped_ns / nosketch_ns);
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_scope.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_scope.json");
    println!("\nwrote {out}");
    println!("{json}");
}
