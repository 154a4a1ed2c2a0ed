//! Execution-layer microbenchmarks: persistent-pool dispatch overhead vs
//! the sequential loop, and one gather-staged count of a cache-hostile
//! delta, drained into a counter, as every count source runs it per
//! candidate.
//!
//! Besides the usual console report, this bench persists its medians to
//! `results/BENCH_ingest.json` so the numbers backing the DESIGN.md
//! execution-layer notes are checked in and reproducible. The CI smoke
//! step runs it with `SWOPE_MICRO_MS=1` and only asserts the JSON
//! parses; real numbers come from a default (200 ms) run.

use std::sync::Arc;

use swope_bench::micro::{black_box, Group};
use swope_core::count::INGEST_BLOCK_ROWS;
use swope_core::{count_candidate, CountScratch, CountState, ExecPool, Executor, PairCountState};
use swope_datagen::{corpus, generate};
use swope_estimate::entropy::EntropyCounter;
use swope_obs::json::ObjectWriter;

/// Items per fan-out: roughly the candidate count of a mid-flight query.
const DISPATCH_ITEMS: usize = 64;

/// Rows per simulated iteration delta for the ingest comparison: 4 MiB
/// of gathered codes, comfortably past L2 so the gather is genuinely
/// cache-hostile.
const DELTA_ROWS: usize = 1 << 20;

/// A sampler-like row permutation: multiplying by an odd constant is a
/// bijection modulo a power of two, so every row index appears exactly
/// once but in cache-hostile order — the access pattern staging exists
/// to absorb.
fn shuffled_rows(n: usize) -> Vec<u32> {
    debug_assert!(n.is_power_of_two());
    (0..n).map(|i| (i.wrapping_mul(0x9E37_79B1) & (n - 1)) as u32).collect()
}

fn bench_dispatch(g: &mut Group) -> (f64, f64) {
    let mut items = vec![0u64; DISPATCH_ITEMS];
    let work = |x: &mut u64| {
        // A few hundred ns of per-item work: enough that the fan-out is
        // not pure overhead, small enough that dispatch cost dominates.
        for _ in 0..64 {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
    };

    let sequential = g.bench("sequential_64_items", || {
        items.iter_mut().for_each(work);
        black_box(items[0])
    });
    let pool = Executor::pooled(Arc::new(ExecPool::new(2)));
    let pooled = g.bench("pool_dispatch_64_items", || {
        pool.for_each_mut(&mut items, work);
        black_box(items[0])
    });
    (sequential, pooled)
}

fn bench_ingest(g: &mut Group) -> f64 {
    let ds = generate(&corpus::tiny(DELTA_ROWS, 2), 0x5170);
    let rows = shuffled_rows(DELTA_ROWS);
    let column = ds.column(0);

    // Fresh counter per timed call: `xlog2` costs depend on accumulated
    // counts. The delta and the scratch are reused, as a source reuses
    // them from doubling to doubling.
    let (mut delta, mut pairs) = (CountState::new(column.support()), PairCountState::new());
    let mut scratch = CountScratch::new();
    g.bench_with_setup(
        "staged_ingest_1m_rows",
        || EntropyCounter::new(column.support()),
        |mut counter| {
            count_candidate(column, &rows, None, &mut delta, &mut pairs, &mut scratch);
            delta.apply_to(&mut counter);
            black_box(counter.total())
        },
    )
}

fn main() {
    let mut g = Group::new("exec_dispatch");
    let (sequential_ns, pool_ns) = bench_dispatch(&mut g);

    let mut g = Group::new("exec_ingest");
    let staged_ns = bench_ingest(&mut g);

    let mut w = ObjectWriter::new();
    w.str_field("bench", "exec")
        .usize_field("dispatch_items", DISPATCH_ITEMS)
        .f64_field("dispatch_sequential_ns", sequential_ns)
        .f64_field("dispatch_pool_ns", pool_ns)
        .usize_field("ingest_delta_rows", DELTA_ROWS)
        .usize_field("ingest_block_rows", INGEST_BLOCK_ROWS)
        .f64_field("ingest_staged_ns", staged_ns);
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_ingest.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_ingest.json");
    println!("\nwrote {out}");
    println!("{json}");
}
