//! Scoped-query benchmark: where the partition sketch pays for a range
//! scope, and that the path a range is given never loses to its rows.
//!
//! A range with enough of its rows in whole pages synthesises those
//! pages from per-page histograms and reads only its fringe; any other
//! range reads its pages, sketch or no sketch (`swope_core::scope`, "How
//! a scope is sampled"). Synthesis costs about the same whatever the
//! range's length, while reading grows with it, so there is a crossover,
//! and the rule is meant to sit on it. This bench measures the
//! crossover: for ranges of 5 / 10 / 25 / 50 / 95 % of the rows it times
//! the same eight seeded top-k and filter queries at eight positions with
//! the sketch on offer (the *chosen* path) and with `sketch = None`
//! (read), on hot heap data and — at 25 / 95 % — on the mapped snapshot
//! under a 25 % page budget, where what the sketch saves is page-ins.
//!
//! `results/BENCH_scope.json` holds `chosen_over_physical` per cell, with
//! the share of its queries that ran hybrid; `range95_over_full`, the
//! sketch-free 95 % heap range's time over the same queries' over the
//! whole dataset, which reads whole pages the same way; and
//! `scan_reduction` (a hybrid range against the unscoped query, in
//! `rows_scanned`). The CI scope-smoke step gates the machine-independent
//! ratios: chosen ≤ 1.1 at 5–10 % (it *is* the read path there, so a
//! later read speed-up cannot fail it), ≤ 0.6 and ≤ 0.2 at 25 and 95 %
//! under the budget, and `range95_over_full` ≤ 1.3: a range must read
//! like a full scope.

use std::sync::Arc;
use std::time::Instant;

use swope_bench::micro::black_box;
use swope_columnar::{snapshot, stats, Dataset, DatasetSketch, PageCache, Residency, PAGE_ROWS};
use swope_core::{
    entropy_top_k, run, Executor, NoopObserver, QueryObserver, Rule, Scope, Shape, SwopeConfig,
};
use swope_obs::json::ObjectWriter;
use swope_obs::QueryMeta;

/// Sixteen pages less a ragged tail, like the end-to-end `wide` dataset.
const ROWS: usize = 1_000_000;
const COLS: usize = 32;
const SEED: u64 = 0x5170;

/// Queries per cell: top-k and filter alternate, each at its own seed
/// and its own position in the dataset.
const QUERIES: usize = 8;

/// Seeded queries, each over its own scope.
type Queries = Vec<(Shape, Scope, SwopeConfig)>;

/// The cell's queries over ranges of `pct` % of the rows, placed evenly
/// from the leftmost to the rightmost spot such a range fits.
fn queries(pct: usize) -> Queries {
    let len = ROWS * pct / 100;
    (0..QUERIES)
        .map(|i| {
            let start = (ROWS - len) * i / (QUERIES - 1);
            let shape = if i % 2 == 0 {
                Shape::entropy(Rule::TopK { k: 1 + i * 4 / 3 })
            } else {
                Shape::entropy(Rule::Filter { eta: 1.5 + i as f64 * 0.6 })
            };
            let cfg = SwopeConfig::with_epsilon(0.1).with_seed(SEED + i as u64);
            (shape, Scope::range(start, start + len), cfg)
        })
        .collect()
}

/// Runs every query of a cell against `ds`, observed by `obs`.
fn run_all(
    ds: &Dataset,
    sketch: Option<&DatasetSketch>,
    cell: &[(Shape, Scope, SwopeConfig)],
    obs: &mut impl QueryObserver,
) {
    let exec = Executor::sequential();
    for (shape, scope, cfg) in cell {
        black_box(run(ds, shape, scope, sketch, cfg, obs, &exec).unwrap());
    }
}

/// The queries whose plan gave their range the hybrid sampler.
struct HybridPlans(usize);

impl QueryObserver for HybridPlans {
    fn query_start(&mut self, meta: &QueryMeta) {
        self.0 += usize::from(meta.plan.path.is_some_and(|path| path.hybrid));
    }
}

/// Alternating rounds per measurement. Each side's time is its fastest
/// round: the two sides run the same code at 5–10 %, and on a shared host
/// only the minimum of interleaved runs reads them as equal.
const ROUNDS: usize = 7;

/// Each side's queries — over `ds`, offered a sketch or not — timed in
/// alternating rounds: the fastest round's nanoseconds a query.
fn fastest<const S: usize>(
    ds: &Dataset,
    sides: [(Option<&DatasetSketch>, &Queries); S],
) -> [f64; S] {
    let mut best = [f64::INFINITY; S];
    for _ in 0..ROUNDS {
        for ((sketch, queries), best) in sides.iter().zip(&mut best) {
            let started = Instant::now();
            run_all(ds, *sketch, queries, &mut NoopObserver);
            *best = best.min(started.elapsed().as_nanos() as f64 / QUERIES as f64);
        }
    }
    best
}

/// One cell of the crossover as a JSON object: the chosen path's wall
/// over the physical path's, and how many of its queries ran hybrid.
fn cell(residency: &str, pct: usize, ds: &Dataset, sketch: &DatasetSketch) -> String {
    let cell = queries(pct);
    let mut plans = HybridPlans(0);
    run_all(ds, Some(sketch), &cell, &mut plans);
    let hybrid = plans.0;
    run_all(ds, None, &cell, &mut NoopObserver);
    let [chosen_ns, physical_ns] = fastest(ds, [(Some(sketch), &cell), (None, &cell)]);
    println!(
        "scope/{residency}_{pct}pct  chosen {:>9.1} us  physical {:>9.1} us  ratio {:.3}  ({hybrid}/{QUERIES} hybrid)",
        chosen_ns / 1e3,
        physical_ns / 1e3,
        chosen_ns / physical_ns
    );
    let mut w = ObjectWriter::new();
    w.str_field("residency", residency)
        .usize_field("range_pct", pct)
        .f64_field("hybrid_share", hybrid as f64 / QUERIES as f64)
        .f64_field("chosen_over_physical", chosen_ns / physical_ns);
    w.finish()
}

/// The sketch-free 95 % heap range's time over the same queries' over
/// the whole dataset.
fn range95_over_full(ds: &Dataset) -> f64 {
    let range = queries(95);
    let full: Queries =
        range.iter().map(|(shape, _, cfg)| (*shape, Scope::all(), cfg.clone())).collect();
    run_all(ds, None, &full, &mut NoopObserver);
    let [range_ns, full_ns] = fastest(ds, [(None, &range), (None, &full)]);
    println!(
        "scope/heap_95pct_read  {:>9.1} us  full {:>9.1} us  ratio {:.3}",
        range_ns / 1e3,
        full_ns / 1e3,
        range_ns / full_ns
    );
    range_ns / full_ns
}

fn main() {
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, COLS), SEED);
    let path = std::env::temp_dir().join(format!("swope-bench-scope-{}.swop", std::process::id()));
    snapshot::write_file(&ds, &path).expect("writing bench snapshot");
    let budget = stats::bytes_in_memory(&ds) as u64 / 4;
    let cache = Arc::new(PageCache::new(Some(budget)));
    let (paged, sketch) = snapshot::open(&path, Residency::Paged(&cache)).expect("bench snapshot");
    let sketch = sketch.expect("a written snapshot carries its sketch");

    println!("\n== scope ==");
    let mut cells = Vec::new();
    for pct in [5, 10, 25, 50, 95] {
        cells.push(cell("heap", pct, &ds, &sketch));
    }
    let range95_over_full = range95_over_full(&ds);
    for pct in [25, 95] {
        cells.push(cell("budget", pct, &paged, &sketch));
    }
    std::fs::remove_file(&path).ok();

    // What a hybrid range reads: two covered pages plus a 500-row fringe
    // on each side against the unscoped query, in store traffic.
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(SEED);
    let scope = Scope::range(PAGE_ROWS - 500, 3 * PAGE_ROWS + 500);
    let shape = Shape::entropy(Rule::TopK { k: 4 });
    let exec = Executor::sequential();
    let full = entropy_top_k(&ds, 4, &cfg).unwrap();
    let scoped = run(&ds, &shape, &scope, Some(&sketch), &cfg, &mut NoopObserver, &exec).unwrap();

    let mut w = ObjectWriter::new();
    w.str_field("bench", "scope")
        .usize_field("rows", ROWS)
        .usize_field("columns", COLS)
        .usize_field("sketch_bytes", sketch.encoded_len())
        .u64_field("budget_bytes", budget)
        .u64_field("rows_scanned_full", full.stats.rows_scanned)
        .u64_field("rows_scanned_scoped_sketch", scoped.stats.rows_scanned)
        .f64_field(
            "scan_reduction",
            full.stats.rows_scanned as f64 / scoped.stats.rows_scanned.max(1) as f64,
        )
        .f64_field("range95_over_full", range95_over_full)
        .raw_field("crossover", &format!("[{}]", cells.join(",")));
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_scope.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_scope.json");
    println!("\nwrote {out}");
    println!("{json}");
}
