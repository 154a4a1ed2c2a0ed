//! Range-scope benchmark: a range reads its rows as a full scope does.
//!
//! Every range is one page-prefix sample of its rows (`swope_core::scope`,
//! "How a scope is sampled"): its whole pages are read as runs, like a
//! full scope's, and its two fringe pages slot by slot; a sketch changes
//! nothing about it. For ranges of 5 / 10 / 25 / 50 / 95 % of the rows
//! this bench times the same eight seeded top-k and filter queries at
//! eight positions against the same queries over the whole dataset, on
//! hot heap data and — at 25 / 95 % — on the mapped snapshot under a 25 %
//! page budget, and checks that each cell answers alike with the sketch
//! on offer and without it.
//!
//! `results/BENCH_scope.json` holds, per cell, the range's microseconds a
//! query and `over_full`, its time over the full scope's; and
//! `range95_over_full`, the heap 95 % cell's, which the CI scope-smoke
//! step gates at ≤ 1.3: a range must read like a full scope.
//!
//! It also times a `swope split` half on its own: the rows past a cut
//! inside a page, as the slice `Dataset::take_rows` cuts (its table's
//! layout, where it draws its samples) and as the same rows loaded on
//! their own, on the heap and paged. The two draw other samples of the
//! same rows, so their answers may differ; their times should not.
//! `slices` holds each residency's `slice_over_own`, which the CI
//! scope-smoke step gates at ≤ 1.5: a half must read like its rows.

use std::sync::Arc;
use std::time::Instant;

use swope_bench::micro::black_box;
use swope_columnar::{snapshot, stats, Column, Dataset, DatasetSketch, PageCache, Residency};
use swope_core::{run, Answer, Executor, NoopObserver, Rule, Scope, Shape, SwopeConfig};
use swope_obs::json::ObjectWriter;

/// Sixteen pages less a ragged tail, like the end-to-end `wide` dataset.
const ROWS: usize = 1_000_000;
const COLS: usize = 32;
const SEED: u64 = 0x5170;

/// Queries per cell: top-k and filter alternate, each at its own seed
/// and its own position in the dataset.
const QUERIES: usize = 8;

/// The first row of the split half: inside page 7, as `swope split`
/// cuts anywhere.
const SLICE_AT: usize = 7 * 65_536 + 12_345;

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

/// Every query of a cell against `ds`, offered `sketch`.
fn run_all(ds: &Dataset, sketch: Option<&DatasetSketch>, cell: &Queries) -> Vec<Answer> {
    let exec = Executor::sequential();
    let answer = |(shape, scope, cfg): &(Shape, Scope, SwopeConfig)| {
        black_box(run(ds, shape, scope, sketch, cfg, &mut NoopObserver, &exec).unwrap())
    };
    cell.iter().map(answer).collect()
}

/// Alternating rounds per measurement. Each side's time is its fastest
/// round: on a shared host only the minimum of interleaved runs reads two
/// sides that do the same work as equal.
const ROUNDS: usize = 7;

/// Two sides' queries, each over its dataset, timed in alternating
/// rounds: each side's fastest round, in nanoseconds a query.
fn fastest(sides: [(&Dataset, &Queries); 2]) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for ((ds, queries), best) in sides.into_iter().zip(&mut best) {
            let started = Instant::now();
            run_all(ds, None, queries);
            *best = best.min(started.elapsed().as_nanos() as f64 / QUERIES as f64);
        }
    }
    best
}

/// `cell`'s queries over the whole dataset.
fn unscoped(cell: &Queries) -> Queries {
    cell.iter().map(|(shape, _, cfg)| (*shape, Scope::all(), cfg.clone())).collect()
}

/// One cell as a JSON object, and its `over_full`.
fn cell(residency: &str, pct: usize, ds: &Dataset, sketch: &DatasetSketch) -> (String, f64) {
    let range = queries(pct);
    assert!(run_all(ds, Some(sketch), &range) == run_all(ds, None, &range), "a sketch moved");
    let full = unscoped(&range);
    run_all(ds, None, &full);
    let [range_ns, full_ns] = fastest([(ds, &range), (ds, &full)]);
    println!(
        "scope/{residency}_{pct}pct  range {:>9.1} us  full {:>9.1} us  ratio {:.3}",
        range_ns / 1e3,
        full_ns / 1e3,
        range_ns / full_ns
    );
    let mut w = ObjectWriter::new();
    w.str_field("residency", residency)
        .usize_field("range_pct", pct)
        .f64_field("us_per_query", range_ns / 1e3)
        .f64_field("over_full", range_ns / full_ns);
    (w.finish(), range_ns / full_ns)
}

/// The split half past [`SLICE_AT`]: the slice `take_rows` cuts, and
/// the same rows as a dataset of their own.
fn halves(ds: &Dataset) -> [Dataset; 2] {
    let slice = ds.take_rows(&(SLICE_AT..ds.num_rows()).collect::<Vec<_>>());
    let columns = (0..slice.num_attrs())
        .map(|a| Column::new(slice.column(a).to_codes(), slice.support(a)).expect("valid codes"))
        .collect();
    let own = Dataset::new(slice.schema().clone(), columns).expect("the slice's schema");
    [slice, own]
}

/// The half's unscoped queries timed on `slice` and on `own`, as a JSON
/// object.
fn slice_cell(residency: &str, slice: &Dataset, own: &Dataset) -> String {
    let full = unscoped(&queries(5));
    let [slice_ns, own_ns] = fastest([(slice, &full), (own, &full)]);
    println!(
        "scope/{residency}_half  slice {:>9.1} us  own {:>9.1} us  ratio {:.3}",
        slice_ns / 1e3,
        own_ns / 1e3,
        slice_ns / own_ns
    );
    let mut w = ObjectWriter::new();
    w.str_field("residency", residency)
        .f64_field("us_per_query", slice_ns / 1e3)
        .f64_field("slice_over_own", slice_ns / own_ns);
    w.finish()
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
    let mut range95_over_full = 0.0;
    for pct in [5, 10, 25, 50, 95] {
        let (cell, over_full) = cell("heap", pct, &ds, &sketch);
        cells.push(cell);
        if pct == 95 {
            range95_over_full = over_full;
        }
    }
    for pct in [25, 95] {
        cells.push(cell("budget", pct, &paged, &sketch).0);
    }
    std::fs::remove_file(&path).ok();

    let [slice, own] = halves(&ds);
    let mut slices = vec![slice_cell("heap", &slice, &own)];
    let unbounded = Arc::new(PageCache::new(None));
    let [slice, own] = [("slice", &slice), ("own", &own)].map(|(name, half)| {
        let path = path.with_extension(format!("{name}.swop"));
        snapshot::write_file(half, &path).expect("writing bench snapshot");
        let opened = snapshot::open(&path, Residency::Paged(&unbounded)).expect("bench snapshot");
        std::fs::remove_file(&path).ok();
        opened.0
    });
    slices.push(slice_cell("paged", &slice, &own));

    let mut w = ObjectWriter::new();
    w.str_field("bench", "scope")
        .usize_field("rows", ROWS)
        .usize_field("columns", COLS)
        .u64_field("budget_bytes", budget)
        .f64_field("range95_over_full", range95_over_full)
        .raw_field("ranges", &format!("[{}]", cells.join(",")))
        .raw_field("slices", &format!("[{}]", slices.join(",")));
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_scope.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_scope.json");
    println!("\nwrote {out}");
    println!("{json}");
}
