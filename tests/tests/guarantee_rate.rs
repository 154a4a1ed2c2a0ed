//! The `1 − p_f` guarantee of Definitions 5–6, on every path, as one
//! table: each cell of [`CELLS`] runs its queries over many seeds, judged
//! by [`oracle`], which shares no code with the system, and must stay
//! within the binomial [`envelope`] of its runs. The union bounds are
//! loose, so observed rates sit far below `p_f`; at a quarter of the runs
//! the envelope still catches a sampler that fails one run in three.
//! Each cell is its own `#[test]`, so cells run in parallel and each
//! prints its line of the table.
//!
//! The cost side is checked too: every top-k and filter run must stop by
//! `max(M0, 2·M*)` rows, Lemma 4's `M*` read off the query's [`Plan`]
//! ([`cost`]), within the same envelope, since the bound holds only
//! where every interval does.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

use swope_baselines::{exact::select, exact_entropy_scores, exact_mi_scores};
use swope_cluster::coordinator::{PeerTimeouts, RemoteShardSource as Coordinator};
use swope_cluster::peer::{serve_connection, PeerDataset};
use swope_columnar::{
    snapshot, AttrIndex, Column, Dataset, DatasetSketch, Field, PageCache, Residency, Schema,
    PAGE_ROWS as P,
};
use swope_core::{
    run, run_sharded, Answer, Executor, LocalShardSource, NoopObserver, QueryObserver, Rule, Scope,
    Shape, SwopeConfig,
};
use swope_estimate::bounds::{bias, sample_size_for_width};
use swope_obs::{Plan, QueryMeta};
use swope_sampling::rng::Xoshiro256pp;

/// One row of the table.
struct Cell {
    name: &'static str,
    /// Run `i`'s data: drawn anew per run when `fresh`, else built once.
    data: fn(u64) -> Dataset,
    fresh: bool,
    /// Run `i` queries `scopes[i % scopes.len()]`.
    scopes: &'static [Scope],
    /// The partition sketch is on offer. An unranged MI query must then
    /// read its marginals: its answer differs from the sketchless one.
    sketch: bool,
    /// `None` scores entropy; `Some(t)` mutual information against `t`.
    target: Option<AttrIndex>,
    /// Each run queries every `(rule, ε)`.
    shapes: &'static [(Rule, f64)],
    runs: u64,
    p_f: f64,
    also: &'static [Also],
    /// Lemma 4's `M*` falls below `n` on some run, so the cost check
    /// constrains the cell.
    constrained: bool,
}

/// Another path that must return the cell's answer bytes.
#[derive(Clone, Copy, Debug)]
enum Also {
    /// Three in-process row shards, offered the cell's sketch, on the
    /// full scope (in-process shards take no scope).
    Shards,
    /// A snapshot of the data opened paged under a budget of two pages.
    Paged,
    /// Two loopback peers cut at [`CUT`], on the cell's scope of this
    /// index. Their union has no sketch; a range answers alike without.
    Cluster(usize),
}

/// Runs per cell whose [`Also`] paths are compared; invariance suites cover more.
const CHECKED: u64 = 10;
/// Where the cluster cells split their data: not a page boundary.
const CUT: usize = 2 * P + 1_000;
/// Rows of the page cells and of the range cells: 4 or 3 pages, then a part.
const PAGED_ROWS: usize = 4 * P + 3_000;
const N: usize = 3 * P + 5_000;

const ALL: Scope = Scope { row_start: None, row_end: None, predicate: None };
const fn rows(start: usize, end: usize) -> Scope {
    Scope { row_start: Some(start), row_end: Some(end), predicate: None }
}
/// A page with 20 000 rows either side.
const MID: Scope = rows(P - 20_000, 2 * P + 20_000);

const ENTROPY: &[(Rule, f64)] = &[(Rule::TopK { k: 3 }, 0.15), (Rule::Filter { eta: 3.5 }, 0.1)];
const PAGES: &[Also] = &[Also::Paged, Also::Shards, Also::Cluster(0)];

/// Every cell runs at `p_f = 0.05`; 40 runs keep the envelope at 9.
#[rustfmt::skip]
const CELL: Cell = Cell {
    name: "", data: |_| uniform(N, 0xC0FE), fresh: false, scopes: &[ALL], sketch: true,
    target: None, shapes: ENTROPY, runs: 40, p_f: 0.05, also: &[Also::Paged],
    constrained: true,
};
/// On 4 000 or 20 000 rows `M*` caps at `n`: the cost check holds trivially.
const FRESH: Cell =
    Cell { fresh: true, sketch: false, also: &[Also::Shards], constrained: false, ..CELL };
/// Fresh 4 000-row uniform data per run.
const FULL: Cell = Cell { data: |i| uniform(4_000, i), runs: 120, ..FRESH };
/// A uniform 16-value target and five copies of it through 10–18 %
/// noise: mutual informations of ≈ 2.7–3.2 bits, close together.
const MI: Cell = Cell {
    data: |i| mi_dataset(20_000, 0x3A26 + i),
    target: Some(0),
    shapes: &[(Rule::TopK { k: 2 }, 0.2), (Rule::Filter { eta: 3.0 }, 0.05)],
    ..FRESH
};

#[rustfmt::skip]
const CELLS: &[Cell] = &[
    Cell { name: "full_topk", shapes: &[ENTROPY[0]], ..FULL },
    Cell { name: "full_filter", shapes: &[ENTROPY[1]], ..FULL },
    // EntropyRank and EntropyFilter promise the exact set; ε plays no part.
    Cell { name: "full_exact", shapes: &[(Rule::Rank { k: 3 }, 0.1),
        (Rule::FilterExact { eta: 3.5 }, 0.1)], ..FULL },
    Cell { name: "page_blocks", data: blocks, sketch: false, also: PAGES, ..CELL },
    // And the rows of one value of the sorted column: one page holds them
    // all, or two pages share them, and every other page holds none.
    Cell { name: "sorted", data: sorted, sketch: false, also: PAGES, scopes: &[
        ALL, Scope { predicate: Some((0, 0)), ..ALL }, Scope { predicate: Some((0, 3)), ..ALL },
    ], ..CELL },
    // At least twice as many rows in whole pages as in the fringe: from
    // fringe pages of one row each to half the covered size.
    Cell { name: "covering_ranges", also: &[Also::Paged, Also::Cluster(0), Also::Cluster(3)],
        scopes: &[rows(P - 777, 2 * P + 1_234), rows(P - 60_000, N), rows(P - 5, N),
        rows(P, 3 * P + 4_000), rows(P - 1, 2 * P + 1)], ..CELL },
    // Ranges with more fringe: a whole page between two nearly whole
    // ones, two pages less a row per side, part of one page, and a page
    // with 20 000 rows either side.
    Cell { name: "physical_ranges", also: &[Also::Paged, Also::Cluster(3)],
        scopes: &[rows(300, 3 * P - 1), rows(1, 2 * P - 1), rows(70_000, 110_000), MID], ..CELL },
    // The rows whose two-valued c5 holds 1, everywhere and in two pages.
    Cell { name: "predicates", scopes: &[
        Scope { predicate: Some((5, 1)), ..ALL }, Scope { predicate: Some((5, 1)), ..MID },
    ], ..CELL },
    Cell { name: "mi_sampled", ..MI },
    Cell { name: "mi_marginals", sketch: true, ..MI },
    // Two member pages, and a page of one member beside a whole one.
    Cell { name: "mi_range", data: |_| mi_dataset(P + 20_000, 0x3A26), fresh: false,
        scopes: &[rows(P - 10_000, P + 10_000), rows(P - 1, P + 20_000)],
        also: &[Also::Paged], ..MI },
    // A split half queried on its own, where it stores its rows: on the
    // heap, paged, and through two peers that tile it.
    Cell { name: "half", data: half, also: &[Also::Paged, Also::Cluster(0)],
        scopes: &[ALL, rows(5_000, N - 7_000)], ..CELL },
];

/// Supports whose uniform columns have deliberately close entropies.
const SUPPORTS: [u32; 6] = [16, 15, 14, 13, 12, 2];

/// A dataset of one column per code vector, over `supports`.
fn dataset_of(supports: &[u32], columns: impl IntoIterator<Item = Vec<u32>>) -> Dataset {
    let (fields, columns) = (columns.into_iter().zip(supports).enumerate())
        .map(|(i, (codes, &u))| (Field::new(format!("c{i}"), u), Column::new(codes, u).unwrap()))
        .unzip();
    Dataset::new(Schema::new(fields), columns).unwrap()
}

/// `n` rows of independent uniform columns.
fn uniform(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let column = |u: u32| (0..n).map(|_| rng.next_below(u as u64) as u32).collect();
    dataset_of(&SUPPORTS, SUPPORTS.map(column))
}

/// Each page holds half of each column's codes, by a latent class per
/// page: a sampler reading whole pages failed near 4 runs in 10 here.
fn blocks(_: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(0xB10C);
    let classes: Vec<u32> = (0..PAGED_ROWS.div_ceil(P)).map(|_| rng.next_below(4) as u32).collect();
    let mut code = |u: u32, r: usize| classes[r / P] * u / 4 + rng.next_below(u as u64 / 2) as u32;
    dataset_of(&SUPPORTS, SUPPORTS.map(|u| (0..PAGED_ROWS).map(|r| code(u, r) % u).collect()))
}

/// `N` rows of uniform columns cut from a larger table 40 000 rows into
/// its page 1, as `swope split` cuts a half: a slice whose grid leads
/// with 40 000 slots and whose first and last pages are parts of its
/// table's.
fn half(_: u64) -> Dataset {
    let start = P + 40_000;
    let table = uniform(start + N + 20_000, 0x4A1F);
    table.take_rows(&(start..start + N).collect::<Vec<_>>())
}

/// Uniform columns sorted by the first: a page holds one or two of its values.
fn sorted(_: u64) -> Dataset {
    let ds = uniform(PAGED_ROWS, 0x5027);
    let mut order: Vec<usize> = (0..PAGED_ROWS).collect();
    order.sort_by_key(|&r| ds.column(0).code(r));
    ds.take_rows(&order)
}

fn mi_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let target: Vec<u32> = (0..n).map(|_| rng.next_below(16) as u32).collect();
    let mut columns = vec![target.clone()];
    for noise in [10, 12, 14, 16, 18] {
        let mut copy = |t| if rng.next_below(100) < noise { rng.next_below(16) as u32 } else { t };
        columns.push(target.iter().map(|&t| copy(t)).collect());
    }
    dataset_of(&[16; 6], columns)
}

/// Exact scores over `rows` of `ds`, sharing no code with the system:
/// codes counted in a `BTreeMap`, logarithms from `f64::log2`. Each
/// attribute's entropy, or with a `target` its mutual information with
/// it, `H_t + H_a − H_{t,a}`, and −∞ at the target, no candidate.
fn oracle(ds: &Dataset, rows: &[u32], target: Option<AttrIndex>) -> Vec<f64> {
    let n = rows.len() as f64;
    let entropy = |counts: &mut dyn Iterator<Item = u64>| {
        -counts.map(|c| c as f64 / n * (c as f64 / n).log2()).sum::<f64>()
    };
    let margin = |joint: &BTreeMap<(u32, u32), u64>, side: fn(&(u32, u32)) -> u32| {
        let mut counts = BTreeMap::new();
        joint.iter().for_each(|(key, &c)| *counts.entry(side(key)).or_insert(0) += c);
        entropy(&mut counts.into_values())
    };
    let code = |a: AttrIndex, r: u32| ds.column(a).code(r as usize);
    (0..ds.num_attrs())
        .map(|a| {
            // Each row's (target code, code) pair; target code 0 for entropy.
            let mut joint = BTreeMap::new();
            for &r in rows {
                *joint.entry((target.map_or(0, |t| code(t, r)), code(a, r))).or_insert(0u64) += 1;
            }
            match target {
                None => margin(&joint, |k| k.1),
                Some(t) if t == a => f64::NEG_INFINITY,
                Some(_) => {
                    margin(&joint, |k| k.0) + margin(&joint, |k| k.1)
                        - entropy(&mut joint.into_values())
                }
            }
        })
        .collect()
}

/// The rows of `ds` in `scope`.
fn scoped_rows(ds: &Dataset, scope: &Scope) -> Vec<u32> {
    let matching = |&r: &usize| scope.predicate.map_or(true, |(a, c)| ds.column(a).code(r) == c);
    let range = scope.row_start.unwrap_or(0)..scope.row_end.unwrap_or(ds.num_rows());
    range.filter(matching).map(|r| r as u32).collect()
}

/// Whether `answer` keeps `rule`'s promise at `epsilon` over `exact`:
/// Definition 5 for top-k (both conditions), Definition 6 for a filter,
/// the exact set for EntropyRank and EntropyFilter.
fn holds(rule: Rule, answer: &Answer, exact: &[f64], epsilon: f64) -> bool {
    let mut order: Vec<usize> = (0..exact.len()).collect();
    order.sort_by(|&a, &b| exact[b].total_cmp(&exact[a]));
    let mut attrs: Vec<usize> = answer.scores.iter().map(|s| s.attr).collect();
    attrs.sort_unstable();
    let lo = 1.0 - epsilon;
    match rule {
        Rule::TopK { .. } => answer.scores.iter().zip(&order).all(|(s, &o)| {
            s.estimate >= lo * exact[s.attr] - 1e-9 && exact[s.attr] >= lo * exact[o] - 1e-9
        }),
        Rule::Filter { eta } => exact.iter().enumerate().all(|(a, &h)| {
            let returned = attrs.contains(&a);
            (h < (1.0 + epsilon) * eta || returned) && (h >= lo * eta || !returned)
        }),
        Rule::Rank { k } => attrs.len() == k && order[..k].iter().all(|a| attrs.contains(a)),
        Rule::FilterExact { eta } => (0..exact.len()).filter(|&a| exact[a] >= eta).eq(attrs),
        Rule::Profile { .. } => unreachable!("a profile makes no Definition 5–6 claim"),
    }
}

/// The most violations `runs` runs at failure probability `p_f` may show:
/// the mean plus five standard deviations of a binomial.
fn envelope(runs: u64, p_f: f64) -> u64 {
    let mean = runs as f64 * p_f;
    (mean + 5.0 * (mean * (1.0 - p_f)).sqrt()).ceil() as u64
}

/// The plan a query reported at its start.
struct Planned(Option<Plan>);

impl QueryObserver for Planned {
    fn query_start(&mut self, meta: &QueryMeta) {
        self.0 = Some(meta.plan);
    }
}

/// How a top-k or filter run's sample compares with Lemma 4's `M*`.
struct Cost {
    /// `M*` for the shape's interval at the plan's `n` and `p′`, with
    /// `κ = ε·(k-th exact score)` for top-k and `2εη` for a filter
    /// (docs/THEORY.md §6), and the largest candidate support.
    m_star: usize,
    /// The run stopped past `max(M0, 2·M*)`.
    over: bool,
    /// The larger term at the stop, as an index of [`Tally::binds`]: `w·λ`,
    /// the interval's bias `Σ b(u_i)`, or neither after a full scan.
    binds: usize,
}

/// The cost of `answer` to `shape` at `epsilon`, planned as `plan`, over
/// `exact`; `None` for the comparators, whose cost Lemma 4 does not bound.
fn cost(
    ds: &Dataset,
    shape: &Shape,
    epsilon: f64,
    plan: &Plan,
    answer: &Answer,
    exact: &[f64],
) -> Option<Cost> {
    let mut scores: Vec<f64> = exact.iter().copied().filter(|s| s.is_finite()).collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    let kappa = match shape.rule {
        Rule::TopK { k } => epsilon * scores[k - 1],
        Rule::Filter { eta } => 2.0 * epsilon * eta,
        _ => return None,
    };
    let support = |a: AttrIndex| u64::from(ds.support(a));
    let u = (0..ds.num_attrs()).filter(|&a| Some(a) != shape.target).map(support).max().unwrap();
    let (w, supports) = match (shape.target.map(support), plan.sketch_marginals) {
        (None, _) => (2.0, vec![u]),
        (Some(u_t), Some(true)) => (2.0, vec![u_t * u]),
        (Some(u_t), _) => (6.0, vec![u_t, u, u_t * u]),
    };
    let n = plan.n as u64;
    let m_star = sample_size_for_width(kappa, n, w, &supports, plan.p_prime) as usize;
    let m = answer.stats.sample_size;
    let lambda = answer.stats.trace.last().map_or(0.0, |it| it.lambda);
    let b: f64 = supports.iter().map(|&u| bias(u, m as u64, n)).sum();
    let over = m > plan.m0.max(2 * m_star);
    let binds = if m < plan.n { usize::from(w * lambda <= b) } else { 2 };
    Some(Cost { m_star, over, binds })
}

/// A cell's outcome: per shape its violations and its runs over the cost
/// bound, and over its top-k and filter runs the slack ledger.
#[derive(Default)]
struct Tally {
    violations: Vec<u64>,
    over: Vec<u64>,
    /// `M / M*` of each run with `M* < n`, the runs the cost check constrains.
    ratios: Vec<f64>,
    /// Stops where `w·λ` was the larger term, where the bias was, and
    /// full scans.
    binds: [u64; 3],
}

/// One dataset of a cell: its sketch, the oracle's scores on each scope,
/// and the paged copy and loopback peers its [`Also`] paths query.
struct Env {
    ds: Dataset,
    sketch: Option<DatasetSketch>,
    exact: Vec<Vec<f64>>,
    paged: Option<Dataset>,
    cache: Arc<PageCache>,
    peers: Vec<String>,
}

impl Env {
    fn new(cell: &Cell, ds: Dataset) -> Self {
        let n = ds.num_rows();
        let sketch = cell.sketch.then(|| snapshot::build_sketch(&ds));
        let exact = cell.scopes.iter().map(|s| oracle(&ds, &scoped_rows(&ds, s), cell.target));
        let cache = Arc::new(PageCache::new(Some(2 * P as u64)));
        let paged = cell.also.iter().any(|a| matches!(a, Also::Paged)).then(|| {
            let path = std::env::temp_dir().join(format!("swope-guarantee-{}", cell.name));
            let path = path.with_extension(std::process::id().to_string());
            snapshot::write_file(&ds, &path).unwrap();
            let (copy, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
            std::fs::remove_file(&path).ok();
            copy
        });
        let cluster = cell.also.iter().any(|a| matches!(a, Also::Cluster(_)));
        let peers = [0..CUT, CUT..n].into_iter().filter(|_| cluster);
        let peers = peers.map(|r| spawn_peer(&ds, r)).collect();
        Self { exact: exact.collect(), ds, sketch, paged, cache, peers }
    }

    /// `also`'s answer to `shape` on scope `on`.
    fn other(&self, also: Also, on: &Scope, shape: &Shape, cfg: &SwopeConfig) -> Answer {
        let (exec, noop, sketch) =
            (Executor::sequential(), &mut NoopObserver, self.sketch.as_ref());
        match also {
            Also::Shards => {
                let src = LocalShardSource::new(&self.ds, 3, cfg, &exec).unwrap();
                run_sharded(&mut src.with_sketch(sketch), shape, cfg, noop, &exec)
            }
            Also::Paged => run(self.paged.as_ref().unwrap(), shape, on, sketch, cfg, noop, &exec),
            Also::Cluster(_) => {
                let range = on.row_start.map(|a| a as u64..on.row_end.unwrap() as u64);
                let (peers, t) = (&self.peers, PeerTimeouts::default());
                let src =
                    Coordinator::connect(peers, "t", cfg.seed, range, &t, Arc::default(), None);
                run_sharded(&mut src.unwrap(), shape, cfg, noop, &exec)
            }
        }
        .unwrap()
    }
}

/// Serves `range` of `ds`, without a sketch, on a fresh loopback port, a
/// session at a time, from a thread left in accept when the test ends.
fn spawn_peer(ds: &Dataset, range: std::ops::Range<usize>) -> String {
    let slice = ds.take_rows(&range.collect::<Vec<_>>());
    let served = PeerDataset { dataset: Arc::new(slice), sketch: None };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let resolve = |name: &str| (name == "t").then(|| served.clone());
        for mut stream in listener.incoming().map_while(Result::ok) {
            serve_connection(&mut stream, &resolve, &Default::default());
        }
    });
    addr
}

/// Runs `cell`, tallying its violations and its cost.
fn run_cell(cell: &Cell) -> Tally {
    let fixed = (!cell.fresh).then(|| Env::new(cell, (cell.data)(0)));
    let shapes = cell.shapes.len();
    let mut tally =
        Tally { violations: vec![0; shapes], over: vec![0; shapes], ..Tally::default() };
    for i in 0..cell.runs {
        let fresh = cell.fresh.then(|| Env::new(cell, (cell.data)(i)));
        let env = fixed.as_ref().or(fresh.as_ref()).unwrap();
        let (s, exec) = (i as usize % cell.scopes.len(), Executor::sequential());
        let scope = &cell.scopes[s];
        for (j, &(rule, epsilon)) in cell.shapes.iter().enumerate() {
            let (shape, mut seen) = (Shape { target: cell.target, rule }, Planned(None));
            let seed = i.wrapping_mul(0x9E37_79B9) ^ (j as u64).wrapping_mul(0x2545_F491);
            let cfg =
                SwopeConfig { epsilon, failure_probability: Some(cell.p_f), ..Default::default() };
            let cfg = cfg.with_seed(seed);
            let answer = run(&env.ds, &shape, scope, env.sketch.as_ref(), &cfg, &mut seen, &exec);
            let (answer, what) =
                (answer.unwrap(), format!("{}: {shape:?} on {scope:?}, seed {seed}", cell.name));
            let plan = seen.0.unwrap_or_else(|| panic!("{what}: no plan reported"));
            let marginals = cell.target.map(|_| cell.sketch && *scope == ALL);
            assert_eq!(plan.sketch_marginals, marginals, "{what}: the marginals' source");
            tally.violations[j] += u64::from(!holds(rule, &answer, &env.exact[s], epsilon));
            if let Some(cost) = cost(&env.ds, &shape, epsilon, &plan, &answer, &env.exact[s]) {
                tally.over[j] += u64::from(cost.over);
                if cost.m_star < plan.n {
                    tally.ratios.push(answer.stats.sample_size as f64 / cost.m_star as f64);
                }
                tally.binds[cost.binds] += 1;
            }
            if i < CHECKED && marginals == Some(true) {
                let sampled = run(&env.ds, &shape, scope, None, &cfg, &mut NoopObserver, &exec);
                assert_ne!(sampled.unwrap(), answer, "{what}: the sketch's marginals went unread");
            }
            let here = |a: &&Also| match a {
                Also::Cluster(at) => i < CHECKED && *at == s,
                Also::Shards => i < CHECKED && *scope == ALL,
                Also::Paged => i < CHECKED,
            };
            for &also in cell.also.iter().filter(here) {
                assert_eq!(env.other(also, scope, &shape, &cfg), answer, "{what}: {also:?}");
            }
        }
    }
    if let Some(env) = fixed.filter(|env| env.paged.is_some() && env.ds.num_rows() > P) {
        assert!(env.cache.snapshot().evictions > 0, "{}: no page was evicted", cell.name);
    }
    tally
}

/// Runs the cell named `name`, prints its line of the table, and fails if
/// any shape's violations or runs over the cost bound exceed the
/// envelope, or if a constrained cell's `M*` never fell below `n`.
fn check(name: &str) {
    let cell = CELLS.iter().find(|c| c.name == name).unwrap();
    let (mut tally, bound) = (run_cell(cell), envelope(cell.runs, cell.p_f));
    let shapes = cell.shapes.iter().zip(tally.violations.iter().zip(&tally.over));
    let counts = shapes.map(|((r, _), (v, o))| format!("{r:?} {v} (cost {o})"));
    let (runs, p_f, also) = (cell.runs, cell.p_f, cell.also);
    tally.ratios.sort_by(f64::total_cmp);
    let median = tally.ratios.get(tally.ratios.len() / 2).map_or("-".into(), |r| format!("{r:.2}"));
    let [lambda, bias, full] = tally.binds;
    print!("{name:<15} {runs:>3} runs at p_f {p_f}, envelope {bound:>2}: ");
    print!("{}; also {also:?}; ", counts.collect::<Vec<_>>().join(", "));
    print!("M*<n {}, median M/M* {median}, ", tally.ratios.len());
    println!("stop wλ {lambda} b {bias} full {full}");
    assert!(tally.violations.iter().all(|&v| v <= bound), "{name}: over its envelope");
    assert!(tally.over.iter().all(|&o| o <= bound), "{name}: over the cost bound");
    assert!(!cell.constrained || !tally.ratios.is_empty(), "{name}: M* never below n");
}

/// One `#[test]` per cell of [`CELLS`], named for the promise it checks.
macro_rules! cell_tests {
    ($($test:ident => $cell:literal,)*) => {
        $(#[test] fn $test() { check($cell) })*
        /// The cells the tests run, in order.
        const TESTED: &[&str] = &[$($cell),*];
    };
}

cell_tests! {
    topk_definition5_failure_rate_within_budget => "full_topk",
    filter_definition6_failure_rate_within_budget => "full_filter",
    comparator_exact_answer_failure_rates_within_budget => "full_exact",
    page_prefix_failure_rates_within_budget_on_page_sized_latent_blocks => "page_blocks",
    page_prefix_failure_rates_within_budget_on_a_sorted_table => "sorted",
    page_covering_range_failure_rates_within_budget => "covering_ranges",
    physical_range_failure_rates_within_budget => "physical_ranges",
    predicate_failure_rates_within_budget => "predicates",
    mi_failure_rates_within_budget => "mi_sampled",
    sketch_marginal_mi_failure_rates_within_budget => "mi_marginals",
    mi_range_failure_rates_within_budget => "mi_range",
    half_failure_rates_within_budget => "half",
}

/// Every cell has its test, and every envelope is at most a quarter of
/// its runs; the formula gives the old hand-typed envelopes.
#[test]
fn every_cell_is_tested_within_a_quarter_envelope() {
    assert_eq!((envelope(120, 0.2), envelope(40, 0.05)), (46, 9), "the old hand-typed envelopes");
    assert!(CELLS.iter().map(|c| c.name).eq(TESTED.iter().copied()), "CELLS and TESTED differ");
    for cell in CELLS {
        let bound = envelope(cell.runs, cell.p_f);
        assert!(4 * bound <= cell.runs, "{}: envelope {bound} over a quarter", cell.name);
    }
}

/// `baselines::exact` agrees with [`oracle`] within 1e-9 — entropy, MI
/// against attribute 0, and what `select` draws from them — on every
/// corpus profile and a column whose code 0 occurs 65 934 times, past
/// the 2¹⁶ counts `xlog2` tabulates: over the whole data, a row range
/// and a predicate.
#[test]
fn exact_baselines_match_the_oracle() {
    let corpus = swope_datagen::corpus::all(0.00005).into_iter();
    let corpus = corpus.chain([swope_datagen::corpus::tiny(3_000, 12)]);
    let mut datasets: Vec<_> = corpus.map(|p| swope_datagen::generate(&p, 0x0AC1E)).collect();
    let n = 66_000;
    let big =
        [(0..n).map(|r| u32::from(r % 1_000 == 1)).collect(), (0..n).map(|r| r % 15).collect()];
    datasets.push(dataset_of(&SUPPORTS, big));
    let close = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9)
    };
    for ds in &datasets {
        let (n, code) = (ds.num_rows(), ds.column(1).code(0));
        for scope in [ALL, rows(n / 4, 3 * n / 4), Scope { predicate: Some((1, code)), ..ALL }] {
            let rows = scoped_rows(ds, &scope);
            let part = ds.take_rows(&rows.iter().map(|&r| r as usize).collect::<Vec<_>>());
            let (h, mi) = (oracle(ds, &rows, None), oracle(ds, &rows, Some(0)));
            let (exact_h, exact_mi) = (exact_entropy_scores(&part), exact_mi_scores(&part, 0));
            assert!(close(&exact_h, &h), "entropy on {scope:?}: {exact_h:?} vs {h:?}");
            assert!(close(&exact_mi[1..], &mi[1..]), "MI on {scope:?}: {exact_mi:?} vs {mi:?}");
            for (target, exact, truth) in [(None, &exact_h, &h), (Some(0), &exact_mi, &mi)] {
                for shape in [Rule::TopK { k: 3 }, Rule::Filter { eta: 0.5 }]
                    .map(|rule| Shape { target, rule })
                {
                    let scores =
                        |s: &[f64]| select(s, &shape).iter().map(|&a| truth[a]).collect::<Vec<_>>();
                    assert!(close(&scores(exact), &scores(truth)), "{shape:?} on {scope:?}");
                }
            }
        }
    }
}
