//! The five workloads: which dataset each serves, through which server
//! topology, and the fixed request list `--seed` expands to.
//!
//! A list is built so that two seeds give statistically equivalent work:
//! shape counts are fixed, every numeric parameter is stratified over its
//! range (one draw per equal-width stratum, jittered inside it) instead
//! of drawn independently, and only the jitter, the per-query sampling
//! seed and the order depend on `--seed`. Totals then differ between
//! seeds by far less than they would under independent draws, while the
//! parameters still cover their ranges continuously.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use swope_columnar::{snapshot, Dataset};
use swope_datagen::{corpus, DatasetProfile};
use swope_sampling::rng::Xoshiro256pp;

use crate::client::{digest, CacheOutcome};
use crate::proc::ServeSpec;

/// Seed of every generated dataset: data never depends on `--seed`.
const DATA_SEED: u64 = 0x5170;
/// Share of the snapshot's bytes `paged_hotcold` grants the page cache.
const PAGED_BUDGET_SHARE: f64 = 0.25;
/// Rows of the hot window as a share of the dataset: with one fringe page
/// per side and column it stays inside the 25 % budget.
const HOT_WINDOW_SHARE: f64 = 0.15;
/// Where the hot window starts, as a share of the dataset.
const HOT_WINDOW_START: f64 = 0.30;

/// Every workload name, in reporting order.
pub const NAMES: [&str; 5] =
    ["entropy_heap", "mi_heap", "paged_hotcold", "cluster_2peer", "cached_hot"];

/// Dataset and list sizes; `quick` shrinks everything for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    cdc_scale: f64,
    wide_shape: (usize, usize),
    mi_rows: usize,
    hot_shape: (usize, usize),
    entropy_blocks: usize,
    mi_len: usize,
    paged_len: usize,
    cached_len: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        cdc_scale: 0.1,
        wide_shape: (1_000_000, 32),
        mi_rows: 200_000,
        hot_shape: (20_000, 16),
        entropy_blocks: 2,
        mi_len: 200,
        paged_len: 120,
        cached_len: 20_000,
    };
    pub const QUICK: Sizes = Sizes {
        cdc_scale: 0.04,
        wide_shape: (200_000, 16),
        mi_rows: 100_000,
        hot_shape: (2_000, 8),
        entropy_blocks: 1,
        mi_len: 100,
        paged_len: 100,
        cached_len: 2_000,
    };

    fn profile(&self, dataset: &str) -> DatasetProfile {
        match dataset {
            "cdc" => corpus::cdc(self.cdc_scale),
            "wide" => corpus::tiny(self.wide_shape.0, self.wide_shape.1),
            "mi" => mi_profile(self.mi_rows),
            "hot" => corpus::tiny(self.hot_shape.0, self.hot_shape.1),
            other => panic!("no dataset named {other:?}"),
        }
    }
}

/// The `mi` dataset, twelve columns of support ≤ 16: two latent factors,
/// four columns tied to each with strengths from 0.95 down to 0.8, four
/// independent columns. A target tied to a factor then has three
/// partners at 1.9 – 2.9 bits of mutual information and eight columns at
/// zero — the regime in which Alg. 3–4 stop early (at 25 – 100 k rows of
/// the 200 k). On the census-like `tiny` profile at the default ε nearly
/// every MI query degenerates to the exact scan, which measures the
/// scan, not the algorithm.
fn mi_profile(rows: usize) -> DatasetProfile {
    use swope_datagen::{ColumnSpec, Distribution};
    let mut columns = Vec::new();
    for latent in 0..2 {
        for (i, strength) in [0.95, 0.9, 0.85, 0.8].into_iter().enumerate() {
            columns.push(ColumnSpec::dependent(
                format!("f{latent}_{i}"),
                Distribution::Uniform { u: 16 },
                latent,
                strength,
            ));
        }
    }
    for i in 0..4u32 {
        columns.push(ColumnSpec::independent(
            format!("noise_{i}"),
            Distribution::Zipf { u: 4 + 2 * i, s: 0.8 },
        ));
    }
    DatasetProfile { name: "mi".into(), rows, latent_supports: vec![16, 16], columns }
}

/// How a workload's servers are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One server, snapshot decoded onto the heap at load.
    Heap,
    /// One server, snapshot mmap'd under a page-cache budget.
    Paged,
    /// A coordinator in front of two peers holding one half each.
    Cluster,
}

/// One request of a list: its target and the exact bytes sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Path plus query string, e.g. `/query/entropy-topk?dataset=cdc&k=3`.
    pub target: String,
    /// The full HTTP/1.1 request.
    pub wire: Vec<u8>,
}

impl Request {
    fn new(target: String) -> Self {
        let wire = format!("GET {target} HTTP/1.1\r\nHost: swope-e2e\r\n\r\n").into_bytes();
        Self { target, wire }
    }
}

/// A workload expanded for one seed.
pub struct Workload {
    pub name: &'static str,
    /// Registry name of the dataset (its snapshot's file stem).
    pub dataset: &'static str,
    pub topology: Topology,
    /// Server result-cache entries.
    pub cache_capacity: usize,
    /// The `X-Swope-Cache` value every measured response should carry.
    pub expect: CacheOutcome,
    pub requests: Vec<Request>,
}

/// Expands workload `name` for `seed`.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Result<Workload, String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let workload = match name {
        "entropy_heap" => Workload {
            name: "entropy_heap",
            dataset: "cdc",
            topology: Topology::Heap,
            // Far below the list length: a cycled list never hits.
            cache_capacity: 32,
            expect: CacheOutcome::Miss,
            requests: requests(entropy_list(&mut rng, sizes.entropy_blocks)),
        },
        "mi_heap" => Workload {
            name: "mi_heap",
            dataset: "mi",
            topology: Topology::Heap,
            cache_capacity: 32,
            expect: CacheOutcome::Miss,
            requests: requests(mi_list(&mut rng, &sizes.profile("mi"), sizes.mi_len)),
        },
        "paged_hotcold" => Workload {
            name: "paged_hotcold",
            dataset: "wide",
            topology: Topology::Paged,
            cache_capacity: 32,
            expect: CacheOutcome::Miss,
            requests: requests(paged_list(&mut rng, &sizes.profile("wide"), sizes.paged_len)),
        },
        "cluster_2peer" => Workload {
            name: "cluster_2peer",
            dataset: "cdc",
            topology: Topology::Cluster,
            cache_capacity: 32,
            expect: CacheOutcome::Miss,
            requests: requests(cluster_list(
                &mut rng,
                sizes.profile("cdc").rows,
                sizes.entropy_blocks,
            )),
        },
        "cached_hot" => Workload {
            name: "cached_hot",
            dataset: "hot",
            topology: Topology::Heap,
            cache_capacity: 256,
            expect: CacheOutcome::Hit,
            requests: cached_list(&mut rng, &sizes.profile("hot"), sizes.cached_len),
        },
        other => return Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    };
    Ok(workload)
}

/// `n` values covering `[lo, hi)`: one per equal-width stratum, placed
/// uniformly inside it.
fn stratified(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n).map(|i| lo + (i as f64 + rng.next_f64()) * width).collect()
}

/// `n` stratified draws from `[0, 1)`, dealt out in a fixed order that is
/// not the strata's own (a stride coprime to `n`, near the golden ratio).
/// Paired index by index with another stratified sequence, every part of
/// that one's range meets every part of this one's — the same parts for
/// every seed, which independent draws would not give.
fn stratified_dealt(rng: &mut Xoshiro256pp, n: usize) -> Vec<f64> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let draws = stratified(rng, n, 0.0, 1.0);
    let from = (n as f64 * 0.618) as usize;
    let stride = (from.max(1)..).find(|&s| gcd(s, n) == 1).expect("some stride is coprime");
    (0..n).map(|i| draws[i * stride % n]).collect()
}

fn shuffle<T>(rng: &mut Xoshiro256pp, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Gives every target a fresh sampling seed; redraws on the
/// (astronomically rare) duplicate so every request is distinct.
fn seeded(rng: &mut Xoshiro256pp, targets: Vec<String>) -> Vec<String> {
    let mut seen = HashSet::new();
    targets
        .into_iter()
        .map(|base| loop {
            let target = format!("{base}&seed={}", rng.next_below(1 << 32));
            if seen.insert(target.clone()) {
                break target;
            }
        })
        .collect()
}

fn requests(targets: Vec<String>) -> Vec<Request> {
    targets.into_iter().map(Request::new).collect()
}

/// Requests per block of the entropy list.
const ENTROPY_BLOCK: usize = 120;

/// One block of unscoped entropy queries over `cdc`: one profile, the
/// rest split evenly between top-k (k ∈ [1, 20]) and filter
/// (η ∈ [1.5, 6)), stratified and shuffled within the block.
fn entropy_block(rng: &mut Xoshiro256pp) -> Vec<String> {
    let topk = (ENTROPY_BLOCK - 1) / 2;
    let filter = ENTROPY_BLOCK - 1 - topk;
    let mut targets: Vec<String> = Vec::with_capacity(ENTROPY_BLOCK);
    // k has twenty values: stratify the continuous range and round down,
    // so each k gets its equal share whatever the count.
    for k in stratified(rng, topk, 1.0, 21.0) {
        targets.push(format!("/query/entropy-topk?dataset=cdc&k={}", k as usize));
    }
    for eta in stratified(rng, filter, 1.5, 6.0) {
        targets.push(format!("/query/entropy-filter?dataset=cdc&eta={eta:.4}"));
    }
    targets.push("/query/entropy-profile?dataset=cdc".to_owned());
    shuffle(rng, &mut targets);
    targets
}

/// `blocks` entropy blocks end to end. Every block covers the whole
/// parameter range on its own, so a prefix of whole blocks is as
/// representative as the full list.
fn entropy_list(rng: &mut Xoshiro256pp, blocks: usize) -> Vec<String> {
    let targets = (0..blocks).flat_map(|_| entropy_block(rng)).collect();
    seeded(rng, targets)
}

/// The first block of `entropy_heap`'s list for the same seed, with a row
/// range added to every fourth request. The other three quarters are
/// byte-identical to `entropy_heap`'s, so the gap between the two
/// workloads on them is the cluster layer's alone.
///
/// Each range straddles the shard cut, so both peers count for it, and
/// is shorter than one 65 536-row sketch page. That second condition is
/// what keeps the cluster's answers checkable: a single box resolves a
/// range that covers a whole page through the partition sketch, a
/// coordinator cannot (peers sample physically), and the two answers —
/// both within the guarantee — then differ in their bytes, so the
/// heap-computed goldens would not apply.
fn cluster_list(rng: &mut Xoshiro256pp, rows: usize, blocks: usize) -> Vec<String> {
    let mut targets = entropy_list(rng, blocks);
    targets.truncate(ENTROPY_BLOCK);
    let len = targets.len();
    let cut = rows / 2;
    let page = swope_columnar::PAGE_ROWS.min(cut);
    let lengths = stratified(rng, len.div_ceil(4), 0.25, 0.95);
    let lefts = stratified_dealt(rng, lengths.len());
    for (target, (share, left)) in targets.iter_mut().step_by(4).zip(lengths.into_iter().zip(lefts))
    {
        let length = ((page as f64 * share) as usize).max(2);
        // 1 ..= length − 1 rows of the range lie left of the cut.
        let start = cut - 1 - (left * (length - 1) as f64) as usize;
        target.push_str(&format!("&row_start={start}&row_end={}", start + length));
    }
    targets
}

/// A range of `share × (hi − lo)` rows inside `[lo, hi)`, `position`
/// (in `[0, 1)`) of the way from the leftmost to the rightmost place it
/// fits.
fn range_inside(lo: usize, hi: usize, share: f64, position: f64) -> (usize, usize) {
    let span = hi - lo;
    let len = ((span as f64 * share) as usize).clamp(1, span);
    let start = lo + (position * (span - len + 1) as f64) as usize;
    (start, start + len)
}

/// MI queries at the default ε = 0.5 against latent-factor targets (a
/// target tied to a factor has real dependence to find, so the loops
/// stop early): 49 % top-k with k ∈ [1, 3] (a target has three partners;
/// k = 4 would force a zero-MI column into the answer and with it the
/// exact scan), 49 % filter with η ∈ [0.4, 1.6) (between the noise floor
/// and the partners' scores), 2 % profiles (always an exact scan).
fn mi_list(rng: &mut Xoshiro256pp, profile: &DatasetProfile, len: usize) -> Vec<String> {
    let dependent: Vec<usize> =
        (0..profile.columns.len()).filter(|&i| profile.columns[i].dependence.is_some()).collect();
    assert!(!dependent.is_empty(), "mi profile has no latent-factor column");
    let profiles = len / 50;
    let topk = (len - profiles) / 2;
    let filter = len - profiles - topk;
    let mut next = 0;
    let mut target = || {
        next += 1;
        dependent[(next - 1) % dependent.len()]
    };
    let mut targets: Vec<String> = Vec::with_capacity(len);
    for k in stratified(rng, topk, 1.0, 4.0) {
        targets.push(format!("/query/mi-topk?dataset=mi&target={}&k={}", target(), k as usize));
    }
    for eta in stratified(rng, filter, 0.4, 1.6) {
        targets.push(format!("/query/mi-filter?dataset=mi&target={}&eta={eta:.4}", target()));
    }
    for _ in 0..profiles {
        targets.push(format!("/query/mi-profile?dataset=mi&target={}", target()));
    }
    shuffle(rng, &mut targets);
    seeded(rng, targets)
}

/// Scoped entropy queries over the budgeted `wide` snapshot: 70 % ranges
/// inside the hot window, 20 % ranges anywhere, 10 % `where=` predicates
/// (on a low-support column, inside the hot window). Scopes alternate
/// between top-k (k ∈ [1, 10]) and filter (η ∈ [1.5, 6)); which stratum
/// of k or η meets which stratum of range length is the same for every
/// seed, so the mix of cheap and dear requests is too.
fn paged_list(rng: &mut Xoshiro256pp, profile: &DatasetProfile, len: usize) -> Vec<String> {
    let n = profile.rows;
    let hot_lo = (n as f64 * HOT_WINDOW_START) as usize;
    let hot_hi = hot_lo + (n as f64 * HOT_WINDOW_SHARE) as usize;
    let predicates = len / 10;
    let cold = len / 5;
    let hot = len - cold - predicates;
    let flags: Vec<usize> = (0..profile.columns.len())
        .filter(|&i| profile.columns[i].distribution.support() <= 8)
        .collect();
    assert!(!flags.is_empty(), "wide profile has no low-support column");

    let mut scopes: Vec<String> = Vec::with_capacity(len);
    // How much of a range lies in whole 65 536-row pages decides whether
    // the sketch or the rows answer for it, so where a range of a given
    // length lands must not be left to chance either.
    let positions = stratified_dealt(rng, hot);
    for (share, position) in stratified(rng, hot, 0.25, 1.0).into_iter().zip(positions) {
        let (start, end) = range_inside(hot_lo, hot_hi, share, position);
        scopes.push(format!("row_start={start}&row_end={end}"));
    }
    let positions = stratified_dealt(rng, cold);
    for (share, position) in stratified(rng, cold, 0.05, 0.25).into_iter().zip(positions) {
        let (start, end) = range_inside(0, n, share, position);
        scopes.push(format!("row_start={start}&row_end={end}"));
    }
    for i in 0..predicates {
        // Code 0 is the mode of every archetype, so the scoped
        // population is never empty.
        let attr = flags[i % flags.len()];
        scopes.push(format!("row_start={hot_lo}&row_end={hot_hi}&where={attr}=0"));
    }
    let ks = stratified(rng, len.div_ceil(2), 1.0, 11.0);
    let etas = stratified(rng, len / 2, 1.5, 6.0);
    let mut targets: Vec<String> = scopes
        .into_iter()
        .enumerate()
        .map(|(i, scope)| {
            if i % 2 == 0 {
                format!("/query/entropy-topk?dataset=wide&k={}&{scope}", ks[i / 2] as usize)
            } else {
                format!("/query/entropy-filter?dataset=wide&eta={:.4}&{scope}", etas[i / 2])
            }
        })
        .collect();
    // Which hot range finds its pages evicted depends on how the cold
    // ranges are strewn among them, so that is the same for every seed
    // too: each run of ten is seven hot, two cold, one predicate, and the
    // seed only decides which of its kind goes where.
    let mut predicate_targets = targets.split_off(hot + cold);
    let mut cold_targets = targets.split_off(hot);
    shuffle(rng, &mut targets);
    shuffle(rng, &mut cold_targets);
    shuffle(rng, &mut predicate_targets);
    let woven = (0..len)
        .map(|i| match i % 10 {
            2 | 7 => cold_targets.pop(),
            9 => predicate_targets.pop(),
            _ => targets.pop(),
        })
        .collect::<Option<Vec<String>>>()
        .expect("list lengths are multiples of ten");
    seeded(rng, woven)
}

/// `len` requests drawn Zipf(1) from 64 distinct queries of all six
/// shapes over the small `hot` dataset.
fn cached_list(rng: &mut Xoshiro256pp, profile: &DatasetProfile, len: usize) -> Vec<Request> {
    const DISTINCT: usize = 64;
    let h = profile.columns.len();
    let targets: Vec<String> = (0..DISTINCT)
        .map(|i| {
            let t = i % h;
            let k = 1 + i % 4;
            match i % 6 {
                0 => format!("/query/entropy-topk?dataset=hot&k={k}"),
                1 => format!("/query/entropy-filter?dataset=hot&eta={:.2}", 1.0 + i as f64 / 16.0),
                2 => format!("/query/mi-topk?dataset=hot&target={t}&k={k}"),
                3 => format!("/query/mi-filter?dataset=hot&target={t}&eta=0.{:02}", 5 + i % 40),
                4 => "/query/entropy-profile?dataset=hot".to_owned(),
                _ => format!("/query/mi-profile?dataset=hot&target={t}"),
            }
        })
        .collect();
    let mut distinct = requests(seeded(rng, targets));
    // Which query is popular depends on the seed; how popular rank r is
    // does not.
    shuffle(rng, &mut distinct);
    let mut cumulative = Vec::with_capacity(DISTINCT);
    let mut total = 0.0;
    for rank in 0..DISTINCT {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(DISTINCT - 1);
            distinct[rank].clone()
        })
        .collect()
}

/// Where a workload's snapshots live and how its servers are started.
pub struct Deployment {
    /// The front server (the coordinator, for a cluster).
    pub front: ServeSpec,
    /// Peer servers, in union order; empty outside a cluster.
    pub peers: Vec<ServeSpec>,
    /// The whole dataset as one heap-loadable snapshot: what goldens and
    /// the single-box replay are computed from.
    pub snapshot: String,
}

fn path_str(path: &Path) -> String {
    path.to_str().expect("benchmark paths are UTF-8").to_owned()
}

/// The directory a dataset's snapshots are kept in: named after the
/// profile's every field and the data seed, so that a snapshot written
/// before an edit to either is never served after it.
fn data_dir(out: &Path, dataset: &str, profile: &DatasetProfile) -> PathBuf {
    let identity = format!("{profile:?} seed {DATA_SEED}");
    out.join("data").join(format!("{dataset}-{:016x}", digest(identity.as_bytes())))
}

/// Makes sure the workload's snapshots exist under `out/` (generating
/// them on first use) and describes the servers to start over them.
pub fn deploy(workload: &Workload, sizes: &Sizes, out: &Path) -> Result<Deployment, String> {
    let profile = sizes.profile(workload.dataset);
    let dir = data_dir(out, workload.dataset, &profile);
    let whole = dir.join(format!("{}.swop", workload.dataset));
    let halves = [dir.join("peer0"), dir.join("peer1")]
        .map(|d| d.join(format!("{}.swop", workload.dataset)));
    let wanted: Vec<&PathBuf> = match workload.topology {
        Topology::Cluster => vec![&whole, &halves[0], &halves[1]],
        _ => vec![&whole],
    };
    if wanted.iter().any(|p| !p.exists()) {
        let started = std::time::Instant::now();
        let ds = swope_datagen::generate(&profile, DATA_SEED);
        write_snapshot(&ds, &whole)?;
        if workload.topology == Topology::Cluster {
            let cut = ds.num_rows() / 2;
            let head: Vec<usize> = (0..cut).collect();
            let tail: Vec<usize> = (cut..ds.num_rows()).collect();
            write_snapshot(&ds.take_rows(&head), &halves[0])?;
            write_snapshot(&ds.take_rows(&tail), &halves[1])?;
        }
        eprintln!(
            "generated {} ({} rows x {} columns) in {:.1}s",
            whole.display(),
            ds.num_rows(),
            ds.num_attrs(),
            started.elapsed().as_secs_f64()
        );
    }
    let cache_capacity = workload.cache_capacity;
    let serve = |path: &Path| ServeSpec {
        data: Some(path_str(path)),
        cache_capacity,
        ..ServeSpec::default()
    };
    let (front, peers) = match workload.topology {
        Topology::Heap => (serve(&whole), Vec::new()),
        Topology::Paged => {
            let bytes = std::fs::metadata(&whole).map_err(|e| e.to_string())?.len();
            let budget = (bytes as f64 * PAGED_BUDGET_SHARE) as u64;
            (ServeSpec { budget_bytes: Some(budget), ..serve(&whole) }, Vec::new())
        }
        Topology::Cluster => (
            ServeSpec { cache_capacity, ..ServeSpec::default() },
            halves.iter().map(|p| serve(p)).collect(),
        ),
    };
    Ok(Deployment { front, peers, snapshot: path_str(&whole) })
}

/// Writes via a temporary name, so an interrupted run never leaves a
/// truncated snapshot behind under the real one.
fn write_snapshot(ds: &Dataset, path: &Path) -> Result<(), String> {
    let parent = path.parent().expect("snapshot paths have a parent");
    std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    let tmp = path.with_extension("swop.tmp");
    snapshot::write_file(ds, &tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(name: &str, seed: u64) -> Vec<String> {
        build(name, seed, &Sizes::QUICK).unwrap().requests.into_iter().map(|r| r.target).collect()
    }

    #[test]
    fn same_seed_same_list_different_seed_different_list() {
        for name in NAMES {
            let a = build(name, 7, &Sizes::QUICK).unwrap().requests;
            let b = build(name, 7, &Sizes::QUICK).unwrap().requests;
            assert_eq!(a, b, "{name}: a seed must reproduce its list byte for byte");
            let c = build(name, 8, &Sizes::QUICK).unwrap().requests;
            assert_eq!(a.len(), c.len(), "{name}: list length must not depend on the seed");
            assert_ne!(a, c, "{name}: another seed must give another list");
        }
        assert!(build("nope", 1, &Sizes::QUICK).is_err());
    }

    #[test]
    fn uncached_lists_are_distinct_and_long_enough_for_p90() {
        for name in ["entropy_heap", "mi_heap", "paged_hotcold", "cluster_2peer"] {
            for sizes in [Sizes::FULL, Sizes::QUICK] {
                let w = build(name, 3, &sizes).unwrap();
                let distinct: HashSet<&str> =
                    w.requests.iter().map(|r| r.target.as_str()).collect();
                assert_eq!(distinct.len(), w.requests.len(), "{name}: duplicate request");
                assert!(w.requests.len() >= 100, "{name}: p90 needs ten samples beyond it");
                assert!(
                    w.requests.len() > 2 * w.cache_capacity,
                    "{name}: list must overflow cache"
                );
                assert_eq!(w.expect, CacheOutcome::Miss);
            }
        }
    }

    #[test]
    fn cached_list_fits_its_cache() {
        let w = build("cached_hot", 3, &Sizes::FULL).unwrap();
        let distinct: HashSet<&str> = w.requests.iter().map(|r| r.target.as_str()).collect();
        assert!(distinct.len() <= 64 && distinct.len() >= 48, "{} distinct", distinct.len());
        assert!(distinct.len() < w.cache_capacity);
        assert_eq!(w.requests.len(), 20_000);
        assert_eq!(w.expect, CacheOutcome::Hit);
    }

    #[test]
    fn shape_mix_does_not_depend_on_the_seed() {
        let count =
            |list: &[String], needle: &str| list.iter().filter(|t| t.contains(needle)).count();
        for seed in [1, 2, 99] {
            let e = targets("entropy_heap", seed);
            assert_eq!(count(&e, "entropy-profile"), 1);
            assert_eq!(count(&e, "entropy-topk"), 59);
            assert_eq!(count(&e, "row_start"), 0);
            let c = targets("cluster_2peer", seed);
            assert_eq!(count(&c, "row_start"), 30);
            assert_eq!(count(&c, "where="), 0, "a coordinator rejects predicates");
            let p = targets("paged_hotcold", seed);
            assert_eq!(count(&p, "row_start"), 100, "every paged request is scoped");
            assert_eq!(count(&p, "where="), 10);
            assert!(p.iter().skip(9).step_by(10).all(|t| t.contains("where=")), "woven");
            let m = targets("mi_heap", seed);
            assert_eq!(count(&m, "mi-profile"), 2);
            assert_eq!(count(&m, "mi-topk"), 49);
        }
    }

    #[test]
    fn cluster_list_is_entropy_heaps_first_block_plus_ranges() {
        let heap = targets("entropy_heap", 21);
        let cluster = targets("cluster_2peer", 21);
        assert_eq!(cluster.len(), ENTROPY_BLOCK);
        for (i, (c, h)) in cluster.iter().zip(&heap).enumerate() {
            if i % 4 == 0 {
                assert!(c.starts_with(h.as_str()) && c.contains("&row_start="), "{c} vs {h}");
            } else {
                assert_eq!(c, h, "unscoped requests must be byte-identical");
            }
        }
        // Full size: the list is a prefix of whole blocks of the longer one.
        let full_heap = build("entropy_heap", 21, &Sizes::FULL).unwrap().requests;
        let full_cluster = build("cluster_2peer", 21, &Sizes::FULL).unwrap().requests;
        assert_eq!(full_heap.len(), 2 * ENTROPY_BLOCK);
        assert_eq!(full_cluster.len(), ENTROPY_BLOCK);
        assert_eq!(full_cluster[1], full_heap[1]);
    }

    #[test]
    fn cluster_ranges_straddle_the_cut_inside_one_sketch_page() {
        for sizes in [Sizes::FULL, Sizes::QUICK] {
            let cut = sizes.profile("cdc").rows / 2;
            let w = build("cluster_2peer", 5, &sizes).unwrap();
            let mut ranged = 0;
            for r in &w.requests {
                let Some((_, tail)) = r.target.split_once("&row_start=") else { continue };
                let (start, end) = tail.split_once("&row_end=").unwrap();
                let (start, end): (usize, usize) = (start.parse().unwrap(), end.parse().unwrap());
                assert!(start < cut && cut < end, "{start}..{end} misses the cut at {cut}");
                assert!(end - start < swope_columnar::PAGE_ROWS, "{start}..{end} spans a page");
                ranged += 1;
            }
            assert_eq!(ranged, 30);
        }
    }

    #[test]
    fn stratified_draws_cover_the_range_evenly() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let v = stratified(&mut rng, 40, 1.0, 21.0);
        for (i, x) in v.iter().enumerate() {
            let lo = 1.0 + i as f64 * 0.5;
            assert!((lo..lo + 0.5).contains(x), "draw {i} = {x} left its stratum");
        }
        // Rounded down, each k in 1..=20 appears exactly twice.
        for k in 1..=20 {
            assert_eq!(v.iter().filter(|&&x| x as usize == k).count(), 2);
        }
    }

    #[test]
    fn dealt_draws_keep_one_per_stratum_in_another_order() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for n in [1, 2, 24, 30, 84] {
            let v = stratified_dealt(&mut rng, n);
            let mut strata: Vec<usize> = v.iter().map(|x| (x * n as f64) as usize).collect();
            assert!(n < 3 || strata.windows(2).any(|w| w[1] != w[0] + 1), "{n}: still in order");
            strata.sort_unstable();
            assert_eq!(strata, (0..n).collect::<Vec<_>>(), "{n}: one draw per stratum");
        }
    }

    #[test]
    fn ranges_stay_inside_their_window() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..1000 {
            let share = 0.01 + rng.next_f64() * 0.99;
            let (s, e) = range_inside(100, 1100, share, rng.next_f64());
            assert!(100 <= s && s < e && e <= 1100, "{s}..{e}");
        }
        assert_eq!(range_inside(0, 10, 1.0, 0.999), (0, 10));
        assert_eq!(range_inside(0, 10, 0.5, 0.0), (0, 5));
        assert_eq!(range_inside(0, 10, 0.5, 0.999), (5, 10));
    }

    #[test]
    fn snapshots_are_kept_apart_by_everything_that_shapes_them() {
        let out = Path::new("out");
        let full = data_dir(out, "cdc", &Sizes::FULL.profile("cdc"));
        assert_eq!(full, data_dir(out, "cdc", &Sizes::FULL.profile("cdc")));
        assert!(full.starts_with("out/data"));
        // Another scale, another column recipe: another directory.
        assert_ne!(full, data_dir(out, "cdc", &Sizes::QUICK.profile("cdc")));
        let mut tweaked = mi_profile(1000);
        let plain = data_dir(out, "mi", &tweaked);
        tweaked.columns[0].name.push('x');
        assert_ne!(plain, data_dir(out, "mi", &tweaked));
    }

    #[test]
    fn wire_bytes_are_a_complete_http_request() {
        let w = build("entropy_heap", 1, &Sizes::QUICK).unwrap();
        let r = &w.requests[0];
        let text = std::str::from_utf8(&r.wire).unwrap();
        assert!(text.starts_with(&format!("GET {} HTTP/1.1\r\n", r.target)));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
