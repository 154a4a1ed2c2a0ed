//! The calls `benchmark/` makes, made from tier-1.
//!
//! `benchmark/` (the `swope-e2e` crate behind `BENCHMARK.json`) is its
//! own workspace: `cargo test` here never compiles it, and PRs may not
//! edit it. Everything it imports from this workspace is therefore a
//! contract kept by hand. This test makes the same calls, with the same
//! argument lists and result types, as `benchmark/src/{replay,golden,
//! proc}.rs`, so a change that would break that crate fails here first.
//! When `benchmark/` moves to a newer API, move this file with it.

use std::sync::Arc;
use std::time::Duration;

use swope_baselines::{exact_entropy_scores, exact_mi_scores};
use swope_bench::metrics::{definition5_condition2, definition6_compliant};
use swope_cluster::frame::{read_frame, write_frame, CountMergeFrame, Frame};
use swope_cluster::{probe, ClusterStats, PeerPool, PeerTimeouts};
use swope_columnar::{snapshot, Dataset, PageCache, PagerSnapshot};
use swope_core::{
    entropy_filter_scoped_exec, entropy_top_k_scoped_exec, gather_stats, CountRequest, Executor,
    FilterResult, LocalShardSource, NoopObserver, Phase, QueryObserver, Scope, ShardTransport,
    SwopeConfig, TopKResult,
};
use swope_server::http::{self, ParseStatus, Response};
use swope_server::query::{
    cache_key, parse_spec, run_query, run_query_cluster, ClusterTarget, QueryShape, QuerySpec,
};
use swope_server::{DatasetEntry, DatasetRegistry, ResultCache, Server, ServerConfig};

const ROWS: usize = 3_000;

fn dataset() -> Dataset {
    swope_datagen::generate(&swope_datagen::corpus::tiny(ROWS, 6), 0xF02E)
}

/// `replay.rs::phase_layer` + `PhaseSpans`: an observer that implements
/// `phase` alone, names every `Phase` variant, and reads the gather
/// counters between callbacks.
struct PhaseSpans {
    gather: gather_stats::GatherSnapshot,
    phases: Vec<&'static str>,
    gathered_rows: u64,
    gather_nanos: u64,
}

impl QueryObserver for PhaseSpans {
    fn phase(&mut self, phase: Phase, _iteration: usize, _nanos: u64) {
        self.phases.push(match phase {
            Phase::SampleGrow => "sampling.grow",
            Phase::Ingest => "store.ingest",
            Phase::UpdateBounds => "estimate.bounds",
            Phase::Decide => "core.decide",
            Phase::StoreSketch => "sketch.resolve",
            Phase::ShardMerge => "cluster.merge",
        });
        let now = gather_stats::snapshot();
        let gathered = now.since(self.gather);
        self.gather = now;
        if gathered.calls > 0 {
            self.gathered_rows += gathered.rows;
            self.gather_nanos += gathered.nanos;
        }
    }
}

/// `golden.rs::parse_wire`: wire bytes to a query spec, the server's way.
fn parse_wire(target: &str) -> QuerySpec {
    let wire = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let parsed = match http::parse_request(wire.as_bytes(), 1 << 20) {
        Ok(ParseStatus::Complete { request, .. }) => request,
        Ok(ParseStatus::Incomplete) => panic!("{target}: incomplete HTTP request"),
        Err(e) => panic!("{target}: {e}"),
    };
    let segment = parsed.path.strip_prefix("/query/").expect("a query endpoint");
    parse_spec(segment, &parsed).unwrap()
}

/// A snapshot of `ds` at `dir/name.swop`; the registry names it `name`.
fn write_snapshot(ds: &Dataset, dir: &std::path::Path, name: &str) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(format!("{name}.swop"));
    snapshot::write_file(ds, &path).unwrap();
    path.to_str().unwrap().to_owned()
}

/// `proc.rs::server_config` + `serve_main`, in a thread instead of a
/// child process.
fn spawn_server(data: &str, budget_bytes: Option<u64>) -> (String, swope_server::ServerHandle) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        exec_threads: 1,
        trace: false,
        cache_capacity: 16,
        peers: Vec::new(),
        mmap: budget_bytes.is_some(),
        store_budget_bytes: budget_bytes,
        keep_alive: Duration::from_secs(600),
        ..ServerConfig::default()
    })
    .unwrap();
    if budget_bytes.is_some() {
        server.registry().load_path_paged(data, server.pager()).unwrap();
    } else {
        server.registry().load_path(data).unwrap();
    }
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn the_calls_benchmark_makes_compile_and_agree() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("swope-frozen-contract-{}", std::process::id()));
    let whole = write_snapshot(&ds, &dir, "cdcx");

    // golden.rs::load_heap / load_paged.
    let entry: Arc<DatasetEntry> = DatasetRegistry::new(1000).load_path(&whole).unwrap();
    let cache = Arc::new(PageCache::new(Some(200_000)));
    let paged: Arc<DatasetEntry> =
        DatasetRegistry::new(1000).load_path_paged(&whole, &cache).unwrap();
    assert_eq!((entry.generation, entry.dataset.num_rows()), (1, ROWS));

    // replay.rs::serve: parse, cache key, run, cache, serialize.
    let targets = [
        "/query/entropy-topk?dataset=cdcx&k=2&seed=5",
        "/query/entropy-filter?dataset=cdcx&eta=1.5&seed=6&row_start=100&row_end=2500",
        "/query/mi-topk?dataset=cdcx&target=1&k=2&seed=7",
        "/query/mi-filter?dataset=cdcx&target=1&eta=0.05&seed=8",
        "/query/entropy-profile?dataset=cdcx&seed=9&where=0%3D0",
        "/query/mi-profile?dataset=cdcx&target=1&seed=10",
    ];
    let results = ResultCache::new(8);
    let exec = Executor::sequential();
    gather_stats::set_enabled(true);
    for target in targets {
        let spec = parse_wire(target);
        assert_eq!((spec.dataset.as_str(), spec.threads), ("cdcx", 1));
        assert!(spec.seed.is_some() && spec.pf.is_none() && spec.epsilon > 0.0);
        match &spec.shape {
            QueryShape::EntropyTopK { k } | QueryShape::MiTopK { k, .. } => assert_eq!(*k, 2),
            QueryShape::EntropyFilter { eta } | QueryShape::MiFilter { eta, .. } => {
                assert!(*eta > 0.0)
            }
            QueryShape::EntropyProfile | QueryShape::MiProfile { .. } => {}
        }
        let shape_name: &'static str = spec.shape.name();
        assert!(target.contains(&shape_name.replace("top_k", "topk").replace('_', "-")));
        assert_eq!(spec.is_scoped(), spec.row_start.is_some() || spec.where_clause.is_some());

        let key = cache_key(&spec, entry.generation);
        assert!(results.get(&key).is_none());
        let mut obs = PhaseSpans {
            gather: gather_stats::snapshot(),
            phases: Vec::new(),
            gathered_rows: 0,
            gather_nanos: 0,
        };
        let body = run_query(&entry, &spec, &exec, &mut obs).unwrap();
        assert!(obs.phases.contains(&"core.decide"), "{target}");
        // Only staged rows are gathered: an unscoped heap entropy query
        // reads whole pages as runs in place; a range's fringe, a
        // predicate's members and every MI target's codes are staged.
        if target == targets[0] {
            assert_eq!(obs.gathered_rows, 0, "{target}: runs were staged");
        } else {
            assert!(obs.gathered_rows > 0, "{target}: no rows gathered in {} ns", obs.gather_nanos);
        }
        results.put(key.clone(), Arc::new(body.clone()));
        assert_eq!(results.get(&key).as_deref(), Some(&body));
        let response = Response::json(200, body.as_str()).with_header("X-Swope-Cache", "miss");
        assert!(response.serialize(true).len() > body.len());

        // Heap and paged answers are byte-identical (the correctness gate).
        assert_eq!(run_query(&paged, &spec, &exec, &mut NoopObserver).unwrap(), body, "{target}");
    }
    gather_stats::set_enabled(false);

    // replay.rs::PhaseSpans / run: `PageCache::new(Option<u64>)` above,
    // then `snapshot()`, `since()` and these six fields by name.
    // `decompressions` is frozen at 0 (the tier it counted is gone) the
    // way the two `*_scoped_exec` below are frozen: `benchmark/` reads it.
    let before: PagerSnapshot = PageCache::new(Some(200_000)).snapshot();
    assert_eq!(before, PagerSnapshot { budget_bytes: Some(200_000), ..PagerSnapshot::default() });
    let delta: PagerSnapshot = cache.snapshot().since(&before);
    assert!(delta.faults > 0, "the paged queries above admitted pages");
    let _fault_us_avg = delta.fault_nanos as f64 / delta.faults as f64 / 1e3;
    assert_eq!(delta.crc_validations, delta.faults, "nothing was evicted, so first touches only");
    assert_eq!((delta.evictions, delta.decompressions), (0, 0));
    assert!(delta.peak_resident_bytes > 0 && delta.peak_resident_bytes <= 200_000);

    // replay.rs::parallel_speedup mutates the spec's thread count.
    let mut chosen = parse_wire(targets[4]);
    chosen.threads = 2;
    run_query(&entry, &chosen, &Executor::new(2), &mut NoopObserver).unwrap();

    // replay.rs::sketch_over_physical: the two frozen scoped entry points.
    let spec = parse_wire(targets[1]);
    let cfg = SwopeConfig::with_epsilon(spec.epsilon).with_threads(1).with_seed(spec.seed.unwrap());
    let scope = Scope { row_start: spec.row_start, row_end: spec.row_end, predicate: None };
    for sketch in [Some(&*entry.sketch), None] {
        let ds = &*entry.dataset;
        let top: TopKResult =
            entropy_top_k_scoped_exec(ds, 2, &scope, sketch, &cfg, &mut NoopObserver, &exec)
                .unwrap();
        let kept: FilterResult =
            entropy_filter_scoped_exec(ds, 1.5, &scope, sketch, &cfg, &mut NoopObserver, &exec)
                .unwrap();
        assert_eq!(top.top.len(), 2);
        assert!(kept.stats.sample_size <= 2400);
    }

    // replay.rs::codec_times: one shard's counts through the frame codec.
    let mut source = LocalShardSource::new(&ds, 2, &SwopeConfig::default(), &exec).unwrap();
    let request = CountRequest { target: None, live: (0..ds.num_attrs()).collect() };
    let mut counts = source.advance(1024, &request).unwrap().swap_remove(0);
    let frame = Frame::CountMerge(CountMergeFrame::from_counts(&mut counts));
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &frame).unwrap();
    read_frame(&mut encoded.as_slice()).unwrap();

    // golden.rs::check_definition: exact scores and the two definitions.
    let exact: Vec<f64> = exact_entropy_scores(&ds);
    let exact_mi: Vec<f64> = exact_mi_scores(&ds, 1);
    assert_eq!((exact.len(), exact_mi.len()), (ds.num_attrs(), ds.num_attrs()));
    let mut best = exact.clone();
    best.sort_by(|a, b| b.total_cmp(a));
    let winner = exact.iter().position(|&s| s == best[0]).unwrap();
    assert!(definition5_condition2(&[winner], &best, |a| exact[a], 0.1));
    let scores: Vec<(usize, f64)> = exact.iter().copied().enumerate().collect();
    let everything: Vec<usize> = (0..exact.len()).collect();
    assert!(definition6_compliant(&everything, &scores, 0.0, 0.1));

    // replay.rs::start_backend, cluster topology: two peers behind a
    // coordinator call, serving what the single box serves.
    let cut = ROWS / 2;
    let halves = [(0..cut, "a"), (cut..ROWS, "b")].map(|(rows, sub)| {
        let rows: Vec<usize> = rows.collect();
        write_snapshot(&ds.take_rows(&rows), &dir.join(sub), "cdcx")
    });
    let peers = [spawn_server(&halves[0], None), spawn_server(&halves[1], Some(200_000))];
    let addrs: Vec<String> = peers.iter().map(|(addr, _)| addr.clone()).collect();
    let stats = Arc::new(ClusterStats::new());
    let timeouts = PeerTimeouts::default();
    let union_rows = probe(&addrs, &timeouts, &stats).unwrap().union_rows;
    assert_eq!(union_rows, ROWS as u64);
    let target = ClusterTarget { addrs, timeouts, union_rows, pool: Arc::new(PeerPool::new(1)) };
    for path in [targets[0], targets[1], targets[3]] {
        let spec = parse_wire(path);
        let want = run_query(&entry, &spec, &exec, &mut NoopObserver).unwrap();
        let got = run_query_cluster(&target, &stats, &spec, &exec, &mut NoopObserver).unwrap();
        assert_eq!(got, want, "{path}");
    }
    assert!(stats.snapshot().frames_sent > 0);

    for (_, handle) in &peers {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}
