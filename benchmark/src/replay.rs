//! The traced replay: the workload's request list served in this process
//! through the layers' public functions, each call wrapped in a span.
//!
//! Per request, in the order `swope-server` calls them:
//! `http::parse_request` → `query::parse_spec` → `query::cache_key` +
//! `ResultCache::get` → `query::run_query` (or `run_query_cluster`) with
//! an observer whose phase callbacks become child spans → `ResultCache::
//! put` → `Response::serialize`. Counts come from the response's `stats`
//! block and from counter deltas (`gather_stats`, `PagerSnapshot`,
//! `ClusterStats`) taken around the same calls.
//!
//! The list is replayed four times against one result cache: a warm-up
//! (so caches and page residency are in the steady state the end-to-end
//! passes measure), two untraced passes (per-request floor of the wall
//! without observer — the baseline for transport cost and tracing
//! overhead) and the traced pass every other number comes from.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use swope_cluster::frame::{read_frame, write_frame, CountMergeFrame, Frame};
use swope_cluster::{probe, ClusterStats, PeerPool, PeerTimeouts};
use swope_columnar::PageCache;
use swope_core::{
    entropy_filter_scoped_exec, entropy_top_k_scoped_exec, gather_stats, CountRequest, Executor,
    LocalShardSource, NoopObserver, Phase, QueryObserver, Scope, ShardTransport, SwopeConfig,
};
use swope_obs::json::Json;
use swope_server::http::Response;
use swope_server::query::{
    cache_key, run_query, run_query_cluster, ClusterTarget, QueryShape, QuerySpec,
};
use swope_server::{DatasetEntry, ResultCache};

use crate::e2e::{Measured, Verifier};
use crate::golden::{load_heap, load_paged, parse_http, parse_query, parse_wire};
use crate::metrics::{Metric, Values};
use crate::proc::ServerProc;
use crate::span::{self_times, write_jsonl, Recorder};
use crate::stats::mean;
use crate::workload::{Deployment, Request, Topology, Workload};

/// Where replayed queries run.
enum Backend {
    /// A dataset registered in this process (heap or paged).
    Local(Arc<DatasetEntry>),
    /// Peer child processes behind an in-process coordinator call.
    Cluster { target: ClusterTarget, stats: Arc<ClusterStats>, _peers: Vec<ServerProc> },
}

impl Backend {
    fn run<O: QueryObserver>(
        &self,
        spec: &QuerySpec,
        obs: &mut O,
    ) -> Result<String, (u16, String)> {
        let exec = Executor::sequential();
        match self {
            Backend::Local(entry) => run_query(entry, spec, &exec, obs),
            Backend::Cluster { target, stats, .. } => {
                run_query_cluster(target, stats, spec, &exec, obs)
            }
        }
    }

    /// The generation cache keys are built with (a coordinator pins 1).
    fn generation(&self) -> u64 {
        match self {
            Backend::Local(entry) => entry.generation,
            Backend::Cluster { .. } => 1,
        }
    }

    /// Rows of the (union) population.
    fn rows(&self) -> u64 {
        match self {
            Backend::Local(entry) => entry.dataset.num_rows() as u64,
            Backend::Cluster { target, .. } => target.union_rows,
        }
    }
}

/// How a replayed request is observed: with spans, or not at all.
trait Tracer {
    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32;
    fn close(&mut self, id: u32);
    fn set_items(&mut self, id: u32, items: u64);
    fn run(
        &mut self,
        backend: &Backend,
        spec: &QuerySpec,
        parent: u32,
    ) -> Result<String, (u16, String)>;
}

struct Untraced;

impl Tracer for Untraced {
    fn open(&mut self, _: &'static str, _: Option<u32>) -> u32 {
        0
    }
    fn close(&mut self, _: u32) {}
    fn set_items(&mut self, _: u32, _: u64) {}
    fn run(
        &mut self,
        backend: &Backend,
        spec: &QuerySpec,
        _: u32,
    ) -> Result<String, (u16, String)> {
        backend.run(spec, &mut NoopObserver)
    }
}

/// Spans of one request, recorded into the shared recorder.
struct Traced<'a> {
    rec: &'a mut Recorder,
    request: u32,
    pager: Option<&'a PageCache>,
}

impl Tracer for Traced<'_> {
    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        self.rec.open(self.request, name, parent)
    }
    fn close(&mut self, id: u32) {
        self.rec.close(id);
    }
    fn set_items(&mut self, id: u32, items: u64) {
        self.rec.set_items(id, items);
    }
    fn run(
        &mut self,
        backend: &Backend,
        spec: &QuerySpec,
        parent: u32,
    ) -> Result<String, (u16, String)> {
        let mut obs = PhaseSpans {
            rec: self.rec,
            request: self.request,
            parent,
            gather: gather_stats::snapshot(),
            pager: self.pager.map(|p| (p, p.snapshot())),
        };
        backend.run(spec, &mut obs)
    }
}

/// The layer a core phase's time is booked to.
fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::SampleGrow => "sampling.grow",
        Phase::Ingest => "store.ingest",
        Phase::UpdateBounds => "estimate.bounds",
        Phase::Decide => "core.decide",
        Phase::StoreSketch => "sketch.resolve",
        Phase::ShardMerge => "cluster.merge",
    }
}

/// Turns the adaptive loop's phase callbacks into spans. A callback
/// arrives when its phase ends and carries the duration, so the span is
/// `[now − nanos, now]`. Gathers and page faults that happened since the
/// previous callback happened inside this phase; their summed times
/// become a `store.gather` child and a `pager.fault` grandchild.
struct PhaseSpans<'a> {
    rec: &'a mut Recorder,
    request: u32,
    parent: u32,
    gather: gather_stats::GatherSnapshot,
    pager: Option<(&'a PageCache, swope_columnar::PagerSnapshot)>,
}

impl QueryObserver for PhaseSpans<'_> {
    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        let end = self.rec.now_ns();
        let start = end.saturating_sub(nanos);
        let mut parent = self.rec.record(
            self.request,
            phase_layer(phase),
            Some(self.parent),
            start,
            end,
            iteration as u64,
        );
        let now = gather_stats::snapshot();
        let gathered = now.since(self.gather);
        self.gather = now;
        if gathered.calls > 0 {
            parent = self.rec.record(
                self.request,
                "store.gather",
                Some(parent),
                start,
                start + gathered.nanos,
                gathered.rows,
            );
        }
        if let Some((cache, before)) = &mut self.pager {
            let now = cache.snapshot();
            let faulted = now.since(before);
            *before = now;
            if faulted.faults > 0 {
                self.rec.record(
                    self.request,
                    "pager.fault",
                    Some(parent),
                    start,
                    start + faulted.fault_nanos,
                    faulted.faults,
                );
            }
        }
    }
}

/// One request served through the layers.
struct Served {
    wall_ns: u64,
    hit: bool,
    /// Snake-case shape name, as in `core.<shape>.ms_per_query`.
    shape: &'static str,
    /// The body and the wall of the `query.run` call that produced it,
    /// when this request ran the adaptive loop.
    computed: Option<(Arc<String>, u64)>,
    response_bytes: usize,
}

fn serve<T: Tracer>(
    backend: &Backend,
    cache: &ResultCache,
    request: &Request,
    tracer: &mut T,
) -> Result<(Served, Arc<String>), String> {
    let started = Instant::now();
    let root = tracer.open("request", None);

    let span = tracer.open("server.http.parse", Some(root));
    let parsed = parse_http(request)?;
    tracer.close(span);

    let span = tracer.open("server.query.parse_spec", Some(root));
    let spec = parse_query(&parsed)?;
    tracer.close(span);

    let span = tracer.open("server.cache.lookup", Some(root));
    let key = cache_key(&spec, backend.generation());
    let cached = cache.get(&key);
    tracer.close(span);

    let hit = cached.is_some();
    let (body, computed) = match cached {
        Some(body) => (body, None),
        None => {
            let span = tracer.open("query.run", Some(root));
            let run_started = Instant::now();
            let body = tracer
                .run(backend, &spec, span)
                .map_err(|(status, msg)| format!("{}: {status} {msg}", request.target))?;
            let run_ns = run_started.elapsed().as_nanos() as u64;
            tracer.close(span);
            let body = Arc::new(body);
            let span = tracer.open("server.cache.insert", Some(root));
            cache.put(key, Arc::clone(&body));
            tracer.close(span);
            (Arc::clone(&body), Some((body, run_ns)))
        }
    };

    let span = tracer.open("server.http.serialize", Some(root));
    let response = Response::json(200, body.as_str())
        .with_header("X-Swope-Cache", if hit { "hit" } else { "miss" });
    let bytes = std::hint::black_box(response.serialize(true));
    tracer.set_items(span, bytes.len() as u64);
    tracer.close(span);

    tracer.close(root);
    let served = Served {
        wall_ns: started.elapsed().as_nanos() as u64,
        hit,
        shape: spec.shape.name(),
        computed,
        response_bytes: bytes.len(),
    };
    Ok((served, body))
}

/// One untraced pass; returns each request's wall in ns.
fn untraced_pass(
    backend: &Backend,
    cache: &ResultCache,
    workload: &Workload,
    verifier: &mut Verifier,
) -> Result<Vec<u64>, String> {
    let mut walls = Vec::with_capacity(workload.requests.len());
    for (index, request) in workload.requests.iter().enumerate() {
        let (served, body) = serve(backend, cache, request, &mut Untraced)?;
        walls.push(served.wall_ns);
        verifier.check(index, &request.target, 200, body.as_bytes());
    }
    Ok(walls)
}

/// A warm-up pass, then two more: the summed per-request floor of those
/// two, in ns (the replay's counterpart of a settled latency).
fn untraced_floor(
    backend: &Backend,
    cache: &ResultCache,
    workload: &Workload,
    verifier: &mut Verifier,
) -> Result<u64, String> {
    untraced_pass(backend, cache, workload, verifier)?;
    let first = untraced_pass(backend, cache, workload, verifier)?;
    let second = untraced_pass(backend, cache, workload, verifier)?;
    Ok(first.iter().zip(&second).map(|(a, b)| a.min(b)).sum())
}

/// Counts that must repeat exactly between two runs of the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCounts {
    pub rows_scanned: u64,
    pub iterations: u64,
    pub wire_bytes: u64,
    pub page_faults: u64,
}

impl std::fmt::Display for ExactCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows_scanned={} iterations={} wire_bytes={} page_faults={}",
            self.rows_scanned, self.iterations, self.wire_bytes, self.page_faults
        )
    }
}

/// The `stats` block of one computed body.
struct QueryStatsBlock {
    sample_size: u64,
    iterations: u64,
    rows_scanned: u64,
    converged_early: bool,
}

fn stats_block(body: &str) -> Result<QueryStatsBlock, String> {
    let json = Json::parse(body)?;
    let stats = json.get("stats").ok_or("body has no stats block")?;
    let field = |name: &str| {
        stats.get(name).and_then(Json::as_u64).ok_or_else(|| format!("stats block lacks {name}"))
    };
    Ok(QueryStatsBlock {
        sample_size: field("sample_size")?,
        iterations: field("iterations")?,
        rows_scanned: field("rows_scanned")?,
        converged_early: stats.get("converged_early").and_then(Json::as_bool).unwrap_or(false),
    })
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Brings up what the replayed queries run against: the heap copy itself,
/// the snapshot re-opened under the workload's page budget (with its
/// page cache), or two peer processes behind a coordinator target.
fn start_backend(
    workload: &Workload,
    deployment: &Deployment,
    heap: &Arc<DatasetEntry>,
) -> Result<(Backend, Option<Arc<PageCache>>), String> {
    match workload.topology {
        Topology::Heap => Ok((Backend::Local(Arc::clone(heap)), None)),
        Topology::Paged => {
            let cache = Arc::new(PageCache::new(deployment.front.budget_bytes));
            let entry = load_paged(&deployment.snapshot, &cache)?;
            Ok((Backend::Local(entry), Some(cache)))
        }
        Topology::Cluster => {
            let peers =
                deployment.peers.iter().map(ServerProc::spawn).collect::<Result<Vec<_>, _>>()?;
            let addrs: Vec<String> = peers.iter().map(|p| p.addr.to_string()).collect();
            let stats = Arc::new(ClusterStats::new());
            let timeouts = PeerTimeouts::default();
            let union_rows =
                probe(&addrs, &timeouts, &stats).map_err(|e| e.to_string())?.union_rows;
            let target =
                ClusterTarget { addrs, timeouts, union_rows, pool: Arc::new(PeerPool::new(1)) };
            Ok((Backend::Cluster { target, stats, _peers: peers }, None))
        }
    }
}

/// Replays `workload` and returns every per-layer metric plus the counts
/// `--aa` compares. `e2e` is the short end-to-end measurement taken just
/// before, the reference for transport cost.
pub fn run(
    workload: &Workload,
    deployment: &Deployment,
    e2e: &Measured,
    verifier: &mut Verifier,
    vocabulary: &[Metric],
    trace_path: &Path,
) -> Result<(Values, ExactCounts), String> {
    let mut values = Values::new(vocabulary);
    let n = workload.requests.len() as f64;

    // Bring the backend up, timing the loads that `setup_s` pays for.
    let started = Instant::now();
    let heap = load_heap(&deployment.snapshot)?;
    values.set("columnar.load_s", secs(started));
    let started = Instant::now();
    let (backend, pager) = start_backend(workload, deployment, &heap)?;
    if pager.is_some() {
        values.set("columnar.open_paged_s", secs(started));
    }

    let cache = ResultCache::new(workload.cache_capacity);
    let untraced_ns = untraced_floor(&backend, &cache, workload, verifier)?;

    // The traced pass.
    let cluster_before = match &backend {
        Backend::Cluster { stats, .. } => Some(stats.snapshot()),
        Backend::Local(_) => None,
    };
    let pager_before = pager.as_ref().map(|p| p.snapshot());
    let mut rec = Recorder::new();
    let mut served = Vec::with_capacity(workload.requests.len());
    gather_stats::set_enabled(true);
    for (index, request) in workload.requests.iter().enumerate() {
        let mut tracer = Traced { rec: &mut rec, request: index as u32, pager: pager.as_deref() };
        let (one, body) = serve(&backend, &cache, request, &mut tracer)?;
        verifier.check(index, &request.target, 200, body.as_bytes());
        served.push(one);
    }
    gather_stats::set_enabled(false);
    let traced_ns: u64 = served.iter().map(|s| s.wall_ns).sum();

    // Span sums by layer.
    let spans = rec.spans();
    let selfs = self_times(spans);
    let total_ns = |name: &str| -> f64 {
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).sum()
    };
    let per_req_us = |name: &str| total_ns(name) / n / 1e3;
    let per_query_ms = |name: &str| total_ns(name) / n / 1e6;
    values.set("server.http.parse_us_per_req", per_req_us("server.http.parse"));
    values.set("server.http.serialize_us_per_req", per_req_us("server.http.serialize"));
    values.set("server.query.parse_spec_us_per_req", per_req_us("server.query.parse_spec"));
    values.set("server.cache.lookup_us_per_req", per_req_us("server.cache.lookup"));
    values.set("server.cache.insert_us_per_req", per_req_us("server.cache.insert"));
    values.set(
        "server.http.response_bytes_per_req",
        served.iter().map(|s| s.response_bytes as f64).sum::<f64>() / n,
    );
    values.set("server.cache.hit_ratio", served.iter().filter(|s| s.hit).count() as f64 / n);
    values.set(
        "server.conn.transport_us_per_req",
        e2e.settled_mean_ms * 1e3 - untraced_ns as f64 / n / 1e3,
    );
    values.set("core.decide_ms_per_query", per_query_ms("core.decide"));
    values.set("sampling.grow_ms_per_query", per_query_ms("sampling.grow"));
    values.set("store.ingest_ms_per_query", per_query_ms("store.ingest"));
    values.set("store.gather_ms_per_query", per_query_ms("store.gather"));
    values.set("estimate.bounds_ms_per_query", per_query_ms("estimate.bounds"));
    values.set("sketch.resolve_ms_per_query", per_query_ms("sketch.resolve"));
    values.set("cluster.merge_ms_per_query", per_query_ms("cluster.merge"));

    // Coverage: the share of request wall that lands in a named layer.
    // The `request` root and the `query.run` wrapper are not layers;
    // their self time is exactly what no layer span accounts for.
    let request_ns = total_ns("request");
    let attributed: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name != "request" && s.name != "query.run")
        .map(|(_, &ns)| ns as f64)
        .sum();
    values.set("obs.span_coverage_pct", attributed / request_ns * 100.0);
    values.set(
        "obs.trace_overhead_pct",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0,
    );

    // Counts from the bodies the traced pass computed.
    let mut counts = ExactCounts { rows_scanned: 0, iterations: 0, wire_bytes: 0, page_faults: 0 };
    let mut fractions = Vec::new();
    let mut early = 0u64;
    let mut shape_ms: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for one in &served {
        let Some((body, run_ns)) = &one.computed else { continue };
        let block = stats_block(body)?;
        counts.rows_scanned += block.rows_scanned;
        counts.iterations += block.iterations;
        fractions.push(block.sample_size as f64 / backend.rows() as f64);
        early += u64::from(block.converged_early);
        shape_ms.entry(one.shape).or_default().push(*run_ns as f64 / 1e6);
    }
    values.set("core.rows_scanned_per_query", counts.rows_scanned as f64 / n);
    values.set("core.iterations_per_query", counts.iterations as f64 / n);
    values.set("core.sample_fraction", mean(&fractions));
    values.set("core.converged_early_ratio", early as f64 / fractions.len() as f64);
    values.set("store.ingest_ns_per_row", total_ns("store.ingest") / counts.rows_scanned as f64);
    for (shape, ms) in &shape_ms {
        values.set(&format!("core.{shape}.ms_per_query"), mean(ms));
    }

    if let (Some(cache), Some(before)) = (&pager, &pager_before) {
        let delta = cache.snapshot().since(before);
        counts.page_faults = delta.faults;
        values.set("pager.faults_per_query", delta.faults as f64 / n);
        values.set("pager.fault_us_avg", delta.fault_nanos as f64 / delta.faults as f64 / 1e3);
        values.set("pager.fault_ms_per_query", delta.fault_nanos as f64 / n / 1e6);
        values.set("pager.evictions_per_query", delta.evictions as f64 / n);
        values.set("pager.decompressions_per_query", delta.decompressions as f64 / n);
        values.set("pager.crc_validations_per_query", delta.crc_validations as f64 / n);
        values.set("pager.peak_resident_mb", delta.peak_resident_bytes as f64 / (1 << 20) as f64);
    }
    if let (Backend::Cluster { stats, .. }, Some(before)) = (&backend, cluster_before) {
        let now = stats.snapshot();
        counts.wire_bytes =
            (now.bytes_sent - before.bytes_sent) + (now.bytes_received - before.bytes_received);
        let frames =
            (now.frames_sent - before.frames_sent) + (now.frames_received - before.frames_received);
        let reuses = (now.conn_reuses - before.conn_reuses) as f64;
        let opened = (now.conns_opened - before.conns_opened) as f64;
        values.set("cluster.wire_bytes_per_query", counts.wire_bytes as f64 / n);
        values.set("cluster.frames_per_query", frames as f64 / n);
        values.set("cluster.round_trips_per_query", (now.merges - before.merges) as f64 / n);
        values.set("cluster.conn_reuse_ratio", reuses / (reuses + opened));
    }

    values.set("client.raw_p50_ms", e2e.raw_p50_ms);
    values.set("client.raw_p99_ms", e2e.raw_p99_ms);
    values.set("client.pass_spread_pct", e2e.pass_spread_pct);

    // Side experiments, after the passes so they cannot disturb them.
    match workload.topology {
        Topology::Heap if values.get("server.cache.hit_ratio") < 1.0 => {
            values.set("core.exec.parallel_speedup", parallel_speedup(&heap, workload)?);
        }
        Topology::Heap => {}
        Topology::Paged => {
            values.set("core.scope.sketch_over_physical", sketch_over_physical(&heap, workload)?);
            // Last of all: one unscoped query drags every page of every
            // column through the budget.
            let mut spec = parse_wire(&workload.requests[0])?;
            spec.shape = QueryShape::EntropyTopK { k: 4 };
            (spec.row_start, spec.row_end, spec.where_clause) = (None, None, None);
            let started = Instant::now();
            backend
                .run(&spec, &mut NoopObserver)
                .map_err(|(s, m)| format!("thrash query: {s} {m}"))?;
            values.set("pager.unscoped_thrash_ms", secs(started) * 1e3);
        }
        Topology::Cluster => {
            let single = Backend::Local(Arc::clone(&heap));
            let single_cache = ResultCache::new(workload.cache_capacity);
            let single_ns = untraced_floor(&single, &single_cache, workload, verifier)?;
            values.set("cluster.shard_overhead", untraced_ns as f64 / single_ns as f64);
            let (encode_us, decode_us) = codec_times(&heap)?;
            values.set("cluster.codec_encode_us_per_frame", encode_us);
            values.set("cluster.codec_decode_us_per_frame", decode_us);
        }
    }

    write_jsonl(spans, trace_path)?;
    Ok((values, counts))
}

/// The library configuration a spec maps to (what `run_query` builds).
fn config_for(spec: &QuerySpec, threads: usize) -> SwopeConfig {
    let mut cfg = SwopeConfig::with_epsilon(spec.epsilon).with_threads(threads);
    cfg.failure_probability = spec.pf;
    if let Some(seed) = spec.seed {
        cfg = cfg.with_seed(seed);
    }
    cfg
}

/// Wall of the list's heaviest shape (a profile if it has one, else its
/// first request) on one thread over the wall on a two-thread executor.
fn parallel_speedup(entry: &Arc<DatasetEntry>, workload: &Workload) -> Result<f64, String> {
    let mut chosen = parse_wire(&workload.requests[0])?;
    for request in &workload.requests {
        let spec = parse_wire(request)?;
        if matches!(spec.shape, QueryShape::EntropyProfile | QueryShape::MiProfile { .. }) {
            chosen = spec;
            break;
        }
    }
    let pool = Executor::new(2);
    let mut time = |threads: usize, exec: &Executor| -> Result<f64, String> {
        chosen.threads = threads;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            run_query(entry, &chosen, exec, &mut NoopObserver)
                .map_err(|(s, m)| format!("speedup query: {s} {m}"))?;
            best = best.min(secs(started));
        }
        Ok(best)
    };
    let one = time(1, &Executor::sequential())?;
    let two = time(2, &pool)?;
    Ok(one / two)
}

/// The same range-scoped queries on hot heap data, resolved through the
/// partition sketch (`sk = Some`, what the server does) over resolved
/// physically (`sk = None`): ROADMAP's bar is a ratio ≤ 1.
fn sketch_over_physical(entry: &Arc<DatasetEntry>, workload: &Workload) -> Result<f64, String> {
    let ranged = workload.requests.iter().filter(|r| !r.target.contains("where=")).take(16);
    let exec = Executor::sequential();
    let (mut with, mut without) = (0.0, 0.0);
    for request in ranged {
        let spec = parse_wire(request)?;
        let cfg = config_for(&spec, 1);
        let scope = Scope { row_start: spec.row_start, row_end: spec.row_end, predicate: None };
        for (sketch, wall) in [(Some(&*entry.sketch), &mut with), (None, &mut without)] {
            let ds = &*entry.dataset;
            let started = Instant::now();
            match &spec.shape {
                QueryShape::EntropyTopK { k } => entropy_top_k_scoped_exec(
                    ds,
                    *k,
                    &scope,
                    sketch,
                    &cfg,
                    &mut NoopObserver,
                    &exec,
                )
                .map(drop),
                QueryShape::EntropyFilter { eta } => entropy_filter_scoped_exec(
                    ds,
                    *eta,
                    &scope,
                    sketch,
                    &cfg,
                    &mut NoopObserver,
                    &exec,
                )
                .map(drop),
                other => return Err(format!("paged list holds a {} query", other.name())),
            }
            .map_err(|e| format!("{}: {e}", request.target))?;
            *wall += secs(started);
        }
    }
    Ok(with / without)
}

/// Encode and decode time (µs) of a real `CountMerge` frame: one of two
/// shards' counts for every attribute at a sample of 8192 rows.
fn codec_times(entry: &Arc<DatasetEntry>) -> Result<(f64, f64), String> {
    let exec = Executor::sequential();
    let cfg = SwopeConfig::default();
    let ds = &*entry.dataset;
    let mut source = LocalShardSource::new(ds, 2, &cfg, &exec).map_err(|e| e.to_string())?;
    let request = CountRequest { target: None, live: (0..ds.num_attrs()).collect() };
    let mut counts = source.advance(8192, &request).map_err(|e| e.to_string())?.swap_remove(0);
    let frame = Frame::CountMerge(CountMergeFrame::from_counts(&mut counts));
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &frame).map_err(|e| e.to_string())?;
    const REPEATS: usize = 50;
    let started = Instant::now();
    for _ in 0..REPEATS {
        let mut buf = Vec::with_capacity(encoded.len());
        write_frame(&mut buf, &frame).map_err(|e| e.to_string())?;
        std::hint::black_box(buf);
    }
    let encode_us = secs(started) * 1e6 / REPEATS as f64;
    let started = Instant::now();
    for _ in 0..REPEATS {
        let decoded = read_frame(&mut encoded.as_slice()).map_err(|e| e.to_string())?;
        std::hint::black_box(decoded);
    }
    Ok((encode_us, secs(started) * 1e6 / REPEATS as f64))
}
