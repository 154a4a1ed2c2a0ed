//! The server proper: the event loop, admission control, routing, and
//! graceful shutdown.
//!
//! One *event thread* owns every connection: a level-triggered
//! [`Poller`] (epoll on Linux, `poll(2)` elsewhere — see
//! [`crate::event`]) drives per-connection state machines
//! ([`crate::conn`]) through reading → dispatched → writing →
//! keep-alive idle. Idle clients cost a file descriptor, not a thread:
//! the fixed [`WorkerPool`] is purely a *compute* stage, and a request
//! that needs no compute never reaches it. The path of a request is
//!
//! ```text
//! parse → quota → lookup → hit:  flush
//!                          miss: shed check → worker → flush
//! ```
//!
//! all but the `worker` step on the event thread. When a complete request
//! parses, admission control runs in that order: the tenant's token
//! bucket ([`crate::quota`], 429 + `Retry-After`); for a `GET /query/*`,
//! the result-cache lookup — spec, dataset generation, key, one
//! [`ResultCache::get`] — whose hit (like a 400 or an unknown dataset)
//! is answered there and then, keeping its place among pipelined
//! responses; and only for what is left the exact queue-depth shed check
//! (503 + `Retry-After`). A saturated pool therefore never sheds an
//! answer the server already holds. A miss crosses to a worker once,
//! carrying its parsed spec, key and registry entry, so the worker runs
//! the adaptive loop and stores the body without parsing or looking up
//! again; every other endpoint is routed on the worker. The worker pushes
//! the finished [`Response`] back through a completion queue, waking the
//! event thread via a self-pipe; the event thread serializes and flushes
//! it, honoring `Connection: close`/HTTP/1.0 semantics and parsing
//! pipelined requests back-to-back out of the same buffer. The event
//! thread is the sole producer into the pool's bounded queue, so checking
//! the queue depth before dispatch is an exact admission decision, and a
//! worker that dequeues a request past its deadline answers 503 without
//! running the query.
//!
//! Which side of the hand-off a query is answered on is decided by the
//! lookup's result alone, never by an option: a traced query takes the
//! same path as an untraced one, and its trace records that path.
//!
//! Slow-loris clients (partial request older than the read timeout) and
//! stalled response writes are killed by a periodic timeout scan;
//! keep-alive idle expiry closes quietly. Shutdown (via
//! [`ServerHandle::shutdown`] or, when enabled, SIGINT/SIGTERM) drains:
//! stop accepting, close idle connections, finish in-flight requests,
//! then return from `run`.
//!
//! ## Request tracing
//!
//! Every `/query/*` request is traced when the server runs with
//! `trace: true` or when the client sends an `X-Swope-Trace` header
//! (any 1–16 hex digits; an unparseable value gets a fresh id). Admission
//! opens the trace before the lookup, on a clock anchored at the
//! request's *arrival* (its first byte — for the first request on a
//! connection, the moment it was accepted), so `start_ns: 0` is arrival;
//! the lookup records `cache_lookup` under the root `request` span. A
//! hit, a 400, a 404 or a shed 503 finishes the trace on the event
//! thread. A miss carries its trace to the worker, which records
//! `queue_wait` (admission queueing it → worker pickup) and the query's
//! spans before finishing it with whatever answer it gives. Finished
//! traces land in a bounded [`TraceRecorder`] behind `GET /debug/traces`,
//! with slow ones (wall time ≥ `slow_ms`) retained preferentially behind
//! `GET /debug/slow`. The trace id is echoed back in the response's
//! `X-Swope-Trace` header in canonical 16-hex-digit form.

use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use swope_cluster::{probe, serve_connection, ClusterStats, PeerDataset, PeerPool, PeerTimeouts};
use swope_columnar::PageCache;
use swope_core::{gather_stats, ComposedObserver, Executor, QueryObserver};
use swope_obs::json::Json;
use swope_obs::trace::{SpanSink, TraceId, TraceObserver, TraceRecord, TraceRecorder};

use crate::cache::ResultCache;
use crate::conn::{Conn, ConnState, Parsed, Pump};
use crate::event::{new_poller, Interest, Poller, WakePipe};
use crate::http::{Request, Response};
use crate::metrics::{ServerMetrics, TraceCounters};
use crate::pool::{QueueWatcher, WorkerPool};
use crate::query::{cache_key, parse_spec, run_query, run_query_cluster, ClusterTarget, QuerySpec};
use crate::quota::{Admission, TenantQuotas, ANONYMOUS_TENANT};
use crate::registry::{DatasetEntry, DatasetRegistry};
use crate::signal;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub threads: usize,
    /// Bounded queue of parsed-but-unserved requests; beyond this the
    /// server sheds with 503.
    pub queue_capacity: usize,
    /// Result-cache entries (`0` disables caching). Keep it in the
    /// hundreds: storing a miss scans every entry for the eviction victim
    /// under the lock the event thread's lookups take
    /// ([`crate::cache`]).
    pub cache_capacity: usize,
    /// Maximum time a request may wait in the queue before a worker picks
    /// it up; older requests are answered 503 without running.
    pub deadline: Duration,
    /// Kill threshold for slow-loris clients: a connection holding a
    /// *partial* request (or a stalled response write) older than this is
    /// answered 408 where possible and closed.
    pub read_timeout: Duration,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Support cap applied to datasets at load (default
    /// [`swope_columnar::DEFAULT_MAX_SUPPORT`]).
    pub max_support: u32,
    /// Install SIGINT/SIGTERM handlers and honour them in the event loop.
    pub handle_signals: bool,
    /// Threads in the process-wide execution pool that queries asking for
    /// `threads > 1` share (`<= 1` disables the pool entirely). The pool
    /// is built once at bind time and reused by every query, so no query
    /// pays thread-spawn latency. Defaults to the machine's available
    /// parallelism.
    pub exec_threads: usize,
    /// Trace every query request (otherwise only requests carrying an
    /// `X-Swope-Trace` header are traced). Also enables the storage
    /// layer's gather timing, so traces include `store_gather` spans.
    pub trace: bool,
    /// Wall-time threshold above which a traced request is retained in
    /// the slow-query flight recorder (`GET /debug/slow`).
    pub slow_ms: u64,
    /// Append one logfmt line per served request to this file.
    pub access_log: Option<String>,
    /// Peer shard-servers (`--peer host:port`, repeatable). When
    /// non-empty this server is a cluster *coordinator*: every `/query/*`
    /// is fanned out over the exact count-merge protocol and answered
    /// from the union of the peers' datasets, laid end to end in this
    /// order. Empty means single-box operation (the default). Any server
    /// — coordinator or not — also answers the binary shard protocol on
    /// its HTTP port (connections are sniffed by the `SWPC` magic).
    pub peers: Vec<String>,
    /// TCP connect deadline per peer (coordinator side).
    pub peer_connect_timeout: Duration,
    /// Read/write deadline per protocol frame (coordinator side). Bounds
    /// every wait on a peer, so a killed peer degrades to a one-line 503
    /// instead of a hung worker.
    pub peer_io_timeout: Duration,
    /// How long a keep-alive connection may sit idle (no request bytes)
    /// before the server closes it. Also bounds freshly accepted
    /// connections that never send a byte.
    pub keep_alive: Duration,
    /// Cap on concurrently open client connections; connections accepted
    /// past it are answered 503 and closed immediately.
    pub max_conns: usize,
    /// Per-tenant admission rate in requests/second, keyed by the
    /// `X-Swope-Api-Key` header (`None` disables quotas entirely).
    pub tenant_rps: Option<f64>,
    /// Per-tenant token-bucket capacity (burst size). Defaults to twice
    /// the rate, floored at 1.
    pub tenant_burst: Option<f64>,
    /// Serve `.swop` snapshots out-of-core: map the file (mmap where
    /// available, buffered reads otherwise) and read 65 536-row pages in
    /// place, on demand, under the process-wide page cache instead of
    /// loading every column eagerly.
    pub mmap: bool,
    /// Byte budget for the page cache (`--store-budget-bytes`): bytes of
    /// the mapped snapshots kept resident; past it the least recently
    /// touched pages are released to the OS. `None` means unbounded.
    pub store_budget_bytes: Option<u64>,
    /// Test aid (never exposed on the CLI): enables `GET
    /// /debug/sleep?ms=N`, which parks a worker thread for `ms`
    /// milliseconds. Load-shedding, deadline, and drain tests use it to
    /// occupy workers deterministically — with the event loop, an idle
    /// *connection* no longer costs a worker, so only real work can.
    pub debug_sleep_endpoint: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            deadline: Duration::from_secs(10),
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            max_support: swope_columnar::DEFAULT_MAX_SUPPORT,
            handle_signals: false,
            exec_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            trace: false,
            slow_ms: 250,
            access_log: None,
            peers: Vec::new(),
            peer_connect_timeout: Duration::from_secs(2),
            peer_io_timeout: Duration::from_secs(10),
            keep_alive: Duration::from_secs(30),
            max_conns: 4096,
            tenant_rps: None,
            tenant_burst: None,
            mmap: false,
            store_budget_bytes: None,
            debug_sleep_endpoint: false,
        }
    }
}

/// State shared by the event loop, the workers, and [`ServerHandle`]s.
struct Shared {
    registry: DatasetRegistry,
    cache: ResultCache,
    metrics: ServerMetrics,
    /// Process-wide execution pool handle; queries with `threads > 1`
    /// clone this (sharing the parked workers), `threads <= 1` runs
    /// inline on the HTTP worker.
    exec: Executor,
    /// Flight recorder of finished traces behind `/debug/traces` and
    /// `/debug/slow`.
    recorder: TraceRecorder,
    /// Open access-log writer; one logfmt line per served request,
    /// flushed per line so `tail -f` works.
    access_log: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Wire/merge counters shared by the coordinator path and incoming
    /// peer sessions, exported as `swope_cluster_*` families.
    cluster_stats: Arc<ClusterStats>,
    /// Coordinator fan-out target; `None` when serving single-box.
    cluster: Option<ClusterTarget>,
    /// Per-tenant admission quotas; `None` when `--tenant-rps` is unset.
    quotas: Option<TenantQuotas>,
    /// Process-wide page cache for out-of-core datasets. Built even when
    /// `mmap` is off so `/metrics` always has a snapshot to render — it
    /// simply stays empty; when on, the registry opens snapshots through
    /// it.
    pager: Arc<PageCache>,
    /// Mirrors [`ServerConfig::debug_sleep_endpoint`].
    debug_sleep: bool,
    stop: AtomicBool,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: Arc<ServerConfig>,
    shared: Arc<Shared>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Asks the event loop to stop; `run` drains in-flight requests,
    /// closes idle connections, and returns.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }
}

impl Server {
    /// Binds the listen socket (nonblocking — the event loop multiplexes
    /// it with every connection), opens the access log if configured, and
    /// builds the shared state.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let access_log = match &config.access_log {
            Some(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                Some(Mutex::new(BufWriter::new(file)))
            }
            None => None,
        };
        if config.trace {
            // Gather timing is process-global (it runs on exec workers far
            // below any request context); flip it on once at startup.
            gather_stats::set_enabled(true);
        }
        let cluster_stats = Arc::new(ClusterStats::new());
        let cluster = if config.peers.is_empty() {
            None
        } else {
            // A coordinator must not come up pointing at a dead fleet:
            // dial every peer once and learn the union size.
            let timeouts =
                PeerTimeouts { connect: config.peer_connect_timeout, io: config.peer_io_timeout };
            let probed = probe(&config.peers, &timeouts, &cluster_stats)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            // Pool peer sessions across queries: enough per peer for every
            // worker to fan out concurrently.
            let pool = Arc::new(PeerPool::new(config.threads.max(1)));
            Some(ClusterTarget {
                addrs: config.peers.clone(),
                timeouts,
                union_rows: probed.union_rows,
                pool,
            })
        };
        let quotas = config.tenant_rps.map(|rps| {
            let burst = config.tenant_burst.unwrap_or((rps * 2.0).max(1.0));
            TenantQuotas::new(rps, burst)
        });
        let pager = Arc::new(PageCache::new(config.store_budget_bytes));
        let shared = Arc::new(Shared {
            registry: DatasetRegistry::with_pager(
                config.max_support,
                config.mmap.then(|| Arc::clone(&pager)),
            ),
            cache: ResultCache::new(config.cache_capacity),
            metrics: ServerMetrics::new(),
            exec: Executor::new(config.exec_threads),
            recorder: TraceRecorder::with_slow_ms(config.slow_ms),
            access_log,
            cluster_stats,
            cluster,
            quotas,
            pager,
            debug_sleep: config.debug_sleep_endpoint,
            stop: AtomicBool::new(false),
        });
        Ok(Self { listener, config: Arc::new(config), shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The dataset registry, for preloading datasets before `run`.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.shared.registry
    }

    /// The process-wide page cache: what [`Server::registry`] opens
    /// snapshots through under [`ServerConfig::mmap`].
    pub fn pager(&self) -> &Arc<PageCache> {
        &self.shared.pager
    }

    /// A handle that can stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shut down, then drains in-flight requests and returns.
    pub fn run(self) {
        if self.config.handle_signals {
            signal::install();
        }
        let pool = WorkerPool::new(self.config.threads, self.config.queue_capacity);
        let watcher = pool.watcher();
        let result = EventLoop::new(
            &self.listener,
            Arc::clone(&self.shared),
            Arc::clone(&self.config),
            &pool,
            watcher,
        )
        .and_then(|mut el| el.run());
        if let Err(e) = result {
            eprintln!("swope serve: event loop failed: {e}");
        }
        pool.shutdown();
    }
}

/// Token the listener registers under (no connection slab slot can reach
/// it: the slab would have to hold `usize::MAX` entries first).
const TOKEN_LISTENER: usize = usize::MAX;
/// Token of the worker-completion wake pipe's read end.
const TOKEN_WAKE: usize = usize::MAX - 1;
/// Poll tick: upper bound on timeout-scan and shutdown-check latency.
const TICK: Duration = Duration::from_millis(20);
/// Cap on concurrently served SWPC peer sessions (each holds a thread).
const MAX_PEER_SESSIONS: usize = 256;

/// Cap on pipelined requests bundled into one worker job, so a client
/// that pipelines thousands of requests cannot monopolise a worker; the
/// remainder stays buffered and forms the next batch.
const MAX_BATCH: usize = 32;

/// A batch of finished responses — one per pipelined request, in request
/// order — traveling from a worker back to the event thread.
struct Completion {
    token: usize,
    generation: u64,
    /// `(response, keep_alive)` per request of the batch.
    responses: Vec<(Response, bool)>,
}

/// One parsed request inside a dispatch batch: real work for a worker,
/// or an answer admission control already has (a cache hit, 429/503/4xx)
/// that must keep its place in the pipelined response order.
enum BatchItem {
    /// Work for a worker thread: the adaptive loop for `miss` when the
    /// lookup stage resolved the request, routing otherwise.
    Run { request: Box<Request>, keep_alive: bool, ordinal: u64, miss: Option<Box<Miss>> },
    /// Answer with this finished response; its metrics were recorded
    /// where it was made.
    Canned { response: Box<Response>, keep_alive: bool },
}

/// A query the result cache could not answer, with everything the lookup
/// stage resolved — whoever runs it neither parses nor looks up again.
struct Miss {
    spec: QuerySpec,
    /// Where the body goes once computed.
    key: String,
    /// The registry entry `key`'s generation came from; `None` on a
    /// coordinator, whose data lives on the peers.
    entry: Option<Arc<DatasetEntry>>,
    /// The request's trace, when it is traced.
    trace: Option<Trace>,
}

/// The open trace of one `/query/*` request: spans on a clock anchored at
/// its arrival, under a root `request` span.
struct Trace {
    sink: Arc<SpanSink>,
    root: u32,
    /// When admission queued the request for a worker, on the sink's
    /// clock: where its `queue_wait` span starts.
    queued_ns: u64,
}

impl Trace {
    /// Opens a trace for `req` when it asks for one (an `X-Swope-Trace`
    /// header) or `always` ([`ServerConfig::trace`]). The id is the
    /// header's when it parses, a fresh one otherwise.
    fn open(req: &Request, arrival: Instant, always: bool) -> Option<Trace> {
        let header = req.header("x-swope-trace");
        (always || header.is_some()).then(|| {
            let trace_id = header.and_then(TraceId::parse).unwrap_or_else(TraceId::next_seeded);
            let sink = SpanSink::anchored(trace_id, arrival);
            let root = sink.open_at("request", None, 0);
            sink.set_items(root, req.body.len() as u64);
            Trace { sink, root, queued_ns: 0 }
        })
    }

    /// A worker picked the request up: its wait in the queue ends now.
    fn picked_up(&self) {
        let now = self.sink.now_ns();
        self.sink.record("queue_wait", Some(self.root), self.queued_ns, now, 0, 0);
    }

    /// Records the finished trace with the answer `req` got, and echoes
    /// the trace id on that answer.
    fn finish(self, shared: &Shared, req: &Request, response: Response) -> Response {
        let Trace { sink, root, .. } = self;
        sink.close(root);
        let wall_ns = sink.now_ns();
        let (spans, dropped_spans) = sink.drain();
        let trace_id = sink.trace_id().to_string();
        shared.recorder.record(TraceRecord {
            trace_id: trace_id.clone(),
            endpoint: endpoint_label(&req.path).to_owned(),
            dataset: req.param("dataset").unwrap_or("-").to_owned(),
            status: response.status,
            cache: header_or_dash(&response, "X-Swope-Cache").to_owned(),
            wall_ns,
            dropped_spans,
            spans,
        });
        response.with_header("X-Swope-Trace", &trace_id)
    }
}

/// The event thread's state: the poller, the connection slab, and the
/// plumbing shared with workers.
struct EventLoop<'a> {
    poller: Box<dyn Poller>,
    listener: &'a TcpListener,
    /// Connection slab indexed by poller token; `free` recycles slots.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_conn_id: u64,
    shared: Arc<Shared>,
    config: Arc<ServerConfig>,
    pool: &'a WorkerPool,
    watcher: QueueWatcher,
    completions: Arc<Mutex<Vec<Completion>>>,
    wake: WakePipe,
    draining: bool,
    last_scan: Instant,
    peer_sessions: Arc<AtomicUsize>,
}

impl<'a> EventLoop<'a> {
    fn new(
        listener: &'a TcpListener,
        shared: Arc<Shared>,
        config: Arc<ServerConfig>,
        pool: &'a WorkerPool,
        watcher: QueueWatcher,
    ) -> std::io::Result<Self> {
        let mut poller = new_poller()?;
        let wake = WakePipe::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake.read_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(Self {
            poller,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_conn_id: 0,
            shared,
            config,
            pool,
            watcher,
            completions: Arc::new(Mutex::new(Vec::new())),
            wake,
            draining: false,
            last_scan: Instant::now(),
            peer_sessions: Arc::new(AtomicUsize::new(0)),
        })
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut events = Vec::new();
        loop {
            let stop = self.shared.stop.load(Ordering::Acquire)
                || (self.config.handle_signals && signal::signalled());
            if stop && !self.draining {
                self.draining = true;
                let _ = self.poller.remove(self.listener.as_raw_fd());
            }
            if self.draining {
                // Drain = stop accepting (done above), close idle and
                // still-reading connections, finish dispatched/writing.
                self.close_quiescent();
                if self.live == 0 {
                    return Ok(());
                }
            }
            self.poller.wait(&mut events, TICK)?;
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.wake.drain(),
                    token => self.conn_event(token, ev.hangup),
                }
            }
            self.drain_completions();
            let now = Instant::now();
            if now.duration_since(self.last_scan) >= TICK {
                self.last_scan = now;
                self.scan_timeouts(now);
                self.publish_gauges();
            }
        }
    }

    /// Accepts until the listener would block (level-triggered: anything
    /// left over is reported again on the next wait).
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining {
                        continue;
                    }
                    self.shared.metrics.record_conn_accepted();
                    if self.live >= self.config.max_conns {
                        self.shared.metrics.record_rejected();
                        over_capacity(stream);
                        self.shared.metrics.record_response(503, 0);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are small; without this, Nagle stacked on
                    // the client's delayed ACK stalls keep-alive
                    // round-trips by up to 40ms each.
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    if self.poller.add(fd, token, Interest::READ).is_err() {
                        self.free.push(token);
                        continue;
                    }
                    self.next_conn_id += 1;
                    self.conns[token] = Some(Conn::new(stream, self.next_conn_id, Instant::now()));
                    self.live += 1;
                }
                Err(_) => return, // WouldBlock or transient accept error
            }
        }
    }

    /// Readiness on a connection token: pump bytes, then advance the
    /// state machine.
    fn conn_event(&mut self, token: usize, hangup: bool) {
        let now = Instant::now();
        let state;
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            state = conn.state;
            match state {
                ConnState::Dispatched => {
                    // Interest is NONE while a worker owns the request;
                    // only errors/hangups surface. Remember to close once
                    // the response flushes (it will likely fail anyway).
                    if hangup {
                        conn.close_after_write = true;
                    }
                    return;
                }
                ConnState::Reading | ConnState::Idle => match conn.fill(now) {
                    Ok(Pump::Progress) => {
                        if conn.state == ConnState::Idle && conn.has_buffered() {
                            conn.state = ConnState::Reading;
                        }
                    }
                    Ok(Pump::Closed) | Err(_) => {
                        self.close(token);
                        return;
                    }
                },
                ConnState::Writing => {}
            }
        }
        match state {
            ConnState::Reading | ConnState::Idle => self.advance(token, now),
            ConnState::Writing => self.flush_and_advance(token, now),
            ConnState::Dispatched => unreachable!("handled above"),
        }
    }

    /// Parses every complete buffered request of a reading connection,
    /// running admission control per request ([`Self::admit`]), and
    /// dispatches the resulting batch. Pipelined requests share one queue
    /// slot, one worker hand-off, and one response flush. A batch answered
    /// entirely on the event thread (hits, 429s) is flushed here and the
    /// next one parsed — in a loop, so a client pipelining cached queries
    /// by the thousand costs no stack.
    fn advance(&mut self, token: usize, now: Instant) {
        loop {
            let mut items: Vec<BatchItem> = Vec::new();
            while items.len() < MAX_BATCH {
                let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
                if conn.state == ConnState::Idle || !conn.has_buffered() {
                    break;
                }
                match conn.take_request(self.config.max_body_bytes) {
                    Parsed::Incomplete => break,
                    // Only possible on a pristine connection, so the
                    // batch is necessarily empty.
                    Parsed::Cluster => return self.hand_off_peer(token),
                    Parsed::Reject(response) => {
                        // Unusable bytes: count the attempt, answer,
                        // close — nothing after them is parseable.
                        let waited = conn.read_started.map_or(0, micros_since);
                        self.shared.metrics.record_request();
                        self.shared.metrics.record_response(response.status, waited);
                        items.push(BatchItem::Canned { response, keep_alive: false });
                        break;
                    }
                    Parsed::Request { request, keep_alive } => {
                        let (conn_id, ordinal) = (conn.id, conn.requests);
                        let arrival = conn.read_started.unwrap_or(now);
                        items.push(self.admit(request, keep_alive, conn_id, ordinal, arrival));
                        if !keep_alive {
                            break;
                        }
                    }
                }
            }
            if items.is_empty() {
                return self.set_interest(token, Interest::READ);
            }
            if !self.dispatch(token, items, now) {
                return;
            }
        }
    }

    /// Admission control for one parsed request, on the event thread: the
    /// tenant's quota, then — for a `GET /query/*`, its trace opened
    /// first when it is traced — the result-cache lookup, then the exact
    /// queue-depth shed check. Only a request that passes all three costs
    /// a worker hand-off.
    fn admit(
        &self,
        request: Box<Request>,
        keep_alive: bool,
        conn_id: u64,
        ordinal: u64,
        arrival: Instant,
    ) -> BatchItem {
        let shared = &*self.shared;
        shared.metrics.record_request();
        if ordinal >= 2 {
            shared.metrics.record_keepalive_reuse();
        }
        // Answered without compute: everything a routed response gets,
        // minus the hand-off.
        let canned = |response: Response, trace: Option<Trace>| {
            let response = account(shared, &request, response, trace, arrival, conn_id, ordinal);
            BatchItem::Canned { response: Box::new(response), keep_alive }
        };
        let throttle = shared.quotas.as_ref().and_then(|q| {
            let tenant = request.header("x-swope-api-key").unwrap_or(ANONYMOUS_TENANT);
            match q.admit(tenant, Instant::now()) {
                Admission::Allow => {
                    shared.metrics.record_tenant(tenant, false);
                    None
                }
                Admission::Throttle { retry_after_secs } => {
                    shared.metrics.record_tenant(tenant, true);
                    Some(retry_after_secs)
                }
            }
        });
        if let Some(retry) = throttle {
            return canned(
                Response::error(429, "tenant over admission quota, retry after backoff")
                    .with_header("Retry-After", &retry.to_string()),
                None,
            );
        }
        let mut miss = None;
        if request.method == "GET" && request.path.starts_with("/query/") {
            let trace = Trace::open(&request, arrival, self.config.trace);
            match lookup(&request, shared, trace.as_ref()) {
                Ok(mut unanswered) => {
                    unanswered.trace = trace;
                    miss = Some(unanswered);
                }
                Err(response) => return canned(response, trace),
            }
        }
        if self.watcher.depth() >= self.config.queue_capacity {
            // Sole producer: depth vs capacity is exact.
            shared.metrics.record_rejected();
            return canned(
                Response::error(503, "server overloaded, retry shortly")
                    .with_header("Retry-After", "1"),
                miss.and_then(|m| m.trace),
            );
        }
        if let Some(trace) = miss.as_mut().and_then(|m| m.trace.as_mut()) {
            trace.queued_ns = trace.sink.now_ns();
        }
        BatchItem::Run { request, keep_alive, ordinal, miss }
    }

    /// Queues an event-thread response (a 503 for a lost shutdown race)
    /// and flushes it.
    fn respond_inline(&mut self, token: usize, resp: Response, keep_alive: bool, now: Instant) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        let waited = conn.read_started.map_or(0, micros_since);
        conn.queue_response(&resp, keep_alive && !self.draining);
        self.shared.metrics.record_response(resp.status, waited);
        self.flush_and_advance(token, now);
    }

    /// Hands a request batch to a worker; the connection parks in
    /// `Dispatched` with no poller interest until the completion returns.
    /// A batch with no work for one (every item answered by admission
    /// control) is flushed on the event thread without a queue slot, a
    /// state change or an `epoll_ctl`; `true` then means it is fully
    /// written and the connection's next batch can be parsed.
    fn dispatch(&mut self, token: usize, items: Vec<BatchItem>, now: Instant) -> bool {
        if items.iter().all(|i| matches!(i, BatchItem::Canned { .. })) {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return false;
            };
            for item in &items {
                let BatchItem::Canned { response, keep_alive } = item else { unreachable!() };
                conn.append_response(response, *keep_alive && !self.draining);
            }
            return self.flush(token, now);
        }
        let (generation, conn_id, arrival);
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return false;
            };
            conn.generation += 1;
            conn.state = ConnState::Dispatched;
            generation = conn.generation;
            conn_id = conn.id;
            arrival = conn.read_started.unwrap_or(now);
        }
        self.set_interest(token, Interest::NONE);
        let shared = Arc::clone(&self.shared);
        let config = Arc::clone(&self.config);
        let watcher = self.watcher.clone();
        let completions = Arc::clone(&self.completions);
        let notifier = self.wake.notifier();
        let dispatched_at = now;
        let accepted = self.pool.try_execute(move || {
            let mut responses = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    BatchItem::Canned { response, keep_alive } => {
                        responses.push((*response, keep_alive));
                    }
                    BatchItem::Run { request, keep_alive, ordinal, mut miss } => {
                        // A traced miss's wait ends here, and whatever
                        // answers it — its query, the deadline, a panic —
                        // finishes its trace.
                        let trace = miss.as_mut().and_then(|m| m.trace.take());
                        if let Some(trace) = &trace {
                            trace.picked_up();
                        }
                        // The deadline is re-checked per request: a batch
                        // that queued too long sheds every member.
                        let response = if dispatched_at.elapsed() > config.deadline {
                            shared.metrics.record_deadline_expired();
                            Response::error(503, "request deadline expired while queued")
                                .with_header("Retry-After", "1")
                        } else {
                            // A handler panic (a corrupt page read on
                            // the sequential executor, say) must cost the
                            // client one 500, not the pool a worker and
                            // the connection its reply.
                            catch_unwind(AssertUnwindSafe(|| match miss {
                                Some(miss) => run_miss(*miss, &shared, trace.as_ref()),
                                None => route(&request, &shared, &watcher),
                            }))
                            .unwrap_or_else(|payload| {
                                shared.metrics.record_worker_panic();
                                Response::error(500, &panic_message(payload.as_ref()))
                            })
                        };
                        let response =
                            account(&shared, &request, response, trace, arrival, conn_id, ordinal);
                        responses.push((response, keep_alive));
                    }
                }
            }
            completions.lock().expect("completion queue lock").push(Completion {
                token,
                generation,
                responses,
            });
            notifier.wake();
        });
        if accepted.is_err() {
            // Lost a race with pool shutdown; answer on the event thread.
            let resp = Response::error(503, "server shutting down").with_header("Retry-After", "1");
            self.respond_inline(token, resp, false, now);
        }
        false
    }

    /// Applies finished worker responses to their connections. Stale
    /// completions (the slot was closed and possibly reused — detected by
    /// the generation stamp) are discarded, never written to the wrong
    /// client.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.completions.lock().expect("completion queue lock"));
        let now = Instant::now();
        for c in done {
            let matched = match self.conns.get_mut(c.token).and_then(Option::as_mut) {
                Some(conn)
                    if conn.generation == c.generation && conn.state == ConnState::Dispatched =>
                {
                    for (response, keep_alive) in &c.responses {
                        let keep = *keep_alive && !conn.close_after_write && !self.draining;
                        conn.append_response(response, keep);
                    }
                    conn.last_activity = now;
                    true
                }
                _ => false,
            };
            if matched {
                self.flush_and_advance(c.token, now);
            }
        }
    }

    /// Flushes the queued response, then parses whatever the connection
    /// has buffered behind it.
    fn flush_and_advance(&mut self, token: usize, now: Instant) {
        if self.flush(token, now) {
            self.advance(token, now);
        }
    }

    /// Writes as much of the queued response as the socket takes. `true`
    /// means all of it went out and the connection lives on — back to
    /// idle/reading, with no re-arm: the `advance` that follows ends in an
    /// explicit interest (READ on wait, NONE on dispatch), so a pipelined
    /// request skips the READ→NONE round trip. Otherwise the connection
    /// is closed or waiting to become writable.
    fn flush(&mut self, token: usize, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return false };
        match conn.flush_out(now) {
            Err(_) => self.close(token),
            Ok(false) => self.set_interest(token, Interest::WRITE),
            Ok(true) if conn.close_after_write || self.draining => self.close(token),
            Ok(true) => {
                conn.response_done();
                return true;
            }
        }
        false
    }

    /// Re-registers `token`'s readiness interest only when it changed;
    /// under pipelining a connection cycles NONE→READ→NONE per request,
    /// and every transition skipped is an `epoll_ctl` saved.
    fn set_interest(&mut self, token: usize, want: Interest) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if conn.interest != want {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    /// An SWPC peer session announced itself on this connection: detach
    /// it from the event loop and serve the binary protocol on a
    /// dedicated thread (peer counting far outlasts any HTTP exchange,
    /// and coordinators are few).
    fn hand_off_peer(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else { return };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.free.push(token);
        self.live -= 1;
        if self.peer_sessions.load(Ordering::Relaxed) >= MAX_PEER_SESSIONS {
            return; // drop the stream: the coordinator sees a clean EOF
        }
        self.peer_sessions.fetch_add(1, Ordering::Relaxed);
        let prefix = conn.take_buffered();
        let stream = conn.stream;
        let sessions = Arc::clone(&self.peer_sessions);
        let shared = Arc::clone(&self.shared);
        let config = Arc::clone(&self.config);
        std::thread::spawn(move || {
            serve_peer_session(stream, prefix, &shared, &config);
            sessions.fetch_sub(1, Ordering::Relaxed);
        });
    }

    /// Kills timed-out connections: slow-loris partial reads and stalled
    /// writes get the timeout counter (readers also get a best-effort
    /// 408); keep-alive idle expiry closes quietly.
    fn scan_timeouts(&mut self, now: Instant) {
        let mut kill: Vec<(usize, bool)> = Vec::new();
        for (token, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            match conn.state {
                ConnState::Dispatched => {} // bounded by the worker deadline
                ConnState::Reading if conn.read_started.is_some() => {
                    let started = conn.read_started.expect("checked in guard");
                    if now.duration_since(started) > self.config.read_timeout {
                        kill.push((token, true));
                    }
                }
                ConnState::Reading | ConnState::Idle => {
                    if now.duration_since(conn.last_activity) > self.config.keep_alive {
                        kill.push((token, false));
                    }
                }
                ConnState::Writing => {
                    if now.duration_since(conn.last_activity) > self.config.read_timeout {
                        kill.push((token, true));
                    }
                }
            }
        }
        for (token, timed_out) in kill {
            if timed_out {
                self.shared.metrics.record_conn_timeout();
                if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                    if conn.state == ConnState::Reading {
                        let resp = Response::error(408, "timed out waiting for a complete request");
                        let _ = conn.stream.write(&resp.serialize(false));
                        self.shared.metrics.record_response(408, 0);
                    }
                }
            }
            self.close(token);
        }
    }

    /// Publishes the connection-state census as gauges.
    fn publish_gauges(&self) {
        let (mut idle, mut reading, mut writing) = (0u64, 0u64, 0u64);
        for conn in self.conns.iter().flatten() {
            match conn.state {
                ConnState::Idle => idle += 1,
                ConnState::Reading => reading += 1,
                ConnState::Writing => writing += 1,
                ConnState::Dispatched => {}
            }
        }
        self.shared.metrics.set_conn_states(self.live as u64, idle, reading, writing);
    }

    /// During drain: closes every connection with no request in flight.
    fn close_quiescent(&mut self) {
        for token in 0..self.conns.len() {
            let quiescent = self.conns[token]
                .as_ref()
                .is_some_and(|c| matches!(c.state, ConnState::Idle | ConnState::Reading));
            if quiescent {
                self.close(token);
            }
        }
    }

    /// Deregisters, gracefully closes, and frees a connection slot.
    fn close(&mut self, token: usize) {
        if let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            conn.close_gracefully();
            self.free.push(token);
            self.live -= 1;
        }
    }
}

/// Best-effort 503 for a connection accepted past `max_conns`; never
/// blocks the event thread (the socket goes nonblocking first).
fn over_capacity(mut stream: TcpStream) {
    let resp = Response::error(503, "connection limit reached, retry shortly")
        .with_header("Retry-After", "1");
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&resp.serialize(false));
}

/// A `TcpStream` with already-consumed bytes replayed in front: the event
/// loop reads a connection's first bytes before discovering it speaks the
/// SWPC protocol, so the peer session must see those bytes again.
struct PrefixedStream {
    prefix: Vec<u8>,
    pos: usize,
    inner: TcpStream,
}

impl std::io::Read for PrefixedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (self.prefix.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

impl std::io::Write for PrefixedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Answers one shard-protocol session on the HTTP port: this server acts
/// as a *peer*, counting over its registered datasets for a remote
/// coordinator. The empty dataset name resolves to the sole registered
/// dataset (the common one-dataset peer), names resolve through the
/// registry. `prefix` carries the bytes the event loop consumed while
/// sniffing (at least the magic).
fn serve_peer_session(stream: TcpStream, prefix: Vec<u8>, shared: &Shared, config: &ServerConfig) {
    // Peer counting can far outlast an HTTP parse; run blocking with the
    // coordinator-facing I/O deadline instead of the HTTP read timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(config.peer_io_timeout));
    let _ = stream.set_write_timeout(Some(config.peer_io_timeout));
    let _ = stream.set_nodelay(true);
    let served = |entry: &DatasetEntry| PeerDataset {
        dataset: Arc::clone(&entry.dataset),
        sketch: Some(Arc::clone(&entry.sketch)),
    };
    let resolve = |name: &str| {
        if name.is_empty() {
            let all = shared.registry.list();
            return match all.as_slice() {
                [only] => Some(served(only)),
                _ => None,
            };
        }
        shared.registry.get(name).map(|entry| served(&entry))
    };
    let mut io = PrefixedStream { prefix, pos: 0, inner: stream };
    serve_connection(&mut io, &resolve, &shared.cluster_stats);
}

/// The fixed label vocabulary for per-endpoint latency families — a
/// closed set so an attacker probing random paths cannot mint metric
/// label values (those all collapse into `other`/`query_other`).
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/datasets" => "datasets",
        "/debug/traces" => "debug_traces",
        "/debug/slow" => "debug_slow",
        _ if path.starts_with("/query/") => match &path["/query/".len()..] {
            "entropy-topk" => "query_entropy_top_k",
            "entropy-filter" => "query_entropy_filter",
            "mi-topk" => "query_mi_top_k",
            "mi-filter" => "query_mi_filter",
            "entropy-profile" => "query_entropy_profile",
            "mi-profile" => "query_mi_profile",
            _ => "query_other",
        },
        _ => "other",
    }
}

/// Everything an answered request leaves behind, written in this one
/// place whichever thread answered it: its trace finished (when traced),
/// the labelled latency sample, the access-log line and the status class.
/// Returns the response to send — with the trace id echoed when traced.
fn account(
    shared: &Shared,
    req: &Request,
    response: Response,
    trace: Option<Trace>,
    arrival: Instant,
    conn_id: u64,
    ordinal: u64,
) -> Response {
    let response = match trace {
        Some(trace) => trace.finish(shared, req, response),
        None => response,
    };
    let micros = micros_since(arrival);
    let dataset = req.param("dataset").unwrap_or("-");
    shared.metrics.record_labelled(endpoint_label(&req.path), dataset, micros);
    log_access(shared, req, &response, micros, conn_id, ordinal);
    shared.metrics.record_response(response.status, micros);
    response
}

/// The value of an extra header `resp` carries, `-` when it has none.
fn header_or_dash<'a>(resp: &'a Response, name: &str) -> &'a str {
    resp.extra_headers.iter().find(|(k, _)| k == name).map_or("-", |(_, v)| v.as_str())
}

/// Appends one logfmt line for a served request and flushes it. Under
/// keep-alive a connection serves many requests: `conn` is the accept
/// counter (monotonic per process) and `req` the 1-based ordinal of this
/// request on its connection, so reuse is visible in the log.
fn log_access(
    shared: &Shared,
    req: &Request,
    resp: &Response,
    micros: u64,
    conn_id: u64,
    ordinal: u64,
) {
    let Some(log) = &shared.access_log else { return };
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let line = format!(
        "ts={ts} conn={conn_id} req={ordinal} method={} path={} status={} bytes={} \
         dur_us={micros} trace={} cache={}\n",
        req.method,
        req.path,
        resp.status,
        resp.body.len(),
        header_or_dash(resp, "X-Swope-Trace"),
        header_or_dash(resp, "X-Swope-Cache"),
    );
    if let Ok(mut w) = log.lock() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// Microseconds since `t`: a request's latency so far, from its arrival.
fn micros_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// The one-line message of a contained handler panic (`panic!` with a
/// literal carries a `&str`, with a format string a `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("request handler panicked");
    message.lines().next().unwrap_or_default().to_owned()
}

/// Dispatches a parsed request to an endpoint, on a worker. A
/// `GET /query/*` never gets here: admission control resolves every one
/// ([`lookup`]) and hands a worker only a [`Miss`].
fn route(req: &Request, shared: &Shared, watcher: &QueueWatcher) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared, watcher),
        ("GET", "/metrics") => Response::text(
            200,
            shared.metrics.render_prometheus(
                &shared.cache,
                watcher.depth(),
                shared.registry.len(),
                shared.exec.stats(),
                shared.registry.store_stats(),
                shared.registry.sketch_stats(),
                TraceCounters {
                    recorded: shared.recorder.recorded_total(),
                    slow: shared.recorder.slow_total(),
                },
                shared.cluster.as_ref().map(|c| (c.addrs.len() as u64, c.union_rows)),
                shared.cluster_stats.snapshot(),
                shared.pager.snapshot(),
            ),
        ),
        ("GET", "/datasets") => list_datasets(shared),
        ("POST", "/datasets") => load_dataset(req, shared),
        ("GET", "/debug/traces") => debug_listing(req, shared, false),
        ("GET", "/debug/slow") => debug_listing(req, shared, true),
        ("GET", "/debug/sleep") if shared.debug_sleep => {
            let ms = req.param("ms").and_then(|v| v.parse::<u64>().ok()).unwrap_or(100).min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            Response::json(200, format!("{{\"slept_ms\":{ms}}}"))
        }
        (_, "/healthz" | "/metrics" | "/datasets" | "/debug/traces" | "/debug/slow") => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        (_, path) if path.starts_with("/query/") => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        (_, path) => Response::error(404, &format!("no such endpoint {path:?}")),
    }
}

/// `GET /debug/traces` / `GET /debug/slow`: the retained ring, newest
/// `?n=` traces only when given, always under the recorder's byte cap.
fn debug_listing(req: &Request, shared: &Shared, slow: bool) -> Response {
    let n = match req.param("n") {
        None => usize::MAX,
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) => v,
            Err(_) => {
                return Response::error(
                    400,
                    &format!("malformed value {raw:?} for parameter \"n\""),
                )
            }
        },
    };
    let body = if slow { shared.recorder.slow_json_n(n) } else { shared.recorder.recent_json_n(n) };
    Response::json(200, body)
}

fn healthz(shared: &Shared, watcher: &QueueWatcher) -> Response {
    let body = format!(
        "{{\"status\":\"ok\",\"datasets\":{},\"queue_depth\":{}}}",
        shared.registry.len(),
        watcher.depth()
    );
    Response::json(200, body)
}

fn list_datasets(shared: &Shared) -> Response {
    let mut body = String::from("{\"datasets\":[");
    for (i, entry) in shared.registry.list().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&entry.describe_json());
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `POST /datasets` with body `{"path": "...", "name": "..."}` (`name`
/// optional — defaults to the file stem).
fn load_dataset(req: &Request, shared: &Shared) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("request body is not JSON: {e}")),
    };
    let Some(path) = parsed.get("path").and_then(|v| v.as_str().map(str::to_owned)) else {
        return Response::error(400, "body must contain a string \"path\" field");
    };
    let name = parsed.get("name").and_then(|v| v.as_str().map(str::to_owned));
    match shared.registry.load(&path, name.as_deref()) {
        Ok(entry) => Response::json(201, entry.describe_json()),
        Err(msg) => Response::error(422, &msg),
    }
}

/// The lookup stage for a `GET /query/*`, on the event thread, under its
/// trace when it has one — spec, dataset generation, key, and the one
/// [`ResultCache::get`] a request gets, as a `cache_lookup` span. `Ok` is
/// a miss, with what it resolved, for a worker to run; `Err` the finished
/// answer — a hit, a 400, or a 404 for a dataset nobody loaded.
fn lookup(req: &Request, shared: &Shared, trace: Option<&Trace>) -> Result<Box<Miss>, Response> {
    let spec =
        parse_spec(&req.path["/query/".len()..], req).map_err(|msg| Response::error(400, &msg))?;
    let entry = match shared.cluster {
        // Cluster datasets live on the (static) peers and the union is
        // immutable for the process lifetime, so bodies cache under a
        // pinned generation: 1 matches a fresh single box's first insert,
        // so coordinator bodies diff cleanly against single-box bodies.
        Some(_) => None,
        None => match shared.registry.get(&spec.dataset) {
            Some(entry) => Some(entry),
            None => {
                let msg = format!("no dataset named {:?} is loaded", spec.dataset);
                return Err(Response::error(404, &msg));
            }
        },
    };
    let key = cache_key(&spec, entry.as_ref().map_or(1, |e| e.generation));
    let span = trace.map(|t| t.sink.open("cache_lookup", Some(t.root)));
    let cached = shared.cache.get(&key);
    if let (Some(t), Some(span)) = (trace, span) {
        t.sink.close(span);
    }
    match cached {
        Some(body) => Err(Response::json(200, body.as_str()).with_header("X-Swope-Cache", "hit")),
        None => Ok(Box::new(Miss { spec, key, entry, trace: None })),
    }
}

/// Computes a miss and stores its body: the adaptive loop against the
/// registry entry, or fanned out over the peer fleet on a coordinator,
/// where a dead or hung peer maps onto a retryable 503, never a hang
/// (every wire wait is deadline-bounded).
///
/// Traced, the query's span tree (via [`TraceObserver`]) and the pooled
/// executor's `exec_dispatch` spans land under the request's root, beside
/// aggregate `store_gather` and `page_fault` spans read off the storage
/// layer's and the pager's process-global counters (exact when one query
/// runs at a time; approximate under concurrent traced queries).
fn run_miss(miss: Miss, shared: &Shared, trace: Option<&Trace>) -> Response {
    /// The query on this box's `entry`, or on the peer fleet when there is
    /// none (a coordinator's miss).
    fn count<O: QueryObserver>(
        entry: Option<&DatasetEntry>,
        spec: &QuerySpec,
        exec: &Executor,
        shared: &Shared,
        obs: &mut O,
    ) -> Result<String, (u16, String)> {
        match entry {
            Some(entry) => run_query(entry, spec, exec, obs),
            None => {
                let cluster =
                    shared.cluster.as_ref().expect("an entry-less miss is a coordinator's");
                run_query_cluster(cluster, &shared.cluster_stats, spec, exec, obs)
            }
        }
    }
    let Miss { spec, key, entry, .. } = miss;
    let entry = entry.as_deref();
    // Single-threaded queries run inline on the HTTP worker; anything
    // else shares the process-wide pool. Either way the answer bytes are
    // identical (the loops are executor-invariant), so cached bodies stay
    // valid across the choice — and so does tracing, which is purely
    // observational (enforced by `core/tests/trace_invariance.rs`).
    let exec = if spec.threads <= 1 { Executor::sequential() } else { shared.exec.clone() };
    let result = match trace {
        None => count(entry, &spec, &exec, shared, &mut &shared.metrics.registry),
        Some(Trace { sink, root, .. }) => {
            let exec = exec.with_trace(Arc::clone(sink), *root);
            let mut obs = ComposedObserver::new(
                TraceObserver::new(Arc::clone(sink), Some(*root)),
                &shared.metrics.registry,
            );
            let start_ns = sink.now_ns();
            let before = gather_stats::snapshot();
            let pager_before = shared.pager.snapshot();
            let result = count(entry, &spec, &exec, shared, &mut obs);
            let delta = gather_stats::snapshot().since(before);
            if delta.calls > 0 {
                let end_ns = start_ns + delta.nanos;
                sink.record("store_gather", Some(*root), start_ns, end_ns, 0, delta.rows);
            }
            // The pager's span is as wide as everything it did for this
            // query — pages admitted (checked, on their first touch) and
            // the evictions that forced — and counts the pages admitted.
            let pdelta = shared.pager.snapshot().since(&pager_before);
            if pdelta.faults > 0 {
                let end_ns = start_ns + pdelta.fault_nanos + pdelta.evict_nanos;
                sink.record("page_fault", Some(*root), start_ns, end_ns, 0, pdelta.faults);
            }
            result
        }
    };
    match result {
        Ok(body) => {
            let body = Arc::new(body);
            shared.cache.put(key, Arc::clone(&body));
            Response::json(200, body.as_str()).with_header("X-Swope-Cache", "miss")
        }
        Err((503, msg)) => Response::error(503, &msg).with_header("Retry-After", "1"),
        Err((status, msg)) => Response::error(status, &msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::DatasetBuilder;

    fn shared_with_dataset() -> (Shared, QueueWatcher) {
        let shared = Shared {
            registry: DatasetRegistry::new(1000),
            cache: ResultCache::new(8),
            metrics: ServerMetrics::new(),
            exec: Executor::new(2),
            recorder: TraceRecorder::with_slow_ms(0),
            access_log: None,
            cluster_stats: Arc::new(ClusterStats::new()),
            cluster: None,
            quotas: None,
            pager: Arc::new(PageCache::unbounded()),
            debug_sleep: false,
            stop: AtomicBool::new(false),
        };
        let mut b = DatasetBuilder::new(vec!["a".into(), "b".into()]);
        for i in 0..200u32 {
            b.push_row(&[format!("v{}", i % 8), format!("w{}", i % 2)]).unwrap();
        }
        shared.registry.insert("t", b.finish());
        let pool = WorkerPool::new(1, 1);
        let watcher = pool.watcher();
        pool.shutdown();
        (shared, watcher)
    }

    /// A query the way the server answers one: the lookup stage (the
    /// event thread's), then the miss (a worker's), accounted once —
    /// traced when it asks to be, or `always`.
    fn serve(req: &Request, shared: &Shared, always: bool) -> Response {
        let arrival = Instant::now();
        let trace = Trace::open(req, arrival, always);
        let response = match lookup(req, shared, trace.as_ref()) {
            Ok(miss) => {
                trace.iter().for_each(Trace::picked_up);
                run_miss(*miss, shared, trace.as_ref())
            }
            Err(response) => response,
        };
        account(shared, req, response, trace, arrival, 1, 1)
    }

    fn answer(req: &Request, shared: &Shared) -> Response {
        serve(req, shared, false)
    }

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_owned(), crate::http::parse_query(q)),
            None => (path.to_owned(), Vec::new()),
        };
        Request { method: "GET".into(), path, query, headers: Vec::new(), body: Vec::new() }
    }

    #[test]
    fn routes_cover_ops_endpoints() {
        let (shared, watcher) = shared_with_dataset();
        assert_eq!(route(&get("/healthz"), &shared, &watcher).status, 200);
        let metrics = route(&get("/metrics"), &shared, &watcher);
        assert_eq!(metrics.status, 200);
        assert!(String::from_utf8(metrics.body.clone())
            .unwrap()
            .contains("swope_http_requests_total"));
        assert_eq!(route(&get("/datasets"), &shared, &watcher).status, 200);
        assert_eq!(route(&get("/nope"), &shared, &watcher).status, 404);
        let mut del = get("/healthz");
        del.method = "DELETE".into();
        assert_eq!(route(&del, &shared, &watcher).status, 405);
    }

    #[test]
    fn query_route_caches_and_errors() {
        let (shared, _watcher) = shared_with_dataset();
        let req = get("/query/entropy-topk?dataset=t&k=1");
        let first = answer(&req, &shared);
        assert_eq!(first.status, 200);
        assert!(first.extra_headers.iter().any(|(_, v)| v == "miss"));
        // The second time the lookup stage has the answer: no miss to run.
        let second = lookup(&req, &shared, None).err().expect("a hit is answered at lookup");
        assert!(second.extra_headers.iter().any(|(_, v)| v == "hit"));
        assert_eq!(first.body, second.body);
        // One lookup per request, and none for what never reaches the cache.
        assert_eq!((shared.cache.hits(), shared.cache.misses()), (1, 1));
        assert_eq!(answer(&get("/query/entropy-topk?dataset=t"), &shared).status, 400);
        assert_eq!(answer(&get("/query/entropy-topk?dataset=gone&k=1"), &shared).status, 404);
        assert_eq!(answer(&get("/query/bogus?dataset=t"), &shared).status, 400);
        assert_eq!((shared.cache.hits(), shared.cache.misses()), (1, 1));
    }

    #[test]
    fn post_datasets_round_trip() {
        let (shared, watcher) = shared_with_dataset();
        let dir = std::env::temp_dir().join("swope-server-route-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extra.swop");
        let mut b = DatasetBuilder::new(vec!["x".into()]);
        b.push_row(&["1".to_string()]).unwrap();
        swope_columnar::snapshot::write_file(&b.finish(), &path).unwrap();
        let body = format!("{{\"path\":{:?}}}", path.to_str().unwrap());
        let req = Request {
            method: "POST".into(),
            path: "/datasets".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        assert_eq!(route(&req, &shared, &watcher).status, 201);
        assert!(shared.registry.get("extra").is_some());
        let bad = Request {
            method: "POST".into(),
            path: "/datasets".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: b"{\"path\":\"/no/such.swop\"}".to_vec(),
        };
        assert_eq!(route(&bad, &shared, &watcher).status, 422);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traced_query_records_span_tree_and_echoes_id() {
        let (shared, _watcher) = shared_with_dataset();
        let mut req = get("/query/entropy-topk?dataset=t&k=1");
        req.headers.push(("x-swope-trace".into(), "deadbeef".into()));
        let resp = serve(&req, &shared, false);
        assert_eq!(resp.status, 200);
        assert!(
            resp.extra_headers.iter().any(|(k, v)| k == "X-Swope-Trace" && v == "00000000deadbeef"),
            "trace id not echoed canonically: {:?}",
            resp.extra_headers
        );
        assert_eq!(shared.recorder.recorded_total(), 1);
        let json = shared.recorder.recent_json();
        for name in [
            "request",
            "queue_wait",
            "cache_lookup",
            "query:entropy_top_k",
            "sample_grow",
            "ingest",
            "update_bounds",
            "decide",
        ] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "missing {name} in {json}");
        }
        assert!(json.contains("\"trace_id\":\"00000000deadbeef\""));
        assert!(json.contains("\"endpoint\":\"query_entropy_top_k\""));
        // Cache hits are traced too, tagged with the outcome: answered at
        // the lookup, they wait in no queue and run no query.
        let hit = serve(&req, &shared, false);
        assert!(hit.extra_headers.iter().any(|(_, v)| v == "hit"));
        assert_eq!(shared.recorder.recorded_total(), 2);
        let newest = shared.recorder.recent_json_n(1);
        assert!(newest.contains("\"cache\":\"hit\"") && newest.contains("cache_lookup"));
        assert!(!newest.contains("queue_wait") && !newest.contains("query:"), "{newest}");
        // With slow_ms = 0 every traced request lands in the flight recorder.
        assert_eq!(shared.recorder.slow_total(), 2);
        assert!(shared.recorder.slow_json().contains("\"trace_id\":\"00000000deadbeef\""));
        // Untraced requests leave no record.
        let plain = answer(&get("/query/entropy-topk?dataset=t&k=2"), &shared);
        assert_eq!(plain.status, 200);
        assert!(plain.extra_headers.iter().all(|(k, _)| k != "X-Swope-Trace"));
        assert_eq!(shared.recorder.recorded_total(), 2);
    }

    #[test]
    fn trace_default_traces_without_header() {
        // Under `trace: true` every query is traced; without a header it
        // is traced under a fresh id.
        let (shared, _watcher) = shared_with_dataset();
        let req = get("/query/entropy-profile?dataset=t");
        let resp = serve(&req, &shared, true);
        assert_eq!(resp.status, 200);
        assert!(resp.extra_headers.iter().any(|(k, _)| k == "X-Swope-Trace"));
        assert_eq!(shared.recorder.recorded_total(), 1);
        assert!(shared.recorder.recent_json().contains("query:entropy_profile"));
    }

    #[test]
    fn debug_endpoints_serve_json_and_reject_writes() {
        let (shared, watcher) = shared_with_dataset();
        for path in ["/debug/traces", "/debug/slow"] {
            let resp = route(&get(path), &shared, &watcher);
            assert_eq!(resp.status, 200);
            let body = String::from_utf8(resp.body).unwrap();
            let v = Json::parse(&body).unwrap();
            assert_eq!(v.get("recorded_total").unwrap().as_u64(), Some(0));
            let mut post = get(path);
            post.method = "POST".into();
            assert_eq!(route(&post, &shared, &watcher).status, 405);
        }
    }

    #[test]
    fn endpoint_labels_are_a_closed_vocabulary() {
        assert_eq!(endpoint_label("/healthz"), "healthz");
        assert_eq!(endpoint_label("/query/entropy-topk"), "query_entropy_top_k");
        assert_eq!(endpoint_label("/query/mi-profile"), "query_mi_profile");
        assert_eq!(endpoint_label("/query/../etc/passwd"), "query_other");
        assert_eq!(endpoint_label("/debug/slow"), "debug_slow");
        assert_eq!(endpoint_label("/anything-else"), "other");
    }
}
