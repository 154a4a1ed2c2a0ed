//! Canonical metric names for the serving subsystem.
//!
//! `swope-server` feeds its counters and histograms into the same
//! Prometheus exposition text as [`crate::MetricsRegistry`]'s query
//! metrics. The names live here — next to the query-metric families they
//! share a scrape with — so the server, the docs, and any dashboards
//! agree on one spelling. All families follow the `swope_*` prefix the
//! registry already uses.

/// Counter: HTTP requests fully parsed and routed (sheds and unparseable
/// connections are counted by their own families below).
pub const HTTP_REQUESTS_TOTAL: &str = "swope_http_requests_total";

/// Counter with a `class` label (`"2xx"`..`"5xx"`): responses written by
/// the router.
pub const HTTP_RESPONSES_TOTAL: &str = "swope_http_responses_total";

/// Counter: connections shed with `503` at the accept loop because the
/// bounded request queue was full.
pub const HTTP_REJECTED_TOTAL: &str = "swope_http_rejected_total";

/// Counter: requests answered `503` because they aged past the
/// per-request deadline while waiting in the queue.
pub const HTTP_DEADLINE_EXPIRED_TOTAL: &str = "swope_http_deadline_expired_total";

/// Counter: requests whose handler panicked on a worker (a corrupt page
/// met on the sequential executor, say). The panic is contained: the
/// client gets a one-line `500` carrying the panic message, the worker
/// and the connection both live on.
pub const WORKER_PANICS_TOTAL: &str = "swope_worker_panics_total";

/// Histogram: wall-clock microseconds from request parse to response
/// written, for requests that reached the router.
pub const HTTP_REQUEST_MICROS: &str = "swope_http_request_duration_microseconds";

/// Counter: query responses served straight from the result cache.
pub const CACHE_HITS_TOTAL: &str = "swope_cache_hits_total";

/// Counter: query-cache lookups that missed and ran the adaptive loop.
pub const CACHE_MISSES_TOTAL: &str = "swope_cache_misses_total";

/// Counter: cache entries evicted to make room (least-recently-used).
pub const CACHE_EVICTIONS_TOTAL: &str = "swope_cache_evictions_total";

/// Gauge: requests currently waiting in the bounded queue.
pub const QUEUE_DEPTH: &str = "swope_queue_depth";

/// Gauge: datasets resident in the registry.
pub const DATASETS_LOADED: &str = "swope_datasets_loaded";

/// Gauge: worker threads in the process-wide execution pool that the
/// adaptive loops dispatch per-attribute work onto.
pub const EXEC_POOL_WORKERS: &str = "swope_exec_pool_workers";

/// Counter: parallel fan-outs dispatched onto the execution pool (one
/// per ingest or bounds-update phase that ran on the pool).
pub const EXEC_DISPATCHES_TOTAL: &str = "swope_exec_dispatches_total";

/// Counter: work chunks claimed from the pool's atomic cursor across all
/// dispatches.
pub const EXEC_CHUNKS_TOTAL: &str = "swope_exec_chunks_total";

/// Counter: per-attribute work items processed by pool dispatches.
pub const EXEC_ITEMS_TOTAL: &str = "swope_exec_items_total";

/// Gauge: bytes of width-packed code storage held by all registered
/// datasets (the storage layer's resident footprint).
pub const STORE_BYTES_IN_MEMORY: &str = "swope_store_bytes_in_memory";

/// Gauge: bytes saved by width packing versus storing every code as
/// `u32` (`4·rows·columns − bytes_in_memory`, summed over datasets).
pub const STORE_BYTES_SAVED: &str = "swope_store_bytes_saved";

/// Gauge with a `width` label (`"u8"`/`"u16"`/`"u32"`): registered
/// columns packed at each storage width.
pub const STORE_COLUMNS: &str = "swope_store_columns";

/// Gauge: bytes the per-page partition sketches of all registered
/// datasets occupy when encoded (the scoped-query index footprint).
pub const SKETCH_BYTES: &str = "swope_sketch_bytes";

/// Gauge: total sketch pages across registered datasets (one page per
/// 65 536-row slab per column-set).
pub const SKETCH_PAGES: &str = "swope_sketch_pages";

/// Counter with a `source` label: MI queries by where their marginal
/// entropies came from — `sketch` (every attribute's exact counts read
/// from the partition sketch over a full scope, so only the joint was
/// sampled, a `2λ + b(α_t, α)` interval) or `sampled` (a row range or
/// predicate, no usable sketch, or a shard that declined: the paper's
/// `6λ + b′`). A single box and a coordinator count the same way.
pub const MI_MARGINALS_TOTAL: &str = "swope_mi_marginals_total";

/// Histogram with `endpoint` and `dataset` labels: wall-clock
/// microseconds per request, broken out by what was served and against
/// which dataset (`dataset="-"` for non-query endpoints). Bounded
/// cardinality: endpoints are a fixed vocabulary and datasets collapse
/// into `other` past a cap.
pub const HTTP_ENDPOINT_MICROS: &str = "swope_http_endpoint_duration_microseconds";

/// Counter: traces captured by the flight recorder (one per traced
/// request, whether client-initiated via `X-Swope-Trace` or enabled
/// server-wide with `--trace`).
pub const TRACES_RECORDED_TOTAL: &str = "swope_traces_recorded_total";

/// Counter: traced requests whose wall time crossed the `--slow-ms`
/// threshold and were retained in the slow ring (`GET /debug/slow`).
pub const SLOW_QUERIES_TOTAL: &str = "swope_slow_queries_total";

/// Gauge: shard peers configured on a coordinator (`--peer` flags).
pub const CLUSTER_PEERS: &str = "swope_cluster_peers";

/// Gauge: rows in the union population the coordinator answers from
/// (`n = Σ n_shard` over connected peers; 0 until the first fan-out).
pub const CLUSTER_UNION_ROWS: &str = "swope_cluster_union_rows";

/// Counter: queries fanned out to shard peers by the coordinator.
pub const CLUSTER_QUERIES_TOTAL: &str = "swope_cluster_queries_total";

/// Counter: shard-merge rounds executed (one per doubling iteration of a
/// fanned-out query, merging every peer's count deltas).
pub const CLUSTER_MERGES_TOTAL: &str = "swope_cluster_merges_total";

/// Counter: protocol frames sent to peers (all types).
pub const CLUSTER_FRAMES_SENT_TOTAL: &str = "swope_cluster_frames_sent_total";

/// Counter: protocol frames received from peers (all types).
pub const CLUSTER_FRAMES_RECEIVED_TOTAL: &str = "swope_cluster_frames_received_total";

/// Counter: payload bytes sent to peers (frame headers included).
pub const CLUSTER_BYTES_SENT_TOTAL: &str = "swope_cluster_bytes_sent_total";

/// Counter: payload bytes received from peers (frame headers included).
pub const CLUSTER_BYTES_RECEIVED_TOTAL: &str = "swope_cluster_bytes_received_total";

/// Counter: wire bytes of `GrowDelta` frames, sent by a coordinator or
/// received by a peer: the sample windows the count work travels as.
pub const CLUSTER_GROW_DELTA_BYTES_TOTAL: &str = "swope_cluster_grow_delta_bytes_total";

/// Counter: wire bytes of `CountMerge` frames, received by a coordinator
/// or sent by a peer: the count deltas the replies carry.
pub const CLUSTER_COUNT_MERGE_BYTES_TOTAL: &str = "swope_cluster_count_merge_bytes_total";

/// Counter: histogram entries and joint runs decoded from the
/// `CountMerge` frames a coordinator received — what the bytes carried
/// (`bytes_received / count_entries` ≈ 2–3 on wire protocol v2).
pub const CLUSTER_COUNT_ENTRIES_TOTAL: &str = "swope_cluster_count_entries_total";

/// Counter: fan-outs that failed because a peer was unreachable, timed
/// out, or answered with a protocol error (the request maps to `503`).
pub const CLUSTER_PEER_ERRORS_TOTAL: &str = "swope_cluster_peer_errors_total";

/// Counter: fresh TCP connections the coordinator dialed to peers (one
/// per pool miss or stale-socket replacement).
pub const CLUSTER_CONNS_OPENED_TOTAL: &str = "swope_cluster_conns_opened_total";

/// Counter: pooled peer connections reused for a new query after a
/// successful re-handshake health check.
pub const CLUSTER_CONN_REUSES_TOTAL: &str = "swope_cluster_conn_reuses_total";

/// Counter, labelled `how="run"|"list"`: positions a peer counted, as
/// runs of its storage read in place or one by one. A peer serving a
/// slice in the union's frame counts every window a coordinator sends
/// as a run; `list` grows on a scope's fringe slots, or on a peer whose
/// dataset is laid out in another frame.
pub const CLUSTER_PEER_POSITIONS_TOTAL: &str = "swope_cluster_peer_positions_total";

/// Gauge: client connections currently open on the event loop (every
/// state: reading, dispatched, writing, keep-alive idle).
pub const CONN_OPEN: &str = "swope_conn_open";

/// Gauge: open connections parked in keep-alive idle, waiting for their
/// next request (costing a file descriptor, not a thread).
pub const CONN_IDLE: &str = "swope_conn_idle";

/// Gauge: open connections mid-read (partial request bytes buffered, or
/// freshly accepted and yet to send a byte).
pub const CONN_READING: &str = "swope_conn_reading";

/// Gauge: open connections with a serialized response partially flushed.
pub const CONN_WRITING: &str = "swope_conn_writing";

/// Counter: connections accepted by the event loop since startup.
pub const CONN_ACCEPTED_TOTAL: &str = "swope_conn_accepted_total";

/// Counter: requests served on an already-used keep-alive connection
/// (the second and later requests on each socket).
pub const CONN_KEEPALIVE_REUSES_TOTAL: &str = "swope_conn_keepalive_reuses_total";

/// Counter: connections killed by the read/write timeout — slow-loris
/// partial requests and stalled response writes (keep-alive idle expiry
/// is a normal close and is *not* counted here).
pub const CONN_TIMEOUTS_TOTAL: &str = "swope_conn_timeouts_total";

/// Counter: page faults taken by the out-of-core pager — cold →
/// resident admissions, first touches and refetches after an eviction
/// alike. The codes are read in place from the mapped snapshot; a fault
/// copies nothing.
pub const PAGER_FAULTS_TOTAL: &str = "swope_pager_faults_total";

/// Counter: seconds spent admitting faulted pages (the first-touch CRC
/// and support check, and the bookkeeping), summed across threads. Divide
/// by `swope_pager_faults_total` for mean fault latency. Any eviction an
/// admission forces is `swope_pager_evict_seconds_total`.
pub const PAGER_FAULT_SECONDS_TOTAL: &str = "swope_pager_fault_seconds_total";

/// Counter: seconds the page cache spent finding its least recently
/// touched pages and releasing them to the OS.
pub const PAGER_EVICT_SECONDS_TOTAL: &str = "swope_pager_evict_seconds_total";

/// Counter: pages evicted, least recently touched first, and released to
/// honour the byte budget (`--store-budget-bytes`). Zero on an unbounded
/// cache.
pub const PAGER_EVICTIONS_TOTAL: &str = "swope_pager_evictions_total";

/// Counter: per-page CRC validations performed — exactly one per page
/// on its *first* touch; refaults of an already-validated page skip the
/// check.
pub const PAGER_CRC_VALIDATIONS_TOTAL: &str = "swope_pager_crc_validations_total";

/// Gauge: bytes of mapped snapshot pages the page cache currently counts
/// resident.
pub const PAGER_RESIDENT_BYTES: &str = "swope_pager_resident_bytes";

/// Gauge: high-water mark of `swope_pager_resident_bytes` since startup.
pub const PAGER_PEAK_RESIDENT_BYTES: &str = "swope_pager_peak_resident_bytes";

/// Gauge: configured page-cache byte budget (`0` when unbounded).
pub const PAGER_BUDGET_BYTES: &str = "swope_pager_budget_bytes";

/// Counter with a `tenant` label: requests attributed to each
/// `X-Swope-Api-Key` bucket by admission control (only rendered when
/// quotas are enabled; a request with no key is `tenant="anonymous"`;
/// bounded cardinality — past 64 tenant labels new keys collapse into
/// `tenant="other"`).
pub const TENANT_REQUESTS_TOTAL: &str = "swope_tenant_requests_total";

/// Counter with a `tenant` label: requests answered `429 Too Many
/// Requests` because the tenant's token bucket was empty.
pub const TENANT_THROTTLED_TOTAL: &str = "swope_tenant_throttled_total";
