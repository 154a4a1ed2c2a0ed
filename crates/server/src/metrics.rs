//! Server-level metrics: HTTP traffic counters layered on top of the
//! query-level [`MetricsRegistry`].
//!
//! The embedded registry is fed directly by the adaptive query loops (it
//! is all atomics, so workers observe through a shared reference), while
//! the HTTP counters here track what happened *around* those queries:
//! requests seen, responses by status class, load-shed rejections,
//! deadline expiries, and request latency. [`ServerMetrics::render_prometheus`]
//! concatenates both layers plus cache and registry gauges into one
//! exposition document for `GET /metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use swope_cluster::ClusterSnapshot;
use swope_columnar::PagerSnapshot;
use swope_core::ExecStats;
use swope_obs::{names, Histogram, MetricsRegistry};

use crate::cache::ResultCache;
use crate::registry::{SketchStats, StoreStats};

/// Response status classes tracked by [`ServerMetrics`].
const CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];

/// Cap on distinct `(endpoint, dataset)` latency families; past it new
/// pairs collapse into `("other", "other")` so a client inventing dataset
/// names cannot grow the scrape without bound.
const MAX_LABELLED: usize = 64;

/// Atomic HTTP-layer counters plus the shared query-metrics registry.
pub struct ServerMetrics {
    /// Query-level aggregates; the adaptive loops observe into this.
    pub registry: MetricsRegistry,
    requests: AtomicU64,
    responses: [AtomicU64; 4],
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    worker_panics: AtomicU64,
    request_micros: Histogram,
    /// Per-`(endpoint, dataset)` latency histograms. A `Mutex` (not a
    /// lock-free map) is fine here: the critical section is one BTreeMap
    /// lookup, and the interesting work per request dwarfs it. Workers
    /// and the event thread (for the answers it serves itself) both
    /// record here, so like `tenants` it is locked poison-tolerantly: a
    /// panic mid-`observe` loses one sample, not the process.
    labelled_micros: Mutex<BTreeMap<(String, String), Histogram>>,
    /// Connection-state gauges `[open, idle, reading, writing]`, set
    /// wholesale by the event loop once per tick.
    conn_states: [AtomicU64; 4],
    conn_accepted: AtomicU64,
    conn_keepalive_reuses: AtomicU64,
    conn_timeouts: AtomicU64,
    /// Per-tenant `(requests, throttled)` counters; tenant keys are user
    /// input, so they are sanitized and capped like the latency labels.
    tenants: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl ServerMetrics {
    /// Fresh metrics with all counters at zero.
    pub fn new() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            requests: AtomicU64::new(0),
            responses: std::array::from_fn(|_| AtomicU64::new(0)),
            rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            // Latencies span cache hits (~tens of µs) to large adaptive
            // scans; powers of four from 64 µs to ~4.3 s.
            request_micros: Histogram::new((3..=16).map(|i| 1u64 << (2 * i)).collect()),
            labelled_micros: Mutex::new(BTreeMap::new()),
            conn_states: std::array::from_fn(|_| AtomicU64::new(0)),
            conn_accepted: AtomicU64::new(0),
            conn_keepalive_reuses: AtomicU64::new(0),
            conn_timeouts: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records an accepted request (before routing).
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed response with its status code and end-to-end
    /// duration in microseconds.
    pub fn record_response(&self, status: u16, micros: u64) {
        let idx = match status {
            200..=299 => 0,
            300..=399 => 1,
            400..=499 => 2,
            _ => 3,
        };
        self.responses[idx].fetch_add(1, Ordering::Relaxed);
        self.request_micros.observe(micros);
    }

    /// Records the same response duration under its `(endpoint, dataset)`
    /// labels. `endpoint` comes from the fixed route vocabulary and
    /// `dataset` from the query's `dataset` parameter (`-` elsewhere);
    /// both are sanitized to label-safe characters and the family count is
    /// capped at `MAX_LABELLED`.
    pub fn record_labelled(&self, endpoint: &str, dataset: &str, micros: u64) {
        let key = (sanitize_label(endpoint), sanitize_label(dataset));
        let mut map = self.labelled_micros.lock().unwrap_or_else(PoisonError::into_inner);
        let key = if map.contains_key(&key) || map.len() < MAX_LABELLED {
            key
        } else {
            ("other".into(), "other".into())
        };
        map.entry(key)
            .or_insert_with(|| Histogram::new((3..=16).map(|i| 1u64 << (2 * i)).collect()))
            .observe(micros);
    }

    /// Records a load-shed rejection (503 from the accept loop).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request whose deadline expired while queued.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request handler that panicked and was contained.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the connection-state gauges wholesale (called once per event
    /// loop tick with the current census).
    pub fn set_conn_states(&self, open: u64, idle: u64, reading: u64, writing: u64) {
        for (slot, value) in self.conn_states.iter().zip([open, idle, reading, writing]) {
            slot.store(value, Ordering::Relaxed);
        }
    }

    /// Records one accepted connection.
    pub fn record_conn_accepted(&self) {
        self.conn_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request served on an already-used keep-alive socket.
    pub fn record_keepalive_reuse(&self) {
        self.conn_keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection killed by the read/write timeout.
    pub fn record_conn_timeout(&self) {
        self.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admission decision for `tenant` (`throttled` when the
    /// request was answered 429). Tenant keys are user input: sanitized,
    /// and capped at `MAX_LABELLED` distinct values (`other` past it).
    pub fn record_tenant(&self, tenant: &str, throttled: bool) {
        let key = sanitize_label(tenant);
        let mut map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let key =
            if map.contains_key(&key) || map.len() < MAX_LABELLED { key } else { "other".into() };
        let entry = map.entry(key).or_insert((0, 0));
        entry.0 += 1;
        if throttled {
            entry.1 += 1;
        }
    }

    /// Connections accepted so far.
    pub fn conn_accepted_total(&self) -> u64 {
        self.conn_accepted.load(Ordering::Relaxed)
    }

    /// Keep-alive request reuses so far.
    pub fn keepalive_reuses_total(&self) -> u64 {
        self.conn_keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Read/write-timeout kills so far.
    pub fn conn_timeouts_total(&self) -> u64 {
        self.conn_timeouts.load(Ordering::Relaxed)
    }

    /// Requests accepted so far.
    pub fn requests_total(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Load-shed rejections so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Queued-past-deadline expiries so far.
    pub fn deadline_expired_total(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Renders the full `/metrics` document: HTTP counters, cache
    /// counters, live gauges, execution-pool, storage-layer, sketch,
    /// flight-recorder, and cluster stats, then the query-level registry.
    /// `cluster` carries the coordinator's `(peers, union_rows)` gauges
    /// (absent on a single-box server); the wire counters in `wire`
    /// render unconditionally — a peer-only server racks up frames too.
    #[allow(clippy::too_many_arguments)] // one snapshot arg per subsystem
    pub fn render_prometheus(
        &self,
        cache: &ResultCache,
        queue_depth: usize,
        datasets_loaded: usize,
        exec: ExecStats,
        store: StoreStats,
        sketch: SketchStats,
        traces: TraceCounters,
        cluster: Option<(u64, u64)>,
        wire: ClusterSnapshot,
        pager: PagerSnapshot,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE {} counter", names::HTTP_REQUESTS_TOTAL);
        let _ = writeln!(out, "{} {}", names::HTTP_REQUESTS_TOTAL, self.requests_total());
        let _ = writeln!(out, "# TYPE {} counter", names::HTTP_RESPONSES_TOTAL);
        for (i, class) in CLASSES.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{class=\"{class}\"}} {}",
                names::HTTP_RESPONSES_TOTAL,
                self.responses[i].load(Ordering::Relaxed)
            );
        }
        for (name, value) in [
            (names::HTTP_REJECTED_TOTAL, self.rejected_total()),
            (names::HTTP_DEADLINE_EXPIRED_TOTAL, self.deadline_expired_total()),
            (names::WORKER_PANICS_TOTAL, self.worker_panics.load(Ordering::Relaxed)),
            (names::CACHE_HITS_TOTAL, cache.hits()),
            (names::CACHE_MISSES_TOTAL, cache.misses()),
            (names::CACHE_EVICTIONS_TOTAL, cache.evictions()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in [
            (names::QUEUE_DEPTH, queue_depth as u64),
            (names::DATASETS_LOADED, datasets_loaded as u64),
            (names::EXEC_POOL_WORKERS, exec.workers as u64),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in [
            (names::EXEC_DISPATCHES_TOTAL, exec.dispatches),
            (names::EXEC_CHUNKS_TOTAL, exec.chunks),
            (names::EXEC_ITEMS_TOTAL, exec.items),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in [
            (names::STORE_BYTES_IN_MEMORY, store.bytes_in_memory),
            (names::STORE_BYTES_SAVED, store.bytes_saved()),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "# TYPE {} gauge", names::STORE_COLUMNS);
        for (width, value) in
            [("u8", store.columns_u8), ("u16", store.columns_u16), ("u32", store.columns_u32)]
        {
            let _ = writeln!(out, "{}{{width=\"{width}\"}} {value}", names::STORE_COLUMNS);
        }
        for (name, value) in
            [(names::SKETCH_BYTES, sketch.bytes), (names::SKETCH_PAGES, sketch.pages)]
        {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in [
            (names::TRACES_RECORDED_TOTAL, traces.recorded),
            (names::SLOW_QUERIES_TOTAL, traces.slow),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        if let Some((peers, union_rows)) = cluster {
            for (name, value) in
                [(names::CLUSTER_PEERS, peers), (names::CLUSTER_UNION_ROWS, union_rows)]
            {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {value}");
            }
        }
        for (name, value) in [
            (names::CONN_OPEN, &self.conn_states[0]),
            (names::CONN_IDLE, &self.conn_states[1]),
            (names::CONN_READING, &self.conn_states[2]),
            (names::CONN_WRITING, &self.conn_states[3]),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", value.load(Ordering::Relaxed));
        }
        for (name, value) in [
            (names::CONN_ACCEPTED_TOTAL, self.conn_accepted_total()),
            (names::CONN_KEEPALIVE_REUSES_TOTAL, self.keepalive_reuses_total()),
            (names::CONN_TIMEOUTS_TOTAL, self.conn_timeouts_total()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        {
            let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            if !tenants.is_empty() {
                let _ = writeln!(out, "# TYPE {} counter", names::TENANT_REQUESTS_TOTAL);
                for (tenant, (requests, _)) in tenants.iter() {
                    let _ = writeln!(
                        out,
                        "{}{{tenant=\"{tenant}\"}} {requests}",
                        names::TENANT_REQUESTS_TOTAL
                    );
                }
                let _ = writeln!(out, "# TYPE {} counter", names::TENANT_THROTTLED_TOTAL);
                for (tenant, (_, throttled)) in tenants.iter() {
                    let _ = writeln!(
                        out,
                        "{}{{tenant=\"{tenant}\"}} {throttled}",
                        names::TENANT_THROTTLED_TOTAL
                    );
                }
            }
        }
        for (name, value) in [
            (names::CLUSTER_QUERIES_TOTAL, wire.queries),
            (names::CLUSTER_MERGES_TOTAL, wire.merges),
            (names::CLUSTER_FRAMES_SENT_TOTAL, wire.frames_sent),
            (names::CLUSTER_FRAMES_RECEIVED_TOTAL, wire.frames_received),
            (names::CLUSTER_BYTES_SENT_TOTAL, wire.bytes_sent),
            (names::CLUSTER_BYTES_RECEIVED_TOTAL, wire.bytes_received),
            (names::CLUSTER_GROW_DELTA_BYTES_TOTAL, wire.grow_delta_bytes),
            (names::CLUSTER_COUNT_MERGE_BYTES_TOTAL, wire.count_merge_bytes),
            (names::CLUSTER_COUNT_ENTRIES_TOTAL, wire.count_entries),
            (names::CLUSTER_PEER_ERRORS_TOTAL, wire.peer_errors),
            (names::CLUSTER_CONNS_OPENED_TOTAL, wire.conns_opened),
            (names::CLUSTER_CONN_REUSES_TOTAL, wire.conn_reuses),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let positions = names::CLUSTER_PEER_POSITIONS_TOTAL;
        let _ = writeln!(out, "# TYPE {positions} counter");
        for (how, value) in [("run", wire.peer_run_positions), ("list", wire.peer_list_positions)] {
            let _ = writeln!(out, "{positions}{{how=\"{how}\"}} {value}");
        }
        for (name, value) in [
            (names::PAGER_FAULTS_TOTAL, pager.faults),
            (names::PAGER_EVICTIONS_TOTAL, pager.evictions),
            (names::PAGER_CRC_VALIDATIONS_TOTAL, pager.crc_validations),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, nanos) in [
            (names::PAGER_FAULT_SECONDS_TOTAL, pager.fault_nanos),
            (names::PAGER_EVICT_SECONDS_TOTAL, pager.evict_nanos),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {:.9}", nanos as f64 / 1e9);
        }
        for (name, value) in [
            (names::PAGER_RESIDENT_BYTES, pager.resident_bytes),
            (names::PAGER_PEAK_RESIDENT_BYTES, pager.peak_resident_bytes),
            (names::PAGER_BUDGET_BYTES, pager.budget_bytes.unwrap_or(0)),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        self.request_micros.render_prometheus(names::HTTP_REQUEST_MICROS, &mut out);
        let _ = writeln!(out, "# TYPE {}_approx_quantile gauge", names::HTTP_REQUEST_MICROS);
        self.request_micros.render_quantiles(names::HTTP_REQUEST_MICROS, "", &mut out);
        {
            let map = self.labelled_micros.lock().unwrap_or_else(PoisonError::into_inner);
            if !map.is_empty() {
                let _ = writeln!(out, "# TYPE {} histogram", names::HTTP_ENDPOINT_MICROS);
                for ((endpoint, dataset), hist) in map.iter() {
                    let labels = format!("endpoint=\"{endpoint}\",dataset=\"{dataset}\"");
                    hist.render_prometheus_labelled(names::HTTP_ENDPOINT_MICROS, &labels, &mut out);
                }
                let _ =
                    writeln!(out, "# TYPE {}_approx_quantile gauge", names::HTTP_ENDPOINT_MICROS);
                for ((endpoint, dataset), hist) in map.iter() {
                    let labels = format!("endpoint=\"{endpoint}\",dataset=\"{dataset}\"");
                    hist.render_quantiles(names::HTTP_ENDPOINT_MICROS, &labels, &mut out);
                }
            }
        }
        out.push_str(&self.registry.render_prometheus());
        out
    }
}

/// Flight-recorder totals passed into the `/metrics` render (the recorder
/// lives beside — not inside — the metrics, so the server snapshots it).
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounters {
    /// Traces recorded since startup.
    pub recorded: u64,
    /// Traces that crossed the slow threshold since startup.
    pub slow: u64,
}

/// Restricts a label value to Prometheus-safe characters. Endpoint names
/// are a fixed vocabulary already; dataset names are user input and get
/// mapped onto `[A-Za-z0-9_:.-]` (at most 64 chars) so a hostile name
/// cannot break exposition syntax.
fn sanitize_label(value: &str) -> String {
    value
        .chars()
        .take(64)
        .map(
            |c| {
                if c.is_ascii_alphanumeric() || matches!(c, '_' | ':' | '.' | '-') {
                    c
                } else {
                    '_'
                }
            },
        )
        .collect()
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_classes() {
        let m = ServerMetrics::new();
        m.record_request();
        m.record_request();
        m.record_response(200, 120);
        m.record_response(404, 15);
        m.record_rejected();
        m.record_deadline_expired();
        assert_eq!(m.requests_total(), 2);
        assert_eq!(m.rejected_total(), 1);
        assert_eq!(m.deadline_expired_total(), 1);
        let cache = ResultCache::new(4);
        let exec = ExecStats { workers: 2, dispatches: 5, chunks: 9, items: 40 };
        let store = StoreStats {
            bytes_in_memory: 100,
            bytes_unpacked: 400,
            columns_u8: 6,
            columns_u16: 1,
            columns_u32: 0,
        };
        let sketch = SketchStats { bytes: 2048, pages: 7 };
        let text = m.render_prometheus(
            &cache,
            3,
            2,
            exec,
            store,
            sketch,
            TraceCounters { recorded: 4, slow: 1 },
            Some((2, 131072)),
            ClusterSnapshot {
                queries: 3,
                grow_delta_bytes: 640,
                count_merge_bytes: 9000,
                peer_run_positions: 4096,
                ..Default::default()
            },
            PagerSnapshot {
                faults: 11,
                fault_nanos: 2_500_000_000,
                evictions: 5,
                resident_bytes: 4096,
                budget_bytes: Some(8192),
                ..Default::default()
            },
        );
        assert!(text.contains(&format!("{} 2\n", names::HTTP_REQUESTS_TOTAL)));
        assert!(text.contains(&format!("{}{{class=\"2xx\"}} 1", names::HTTP_RESPONSES_TOTAL)));
        assert!(text.contains(&format!("{}{{class=\"4xx\"}} 1", names::HTTP_RESPONSES_TOTAL)));
        assert!(text.contains(&format!("{} 1\n", names::HTTP_REJECTED_TOTAL)));
        assert!(text.contains(&format!("{} 3\n", names::QUEUE_DEPTH)));
        assert!(text.contains(&format!("{} 2\n", names::DATASETS_LOADED)));
        assert!(text.contains(&format!("{} 2\n", names::EXEC_POOL_WORKERS)));
        assert!(text.contains(&format!("{} 5\n", names::EXEC_DISPATCHES_TOTAL)));
        assert!(text.contains(&format!("{} 9\n", names::EXEC_CHUNKS_TOTAL)));
        assert!(text.contains(&format!("{} 40\n", names::EXEC_ITEMS_TOTAL)));
        assert!(text.contains(&format!("{} 100\n", names::STORE_BYTES_IN_MEMORY)));
        assert!(text.contains(&format!("{} 300\n", names::STORE_BYTES_SAVED)));
        assert!(text.contains(&format!("{}{{width=\"u8\"}} 6", names::STORE_COLUMNS)));
        assert!(text.contains(&format!("{}{{width=\"u16\"}} 1", names::STORE_COLUMNS)));
        assert!(text.contains(&format!("{}{{width=\"u32\"}} 0", names::STORE_COLUMNS)));
        assert!(text.contains(&format!("{} 2048\n", names::SKETCH_BYTES)));
        assert!(text.contains(&format!("{} 7\n", names::SKETCH_PAGES)));
        // The query registry's plan families: present, at zero.
        assert!(text.contains(&format!("{}{{source=\"sketch\"}} 0\n", names::MI_MARGINALS_TOTAL)));
        assert!(text.contains(&format!("{}_count 2", names::HTTP_REQUEST_MICROS)));
        assert!(text.contains(&format!("{} 4\n", names::TRACES_RECORDED_TOTAL)));
        assert!(text.contains(&format!("{} 1\n", names::SLOW_QUERIES_TOTAL)));
        assert!(text.contains(&format!("{} 2\n", names::CLUSTER_PEERS)));
        assert!(text.contains(&format!("{} 131072\n", names::CLUSTER_UNION_ROWS)));
        assert!(text.contains(&format!("{} 3\n", names::CLUSTER_QUERIES_TOTAL)));
        assert!(text.contains(&format!("{} 0\n", names::CLUSTER_PEER_ERRORS_TOTAL)));
        assert!(text.contains(&format!("{} 640\n", names::CLUSTER_GROW_DELTA_BYTES_TOTAL)));
        assert!(text.contains(&format!("{} 9000\n", names::CLUSTER_COUNT_MERGE_BYTES_TOTAL)));
        let positions = names::CLUSTER_PEER_POSITIONS_TOTAL;
        assert!(text.contains(&format!("{positions}{{how=\"run\"}} 4096\n")));
        assert!(text.contains(&format!("{positions}{{how=\"list\"}} 0\n")));
        // Latency quantile gauges ride along with the histogram.
        assert!(text.contains(&format!(
            "{}_approx_quantile{{quantile=\"0.99\"}}",
            names::HTTP_REQUEST_MICROS
        )));
        // The query-level registry rides along in the same document.
        assert!(text.contains("swope_queries_total"));
    }

    #[test]
    fn conn_and_tenant_families_render() {
        let m = ServerMetrics::new();
        m.set_conn_states(12, 9, 2, 1);
        m.record_conn_accepted();
        m.record_conn_accepted();
        m.record_keepalive_reuse();
        m.record_conn_timeout();
        m.record_tenant("alice", false);
        m.record_tenant("alice", true);
        m.record_tenant("we\"ird", false);
        let text = m.render_prometheus(
            &ResultCache::new(4),
            0,
            0,
            ExecStats::default(),
            StoreStats::default(),
            SketchStats::default(),
            TraceCounters::default(),
            None,
            ClusterSnapshot::default(),
            PagerSnapshot::default(),
        );
        assert!(text.contains(&format!("{} 12\n", names::CONN_OPEN)));
        assert!(text.contains(&format!("{} 9\n", names::CONN_IDLE)));
        assert!(text.contains(&format!("{} 2\n", names::CONN_READING)));
        assert!(text.contains(&format!("{} 1\n", names::CONN_WRITING)));
        assert!(text.contains(&format!("{} 2\n", names::CONN_ACCEPTED_TOTAL)));
        assert!(text.contains(&format!("{} 1\n", names::CONN_KEEPALIVE_REUSES_TOTAL)));
        assert!(text.contains(&format!("{} 1\n", names::CONN_TIMEOUTS_TOTAL)));
        assert!(text.contains(&format!("{}{{tenant=\"alice\"}} 2", names::TENANT_REQUESTS_TOTAL)));
        assert!(text.contains(&format!("{}{{tenant=\"alice\"}} 1", names::TENANT_THROTTLED_TOTAL)));
        // Hostile tenant keys cannot break exposition syntax.
        assert!(
            text.contains(&format!("{}{{tenant=\"we_ird\"}} 1", names::TENANT_REQUESTS_TOTAL)),
            "{text}"
        );
        // Cluster conn-pool counters render with the wire family.
        assert!(text.contains(&format!("{} 0\n", names::CLUSTER_CONNS_OPENED_TOTAL)));
        assert!(text.contains(&format!("{} 0\n", names::CLUSTER_CONN_REUSES_TOTAL)));
    }

    #[test]
    fn tenant_cardinality_is_capped() {
        let m = ServerMetrics::new();
        for i in 0..(MAX_LABELLED + 20) {
            m.record_tenant(&format!("tenant-{i}"), false);
        }
        let text = m.render_prometheus(
            &ResultCache::new(4),
            0,
            0,
            ExecStats::default(),
            StoreStats::default(),
            SketchStats::default(),
            TraceCounters::default(),
            None,
            ClusterSnapshot::default(),
            PagerSnapshot::default(),
        );
        assert!(text.contains(&format!("{}{{tenant=\"other\"}}", names::TENANT_REQUESTS_TOTAL)));
        let families = text.matches(&format!("{}{{", names::TENANT_REQUESTS_TOTAL)).count();
        assert!(families <= MAX_LABELLED + 1, "tenant cardinality exploded: {families}");
    }

    #[test]
    fn labelled_latency_families_render_and_cap() {
        let m = ServerMetrics::new();
        m.record_labelled("query_entropy_top_k", "households", 120);
        m.record_labelled("query_entropy_top_k", "households", 90_000);
        m.record_labelled("healthz", "-", 10);
        // A hostile dataset name cannot break exposition syntax.
        m.record_labelled("query_mi_top_k", "we\"ird{} name", 50);
        let text = m.render_prometheus(
            &ResultCache::new(4),
            0,
            0,
            ExecStats::default(),
            StoreStats::default(),
            SketchStats::default(),
            TraceCounters::default(),
            None,
            ClusterSnapshot::default(),
            PagerSnapshot::default(),
        );
        let fam = names::HTTP_ENDPOINT_MICROS;
        assert!(text.contains(&format!("# TYPE {fam} histogram")));
        assert!(text.contains(&format!(
            "{fam}_count{{endpoint=\"query_entropy_top_k\",dataset=\"households\"}} 2"
        )));
        assert!(text.contains(&format!("{fam}_count{{endpoint=\"healthz\",dataset=\"-\"}} 1")));
        assert!(
            text.contains(&format!(
                "{fam}_sum{{endpoint=\"query_mi_top_k\",dataset=\"we_ird___name\"}} 50"
            )),
            "{text}"
        );
        assert!(text.contains(&format!(
            "{fam}_approx_quantile{{endpoint=\"healthz\",dataset=\"-\",quantile=\"0.5\"}}"
        )));
        // Past the cardinality cap, new pairs collapse into other/other.
        for i in 0..(MAX_LABELLED + 10) {
            m.record_labelled("query_mi_top_k", &format!("ds{i}"), 10);
        }
        let text = m.render_prometheus(
            &ResultCache::new(4),
            0,
            0,
            ExecStats::default(),
            StoreStats::default(),
            SketchStats::default(),
            TraceCounters::default(),
            None,
            ClusterSnapshot::default(),
            PagerSnapshot::default(),
        );
        assert!(text.contains(&format!("{fam}_count{{endpoint=\"other\",dataset=\"other\"}}")));
        let families = text.matches(&format!("{fam}_count{{")).count();
        assert!(families <= MAX_LABELLED + 1, "cardinality exploded: {families}");
    }
}
