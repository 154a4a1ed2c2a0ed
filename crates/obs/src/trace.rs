//! Per-request tracing: span trees, trace ids, and the flight recorder.
//!
//! A trace is one served query decomposed into a tree of *spans* — named
//! intervals on a single monotonic clock anchored at the moment the
//! connection was accepted. The server opens a root `request` span, hangs
//! queue/cache/store spans off it, and a [`TraceObserver`] (a
//! [`QueryObserver`] adaptor) converts the adaptive loop's existing hook
//! stream into one `query:<kind>` span with a `sample_grow` / `ingest` /
//! `update_bounds` / `decide` child per iteration — no loop changes, no
//! trait changes, and the `NoopObserver` fast path is untouched.
//!
//! Everything here is dependency-free and lock-cheap: a [`SpanSink`] is a
//! bounded `Mutex<Vec<Span>>` touched only on the request's own threads,
//! and the [`TraceRecorder`] keeps two small ring buffers (recent + slow)
//! of finished traces for `GET /debug/traces` and `GET /debug/slow`.
//!
//! Trace ids travel in the `X-Swope-Trace` header: a client may supply up
//! to 16 hex digits; otherwise one is drawn from a process-global seeded
//! splitmix64 stream (no OS entropy — ids are reproducible within a
//! process run). The id is echoed back in the response header either way.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::ObjectWriter;
use crate::{Phase, QueryMeta, QueryObserver, RunStats};

/// Spans kept per trace before further opens are dropped (and counted).
pub const MAX_SPANS: usize = 512;

/// Sentinel span id returned once a sink is full; all operations on it
/// are no-ops.
const DROPPED: u32 = u32::MAX;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Process-global splitmix64 state for generated trace ids. Seeded with a
/// fixed constant: the workspace favors reproducibility over entropy, and
/// uniqueness within a server process is all the id needs.
static TRACE_ID_STATE: AtomicU64 = AtomicU64::new(0x5170_2021_C43E_97D1);

impl TraceId {
    /// Draws the next id from the global seeded stream.
    pub fn next_seeded() -> TraceId {
        // splitmix64: advance by the golden-ratio increment, then mix.
        let seed = TRACE_ID_STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TraceId(z ^ (z >> 31))
    }

    /// Parses a client-supplied id: 1–16 hex digits (case-insensitive).
    /// Anything else returns `None` and the server generates a fresh id.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One named interval within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dense id within the trace (index into the span list).
    pub id: u32,
    /// Parent span id; `None` for the root `request` span.
    pub parent: Option<u32>,
    /// Span name (`request`, `queue_wait`, `cache_lookup`,
    /// `query:<kind>`, a phase name, `exec_dispatch`, `store_gather`).
    pub name: String,
    /// Start, in nanoseconds since the trace clock's anchor.
    pub start_ns: u64,
    /// End, same clock; `0` while the span is open.
    pub end_ns: u64,
    /// Doubling iteration the span belongs to (`0` outside the loop).
    pub iteration: u64,
    /// Work counter: rows grown/ingested, candidates examined, items
    /// dispatched, bytes written — whatever the span's work is counted in.
    pub items: u64,
}

impl Span {
    fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64_field("id", u64::from(self.id));
        match self.parent {
            Some(p) => w.u64_field("parent", u64::from(p)),
            None => w.null_field("parent"),
        };
        w.str_field("name", &self.name)
            .u64_field("start_ns", self.start_ns)
            .u64_field("end_ns", self.end_ns)
            .u64_field("iteration", self.iteration)
            .u64_field("items", self.items);
        w.finish()
    }
}

/// Collects the spans of one in-flight trace.
///
/// Shared as an `Arc` between the request thread, the executor (for
/// dispatch spans), and the [`TraceObserver`]; all methods take `&self`.
/// The clock is anchored at construction (the server anchors it at the
/// instant the connection was accepted), so `start_ns == 0` is "when the
/// request arrived".
#[derive(Debug)]
pub struct SpanSink {
    trace_id: TraceId,
    started: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl SpanSink {
    /// New sink with the clock anchored now.
    pub fn new(trace_id: TraceId) -> Arc<SpanSink> {
        Self::anchored(trace_id, Instant::now())
    }

    /// New sink with the clock anchored at `started` (in the past).
    pub fn anchored(trace_id: TraceId, started: Instant) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            trace_id,
            started,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// The trace's id.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Nanoseconds elapsed since the trace clock's anchor.
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now. Returns its id.
    pub fn open(&self, name: &str, parent: Option<u32>) -> u32 {
        self.open_at(name, parent, self.now_ns())
    }

    /// Opens a span with an explicit start (e.g. `0` for the root).
    pub fn open_at(&self, name: &str, parent: Option<u32>, start_ns: u64) -> u32 {
        self.push(Span {
            id: 0,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            iteration: 0,
            items: 0,
        })
    }

    /// Records a complete span in one call. Returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        iteration: u64,
        items: u64,
    ) -> u32 {
        self.push(Span {
            id: 0,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            iteration,
            items,
        })
    }

    /// Closes an open span now.
    pub fn close(&self, id: u32) {
        let end = self.now_ns();
        self.with_span(id, |s| s.end_ns = end);
    }

    /// Sets a span's work counter (used to patch counters that are only
    /// known after the span closed, like the `sample_grow` row delta).
    pub fn set_items(&self, id: u32, items: u64) {
        self.with_span(id, |s| s.items = items);
    }

    /// Takes the collected spans (and the dropped count), leaving the
    /// sink empty. Called once when the request finishes.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().unwrap());
        (spans, self.dropped.load(Ordering::Relaxed))
    }

    fn push(&self, mut span: Span) -> u32 {
        let mut spans = self.spans.lock().unwrap();
        if spans.len() >= MAX_SPANS {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return DROPPED;
        }
        let id = spans.len() as u32;
        span.id = id;
        spans.push(span);
        id
    }

    fn with_span(&self, id: u32, f: impl FnOnce(&mut Span)) {
        if id == DROPPED {
            return;
        }
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = spans.get_mut(id as usize) {
            f(s);
        }
    }
}

/// Adapts the [`QueryObserver`] hook stream into spans on a [`SpanSink`].
///
/// The loops already report everything a span tree needs, just not in
/// span form: each `phase` hook carries wall nanos (converted to an
/// interval ending "now" on the sink clock) and the `iteration` hook
/// carries the sample size and live-candidate count, from which per-phase
/// work counters derive:
///
/// * `sample_grow` — ΔM rows appended (patched retroactively, since the
///   phase hook fires just before the `iteration` hook that reveals `m`),
/// * `ingest` — ΔM × live counter updates,
/// * `update_bounds` / `decide` — live candidates examined,
/// * `store_sketch` — scope resolution and an MI query's exact-marginal
///   read, before the first doubling; a predicate's scanned rows are
///   charged to the query's `rows_scanned`, so its items are 0.
#[derive(Debug)]
pub struct TraceObserver {
    sink: Arc<SpanSink>,
    parent: Option<u32>,
    query_span: u32,
    last_sample_grow: u32,
    prev_m: u64,
    delta_m: u64,
    live: u64,
}

impl TraceObserver {
    /// New adaptor writing under `parent` (usually the root request span).
    pub fn new(sink: Arc<SpanSink>, parent: Option<u32>) -> TraceObserver {
        TraceObserver {
            sink,
            parent,
            query_span: DROPPED,
            last_sample_grow: DROPPED,
            prev_m: 0,
            delta_m: 0,
            live: 0,
        }
    }
}

impl QueryObserver for TraceObserver {
    fn query_start(&mut self, meta: &QueryMeta) {
        self.query_span = self.sink.open(&format!("query:{}", meta.kind.name()), self.parent);
        self.prev_m = 0;
    }

    fn iteration(&mut self, _iteration: usize, m: usize, live_candidates: usize, _lambda: f64) {
        self.delta_m = (m as u64).saturating_sub(self.prev_m);
        self.prev_m = m as u64;
        self.live = live_candidates as u64;
        // The sample_grow phase hook fired before this one; patch in the
        // row delta it grew the sample by.
        if self.last_sample_grow != DROPPED {
            self.sink.set_items(self.last_sample_grow, self.delta_m);
            self.last_sample_grow = DROPPED;
        }
    }

    fn phase(&mut self, phase: Phase, iteration: usize, nanos: u64) {
        let end = self.sink.now_ns();
        let start = end.saturating_sub(nanos);
        let items = match phase {
            Phase::SampleGrow => 0, // patched by the next `iteration` hook
            Phase::Ingest => self.delta_m.saturating_mul(self.live),
            Phase::UpdateBounds | Phase::Decide => self.live,
            // One merged count state is applied per live candidate.
            Phase::ShardMerge => self.live,
            // Scope setup fires before the first iteration; a predicate's
            // setup rows are folded into rows_scanned.
            Phase::StoreSketch => 0,
        };
        let parent = (self.query_span != DROPPED).then_some(self.query_span);
        let id = self.sink.record(phase.name(), parent, start, end, iteration as u64, items);
        if phase == Phase::SampleGrow {
            self.last_sample_grow = id;
        }
    }

    fn query_end(&mut self, stats: &RunStats) {
        self.sink.set_items(self.query_span, stats.rows_scanned);
        self.sink.close(self.query_span);
    }
}

/// A finished trace, ready for the recorder and the `/debug` endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace's id, canonical 16-hex-digit form.
    pub trace_id: String,
    /// Endpoint label (`query_entropy_top_k`, …).
    pub endpoint: String,
    /// Dataset the query ran against (`-` when not applicable).
    pub dataset: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Result-cache outcome: `hit`, `miss`, or `-`.
    pub cache: String,
    /// Request wall time, nanoseconds from accept to response-built.
    pub wall_ns: u64,
    /// Spans dropped past the per-trace cap.
    pub dropped_spans: u64,
    /// The span tree, in creation order (root first).
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// Serializes the trace as one JSON object.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self.spans.iter().map(Span::to_json).collect();
        let mut w = ObjectWriter::new();
        w.str_field("trace_id", &self.trace_id)
            .str_field("endpoint", &self.endpoint)
            .str_field("dataset", &self.dataset)
            .u64_field("status", u64::from(self.status))
            .str_field("cache", &self.cache)
            .u64_field("wall_ns", self.wall_ns)
            .u64_field("dropped_spans", self.dropped_spans)
            .raw_field("spans", &format!("[{}]", spans.join(",")));
        w.finish()
    }
}

/// Bounded flight recorder for finished traces.
///
/// Two ring buffers: `recent` holds the last [`recent`](Self::recent_json)
/// traces of any speed, `slow` preferentially retains traces whose wall
/// time crossed the threshold — so a burst of fast traffic cannot evict
/// the slow query you are hunting.
#[derive(Debug)]
pub struct TraceRecorder {
    recent: Mutex<VecDeque<Arc<TraceRecord>>>,
    slow: Mutex<VecDeque<Arc<TraceRecord>>>,
    recent_cap: usize,
    slow_cap: usize,
    slow_threshold_ns: u64,
    recorded: AtomicU64,
    slow_recorded: AtomicU64,
}

impl TraceRecorder {
    /// Default ring capacities: traces kept in `/debug/traces`.
    pub const RECENT_CAP: usize = 64;
    /// Default ring capacities: traces kept in `/debug/slow`.
    pub const SLOW_CAP: usize = 32;

    /// New recorder; traces at or above `slow_threshold_ns` wall time are
    /// also retained in the slow ring.
    pub fn new(recent_cap: usize, slow_cap: usize, slow_threshold_ns: u64) -> TraceRecorder {
        TraceRecorder {
            recent: Mutex::new(VecDeque::with_capacity(recent_cap)),
            slow: Mutex::new(VecDeque::with_capacity(slow_cap)),
            recent_cap: recent_cap.max(1),
            slow_cap: slow_cap.max(1),
            slow_threshold_ns,
            recorded: AtomicU64::new(0),
            slow_recorded: AtomicU64::new(0),
        }
    }

    /// Default-sized recorder for a `--slow-ms` threshold.
    pub fn with_slow_ms(slow_ms: u64) -> TraceRecorder {
        Self::new(Self::RECENT_CAP, Self::SLOW_CAP, slow_ms.saturating_mul(1_000_000))
    }

    /// Total traces recorded since startup.
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces that crossed the slow threshold since startup.
    pub fn slow_total(&self) -> u64 {
        self.slow_recorded.load(Ordering::Relaxed)
    }

    /// Records a finished trace.
    pub fn record(&self, record: TraceRecord) {
        let slow = record.wall_ns >= self.slow_threshold_ns;
        let record = Arc::new(record);
        {
            let mut recent = self.recent.lock().unwrap();
            if recent.len() >= self.recent_cap {
                recent.pop_front();
            }
            recent.push_back(Arc::clone(&record));
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if slow {
            let mut ring = self.slow.lock().unwrap();
            if ring.len() >= self.slow_cap {
                ring.pop_front();
            }
            ring.push_back(record);
            self.slow_recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hard cap on a debug-listing body. Traces can carry hundreds of
    /// spans each; past this budget the *oldest* requested traces are
    /// dropped (the newest are the ones being debugged) and the body says
    /// so via `"truncated":true`.
    pub const MAX_BODY_BYTES: usize = 1 << 20;

    /// `GET /debug/traces` body: recent traces, oldest first.
    pub fn recent_json(&self) -> String {
        self.recent_json_n(usize::MAX)
    }

    /// `GET /debug/slow` body: retained slow traces, oldest first.
    pub fn slow_json(&self) -> String {
        self.slow_json_n(usize::MAX)
    }

    /// [`TraceRecorder::recent_json`] limited to the newest `n` traces.
    pub fn recent_json_n(&self, n: usize) -> String {
        let ring = self.recent.lock().unwrap();
        Self::render(&ring, n, self.recorded_total(), self.slow_threshold_ns)
    }

    /// [`TraceRecorder::slow_json`] limited to the newest `n` traces.
    pub fn slow_json_n(&self, n: usize) -> String {
        let ring = self.slow.lock().unwrap();
        Self::render(&ring, n, self.slow_total(), self.slow_threshold_ns)
    }

    fn render(
        ring: &VecDeque<Arc<TraceRecord>>,
        limit: usize,
        total: u64,
        threshold_ns: u64,
    ) -> String {
        // Walk newest-to-oldest so both limits (count and bytes) keep the
        // newest traces, then flip back to oldest-first for the body.
        let mut traces: Vec<String> = Vec::new();
        let mut bytes = 0usize;
        let mut truncated = false;
        for record in ring.iter().rev().take(limit) {
            let json = record.to_json();
            if bytes + json.len() > Self::MAX_BODY_BYTES {
                truncated = true;
                break;
            }
            bytes += json.len();
            traces.push(json);
        }
        truncated |= limit < ring.len();
        traces.reverse();
        let mut w = ObjectWriter::new();
        w.u64_field("recorded_total", total)
            .u64_field("slow_threshold_ns", threshold_ns)
            .u64_field("returned", traces.len() as u64)
            .bool_field("truncated", truncated)
            .raw_field("traces", &format!("[{}]", traces.join(",")));
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{Plan, QueryKind};

    #[test]
    fn trace_id_parse_and_format_round_trip() {
        let id = TraceId::parse("deadbeef1234").unwrap();
        assert_eq!(id, TraceId(0xdead_beef_1234));
        assert_eq!(id.to_string(), "0000deadbeef1234");
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
        assert_eq!(TraceId::parse("  ABCDEF  "), Some(TraceId(0xabcdef)));
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("0123456789abcdef0"), None); // 17 digits
    }

    #[test]
    fn seeded_ids_are_distinct() {
        let a = TraceId::next_seeded();
        let b = TraceId::next_seeded();
        assert_ne!(a, b);
        assert_eq!(a.to_string().len(), 16);
    }

    #[test]
    fn sink_builds_a_tree_and_caps_spans() {
        let sink = SpanSink::new(TraceId(1));
        let root = sink.open_at("request", None, 0);
        let child = sink.open("work", Some(root));
        sink.set_items(child, 42);
        sink.close(child);
        sink.close(root);
        for _ in 0..MAX_SPANS {
            sink.open("filler", Some(root));
        }
        let (spans, dropped) = sink.drain();
        assert_eq!(spans.len(), MAX_SPANS);
        assert_eq!(dropped, 2);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].items, 42);
        assert!(spans[1].end_ns >= spans[1].start_ns);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn trace_observer_derives_phase_spans_and_items() {
        let sink = SpanSink::new(TraceId(2));
        let root = sink.open_at("request", None, 0);
        let mut obs = TraceObserver::new(Arc::clone(&sink), Some(root));
        obs.query_start(&QueryMeta {
            kind: QueryKind::MiTopK,
            num_attrs: 8,
            epsilon: 0.2,
            threads: 1,
            plan: Plan { n: 1000, ..Plan::default() },
        });
        // Two iterations with the hook order the loops use.
        for (it, (m, live)) in [(64usize, 8usize), (128, 5)].iter().enumerate() {
            let it = it + 1;
            obs.phase(Phase::SampleGrow, it, 10);
            obs.iteration(it, *m, *live, 0.5);
            obs.phase(Phase::Ingest, it, 20);
            obs.phase(Phase::UpdateBounds, it, 5);
            obs.phase(Phase::Decide, it, 5);
        }
        obs.query_end(&RunStats {
            sample_size: 128,
            iterations: 2,
            rows_scanned: 64 * 8 + 64 * 5,
            converged_early: true,
        });
        let (spans, dropped) = sink.drain();
        assert_eq!(dropped, 0);
        let query = spans.iter().find(|s| s.name == "query:mi_top_k").unwrap();
        assert_eq!(query.parent, Some(root));
        assert_eq!(query.items, 64 * 8 + 64 * 5);
        assert!(query.end_ns > 0);
        let by = |name: &str, it: u64| {
            spans.iter().find(|s| s.name == name && s.iteration == it).unwrap().clone()
        };
        // sample_grow items are the patched-in row deltas.
        assert_eq!(by("sample_grow", 1).items, 64);
        assert_eq!(by("sample_grow", 2).items, 64);
        // ingest items are delta × live for that iteration.
        assert_eq!(by("ingest", 1).items, 64 * 8);
        assert_eq!(by("ingest", 2).items, 64 * 5);
        assert_eq!(by("decide", 2).items, 5);
        // Every phase span nests under the query span with sane intervals.
        for s in spans.iter().filter(|s| s.parent == Some(query.id)) {
            assert!(s.end_ns >= s.start_ns, "{s:?}");
        }
        let phase_total: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(query.id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(phase_total, 2 * (10 + 20 + 5 + 5));
    }

    #[test]
    fn record_json_parses_with_span_tree() {
        let sink = SpanSink::new(TraceId(0xabc));
        let root = sink.open_at("request", None, 0);
        sink.record("queue_wait", Some(root), 0, 5, 0, 0);
        sink.close(root);
        let (spans, dropped) = sink.drain();
        let rec = TraceRecord {
            trace_id: sink.trace_id().to_string(),
            endpoint: "query_entropy_top_k".into(),
            dataset: "tiny".into(),
            status: 200,
            cache: "miss".into(),
            wall_ns: 1234,
            dropped_spans: dropped,
            spans,
        };
        let v = Json::parse(&rec.to_json()).unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("0000000000000abc"));
        assert_eq!(v.get("status").unwrap().as_u64(), Some(200));
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("queue_wait"));
    }

    fn quick_record(wall_ns: u64, tag: &str) -> TraceRecord {
        TraceRecord {
            trace_id: tag.into(),
            endpoint: "query_entropy_top_k".into(),
            dataset: "d".into(),
            status: 200,
            cache: "miss".into(),
            wall_ns,
            dropped_spans: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn recorder_retains_slow_traces_preferentially() {
        let rec = TraceRecorder::new(2, 2, 1_000);
        rec.record(quick_record(5_000, "slow-1"));
        for i in 0..10 {
            rec.record(quick_record(10, &format!("fast-{i}")));
        }
        // The fast burst evicted slow-1 from the recent ring…
        let recent = Json::parse(&rec.recent_json()).unwrap();
        let ids: Vec<String> = recent
            .get("traces")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t.get("trace_id").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(!ids.iter().any(|i| i == "slow-1"), "{ids:?}");
        // …but the slow ring still has it.
        let slow = Json::parse(&rec.slow_json()).unwrap();
        let slow_ids = slow.get("traces").unwrap().as_array().unwrap();
        assert_eq!(slow_ids.len(), 1);
        assert_eq!(slow_ids[0].get("trace_id").unwrap().as_str(), Some("slow-1"));
        assert_eq!(rec.recorded_total(), 11);
        assert_eq!(rec.slow_total(), 1);
        assert_eq!(slow.get("slow_threshold_ns").unwrap().as_u64(), Some(1_000));
    }

    #[test]
    fn slow_ring_is_bounded() {
        let rec = TraceRecorder::new(4, 2, 0); // threshold 0: everything is slow
        for i in 0..5 {
            rec.record(quick_record(i, &format!("t{i}")));
        }
        let slow = Json::parse(&rec.slow_json()).unwrap();
        assert_eq!(slow.get("traces").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(rec.slow_total(), 5);
    }
}
