//! # swope-server
//!
//! A long-running, dependency-free query server for SWOPE's adaptive
//! entropy/mutual-information queries, hand-rolled over
//! `std::net::TcpListener` (the workspace builds without crates.io
//! access).
//!
//! The pieces compose like this:
//!
//! * [`event`] — a dependency-free readiness layer: raw-syscall epoll on
//!   Linux, portable `poll(2)` elsewhere, behind one `Poller` trait,
//!   plus the self-pipe workers use to wake the event thread.
//! * [`conn`] — the per-connection state machine (reading → dispatched →
//!   writing → keep-alive idle) with incremental HTTP/1.1 parsing and
//!   pipelining out of one buffer; one thread multiplexes every
//!   connection, so an idle client costs a file descriptor, not a
//!   thread.
//! * [`quota`] — per-tenant token-bucket admission keyed by
//!   `X-Swope-Api-Key` (`429 + Retry-After`), run on the event thread
//!   before a request can occupy a worker or queue slot.
//! * [`registry::DatasetRegistry`] — named, immutable `Arc<Dataset>`
//!   handles loaded at startup or via `POST /datasets`, with a generation
//!   counter so replacement can never serve stale cache entries.
//! * [`pool::WorkerPool`] — a fixed thread count over a bounded queue;
//!   the event thread sheds load with `503 + Retry-After` when the queue
//!   is full, and requests that outlive their queueing deadline are
//!   answered 503 without running.
//! * [`cache::ResultCache`] — an LRU of serialized response bodies keyed
//!   by `(dataset@generation, shape, params, seed)`. Queries are
//!   deterministic, so a hit is byte-identical to re-execution and skips
//!   the adaptive loop entirely — and the worker pool: the lookup is an
//!   admission stage on the event thread, after the quota and before
//!   the shed check, and only a miss crosses to a worker.
//! * [`metrics::ServerMetrics`] — HTTP-layer counters stacked on the
//!   query-level [`swope_obs::MetricsRegistry`], all rendered as one
//!   Prometheus document at `GET /metrics`.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + dataset/queue gauges |
//! | `GET /metrics` | Prometheus exposition text |
//! | `GET /datasets` | registered datasets with per-column stats |
//! | `POST /datasets` | load `{"path": ..., "name"?: ...}` |
//! | `GET /query/entropy-topk` | Algorithm 1 (`dataset`, `k`) |
//! | `GET /query/entropy-filter` | Algorithm 2 (`dataset`, `eta`) |
//! | `GET /query/mi-topk` | Algorithm 3 (`dataset`, `target`, `k`) |
//! | `GET /query/mi-filter` | Algorithm 4 (`dataset`, `target`, `eta`) |
//! | `GET /query/entropy-profile` | all-attribute entropy (`dataset`) |
//! | `GET /query/mi-profile` | all-attribute MI (`dataset`, `target`) |
//! | `GET /debug/traces` | recent request traces (span trees, JSON) |
//! | `GET /debug/slow` | slow-query flight recorder (wall ≥ `slow_ms`) |
//!
//! Query endpoints share optional `epsilon`, `pf`, `seed`, and `threads`
//! parameters. [`query`] parses, checks and resolves every query, the
//! CLI's included: `swope <query> <file>` is its second client, so both
//! give one query on one file one answer.
//!
//! Any query request carrying an `X-Swope-Trace` header (or every query,
//! when serving with tracing on) is recorded as a span tree of the path
//! it took — the same path an untraced request takes. A hit's tree is
//! its cache lookup, answered on the event thread; a miss adds its queue
//! wait, the adaptive loop's phases, pooled exec dispatches, and
//! aggregate store-gather time. Traces are retrievable from the `/debug`
//! endpoints; the trace id is echoed back in the response's
//! `X-Swope-Trace` header. See `docs/observability.md` for the span
//! schema and curl recipes.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod conn;
pub mod event;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod query;
pub mod quota;
pub mod registry;
pub mod server;
pub mod signal;

pub use cache::ResultCache;
pub use metrics::ServerMetrics;
pub use pool::WorkerPool;
pub use quota::TenantQuotas;
pub use registry::{DatasetEntry, DatasetRegistry, StoreStats};
pub use server::{Server, ServerConfig, ServerHandle};
