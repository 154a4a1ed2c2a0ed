//! Shared cluster counters, exported as `swope_cluster_*` Prometheus
//! families by the server (see `swope_obs::names`).
//!
//! One [`ClusterStats`] instance is shared by every coordinator query
//! and every peer session in a process: relaxed atomic counters, read
//! with [`ClusterStats::snapshot`] at scrape time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic wire/merge counters for one process.
#[derive(Debug, Default)]
pub struct ClusterStats {
    queries: AtomicU64,
    merges: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    count_entries: AtomicU64,
    peer_errors: AtomicU64,
    conns_opened: AtomicU64,
    conn_reuses: AtomicU64,
}

/// A point-in-time copy of [`ClusterStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Cluster queries started (coordinator side).
    pub queries: u64,
    /// Exact count merges performed (one per doubling iteration).
    pub merges: u64,
    /// Protocol frames written to peers.
    pub frames_sent: u64,
    /// Protocol frames read from peers.
    pub frames_received: u64,
    /// Wire bytes written.
    pub bytes_sent: u64,
    /// Wire bytes read.
    pub bytes_received: u64,
    /// Histogram entries and joint runs decoded from `CountMerge` frames
    /// — what the received bytes carried.
    pub count_entries: u64,
    /// Peer connections or frames that failed.
    pub peer_errors: u64,
    /// Fresh TCP connections dialed to peers.
    pub conns_opened: u64,
    /// Pooled peer connections reused for a new query.
    pub conn_reuses: u64,
}

impl ClusterStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one cluster query start.
    pub fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one exact count merge.
    pub fn record_merge(&self) {
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame put on the wire.
    pub fn record_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one frame read off the wire.
    pub fn record_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts the entries of one decoded `CountMerge`.
    pub fn record_entries(&self, entries: u64) {
        self.count_entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Counts one failed peer interaction.
    pub fn record_peer_error(&self) {
        self.peer_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one fresh TCP connection dialed to a peer.
    pub fn record_conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one pooled connection reused across queries.
    pub fn record_conn_reuse(&self) {
        self.conn_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy for metrics scrapes.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            count_entries: self.count_entries.load(Ordering::Relaxed),
            peer_errors: self.peer_errors.load(Ordering::Relaxed),
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            conn_reuses: self.conn_reuses.load(Ordering::Relaxed),
        }
    }
}
