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
    grow_delta_bytes: AtomicU64,
    count_merge_bytes: AtomicU64,
    count_entries: AtomicU64,
    peer_errors: AtomicU64,
    conns_opened: AtomicU64,
    conn_reuses: AtomicU64,
    peer_run_positions: AtomicU64,
    peer_list_positions: AtomicU64,
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
    /// Wire bytes of the `GrowDelta` frames among them, written or read:
    /// the positions a coordinator sends its peers.
    pub grow_delta_bytes: u64,
    /// Wire bytes of the `CountMerge` frames among them, written or read:
    /// the counts peers send back.
    pub count_merge_bytes: u64,
    /// Histogram entries and joint runs decoded from `CountMerge` frames
    /// — what the received bytes carried.
    pub count_entries: u64,
    /// Peer connections or frames that failed.
    pub peer_errors: u64,
    /// Fresh TCP connections dialed to peers.
    pub conns_opened: u64,
    /// Pooled peer connections reused for a new query.
    pub conn_reuses: u64,
    /// Positions a peer counted as runs of its storage, read in place.
    pub peer_run_positions: u64,
    /// Positions a peer counted one by one.
    pub peer_list_positions: u64,
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

    /// Counts one `GrowDelta` of `bytes` on the wire, already counted as
    /// sent or received.
    pub fn record_grow_delta(&self, bytes: usize) {
        self.grow_delta_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one `CountMerge` of `bytes` on the wire, already counted as
    /// sent or received.
    pub fn record_count_merge(&self, bytes: usize) {
        self.count_merge_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
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

    /// Counts the positions one peer count read: `run` of them in runs,
    /// `list` one by one.
    pub fn record_positions(&self, run: u64, list: u64) {
        self.peer_run_positions.fetch_add(run, Ordering::Relaxed);
        self.peer_list_positions.fetch_add(list, Ordering::Relaxed);
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
            grow_delta_bytes: self.grow_delta_bytes.load(Ordering::Relaxed),
            count_merge_bytes: self.count_merge_bytes.load(Ordering::Relaxed),
            count_entries: self.count_entries.load(Ordering::Relaxed),
            peer_errors: self.peer_errors.load(Ordering::Relaxed),
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            conn_reuses: self.conn_reuses.load(Ordering::Relaxed),
            peer_run_positions: self.peer_run_positions.load(Ordering::Relaxed),
            peer_list_positions: self.peer_list_positions.load(Ordering::Relaxed),
        }
    }
}
