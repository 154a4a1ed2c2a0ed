//! swope-cluster: the wire layer of SWOPE's shard-parallel scatter-gather.
//!
//! `swope_core::shard` proves that the adaptive loops stay bitwise-exact
//! when each doubling iteration's counting is split across disjoint row
//! shards and merged as pure integer histograms. This crate carries that
//! protocol over TCP:
//!
//! * [`frame`] — the dependency-free binary format: length-prefixed,
//!   CRC32-trailed typed frames (`Hello`, `GrowDelta`, `CountMerge`,
//!   `Result`, `Error`, `Marginals`), sniffable from HTTP by the leading
//!   `SWPC` magic.
//! * [`peer`] — the shard-server side: count the rows it is sent over a
//!   resident dataset slice.
//! * [`coordinator`] — [`RemoteShardSource`], a
//!   [`swope_core::ShardTransport`] whose shards are remote peers: it
//!   draws the query's one sample and sends each peer its rows, with
//!   explicit connect/read timeouts so dead peers degrade to one-line
//!   errors instead of hung workers.
//! * [`stats`] — process-wide `swope_cluster_*` counters.
//!
//! The peers' slices are laid end to end in configuration order to form
//! the union population, so a coordinator query over peers holding rows
//! `[0, a)` and `[a, n)` returns byte-for-byte what a single box holding
//! all `n` rows would — the property the server's cluster smoke test
//! diffs for.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod frame;
pub mod peer;
pub mod stats;

pub use coordinator::{probe, ClusterProbe, PeerPool, PeerTimeouts, RemoteShardSource};
pub use frame::{Frame, FrameError, MAGIC, PROTOCOL_VERSION};
pub use peer::{serve_connection, DatasetResolver, PeerDataset, SessionEnd};
pub use stats::{ClusterSnapshot, ClusterStats};
