//! # swope-pager
//!
//! Out-of-core storage for `SWOP` snapshots: memory-map the file,
//! read CRC'd 64Ki-row pages in place, and bound how much of the
//! mapping stays resident with a process-wide byte-budget page cache.
//!
//! SWOPE's sampling loops touch a sublinear fraction of rows per query,
//! but the eager loader decodes whole snapshots into heap memory,
//! capping a server at RAM-sized datasets. This crate makes the SWOP
//! *page* — already length-delimited and individually checksummed — the
//! unit of residency instead, and the mapping the only copy of it:
//!
//! * [`mapping`] — the byte source: raw-syscall `mmap`/`munmap`/
//!   `madvise` on Linux behind the [`Mapping`] trait, with a
//!   buffered-read fallback, the same facility-behind-a-trait pattern
//!   as the server's `Poller`.
//!   [`Mapping::release`] hands a byte range back to the OS.
//! * [`mod@column`] — [`PagedColumn`]: an arithmetic page directory over
//!   the mapped payload, lazy first-touch CRC validation, and gathers
//!   and scans that decode little-endian codes straight out of a
//!   borrowed [`PageView`] — no decoded copy of any page anywhere. A v3
//!   page holds its codes in layout slot order, so the column is indexed
//!   by the positions a sample draws, as a heap column is.
//! * [`cache`] — [`PageCache`]: which pages count as resident, eviction
//!   of the least recently touched one against a configurable byte
//!   budget (`--store-budget-bytes`), and the release of every evicted
//!   page's bytes — so the budget bounds the snapshots' share of the
//!   process's resident set.
//!
//! Paged reads decode the exact bytes the eager path decodes, so query
//! results are bitwise identical across heap, mmap, and
//! budget-constrained modes — enforced end-to-end by
//! `core/tests/pager_invariance.rs`.
//!
//! Like the rest of the workspace, the crate uses no external
//! dependencies; the only unsafe code is the mmap facility itself.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod column;
pub mod mapping;

pub use cache::{PageCache, PagerSnapshot};
pub use column::{PageView, PagedColumn};
pub use mapping::{open_mapping, HeapMapping, Mapping};
