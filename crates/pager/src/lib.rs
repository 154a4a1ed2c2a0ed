//! # swope-pager
//!
//! Out-of-core storage for `SWOP` v2 snapshots: memory-map the file,
//! fault CRC'd 64Ki-row pages resident on first touch, and bound total
//! decoded bytes with a process-wide byte-budget page cache.
//!
//! SWOPE's sampling loops touch a sublinear fraction of rows per query,
//! but the eager loader decodes whole snapshots into heap memory,
//! capping a server at RAM-sized datasets. This crate makes the SWOP v2
//! *page* — already length-delimited and individually checksummed — the
//! unit of residency instead:
//!
//! * [`mapping`] — the byte source: raw-syscall `mmap`/`munmap`/
//!   `madvise` on Linux behind the [`Mapping`] trait, with a
//!   buffered-read fallback (`SWOPE_FORCE_READ=1` forces it), the same
//!   facility-behind-a-trait pattern as the server's `Poller`.
//! * [`mod@column`] — [`PagedColumn`]: an arithmetic page directory over
//!   the mapped payload, lazy first-touch CRC validation, and gathers
//!   served page-by-page through the width-generic `CodeRepr` decode
//!   path — no eager whole-column decode anywhere.
//! * [`group`] — [`PageGrouper`]: reorders a sampled row list so each
//!   page's rows are adjacent, once per iteration for every attribute,
//!   which is what lets a gather pin each touched page exactly once.
//! * [`cache`] — [`PageCache`]: CLOCK second-chance eviction over every
//!   decoded page against a configurable byte budget
//!   (`--store-budget-bytes`), demoting cold pages to a compressed tier
//!   (RLE / palette, picked per page from the sketch histogram) before
//!   dropping them entirely.
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
pub mod group;
pub mod mapping;

pub use cache::{PageCache, PagerSnapshot};
pub use column::PagedColumn;
pub use group::PageGrouper;
pub use mapping::{open_mapping, HeapMapping, Mapping};
