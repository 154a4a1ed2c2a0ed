//! # swope-columnar
//!
//! Columnar dataset substrate for the SWOPE framework.
//!
//! The SWOPE paper (Chen & Wang, SIGMOD 2021) operates on datasets of `N`
//! records with `h` *categorical* attributes, stored column-by-column so
//! that a query touching a subset of attributes only scans the columns it
//! needs. This crate provides that substrate:
//!
//! * [`Dictionary`] — interning of raw attribute values into dense codes
//!   `0..u` where `u` is the support size (the paper assumes values in
//!   `[1, u_alpha]`; we use zero-based codes internally).
//! * [`Column`] — a dictionary-encoded categorical column, width-packed
//!   by `swope-store` (`u8`/`u16`/`u32` selected from the support).
//! * [`Schema`] / [`Field`] — attribute names and support sizes.
//! * [`Dataset`] — an immutable columnar table plus its schema.
//! * [`DatasetBuilder`] — row-oriented construction from raw string values.
//! * [`csv`] — a small self-contained CSV reader.
//! * [`snapshot`] — a compact binary on-disk format for datasets.
//!   [`snapshot::open`] reads one at either [`Residency`]: decoded to
//!   heap columns, or *out-of-core* — columns stay in the mapped file
//!   and fault page-by-page through a `swope-pager` [`PageCache`] byte
//!   budget.
//! * [`stats`] — per-column summary statistics.
//!
//! # Example
//!
//! ```
//! use swope_columnar::DatasetBuilder;
//!
//! let mut b = DatasetBuilder::new(vec!["color".into(), "size".into()]);
//! b.push_row(&["red", "small"]).unwrap();
//! b.push_row(&["blue", "large"]).unwrap();
//! b.push_row(&["red", "large"]).unwrap();
//! let ds = b.finish();
//!
//! assert_eq!(ds.num_rows(), 3);
//! assert_eq!(ds.num_attrs(), 2);
//! assert_eq!(ds.column(0).support(), 2); // {red, blue}
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod builder;
mod column;
pub mod csv;
mod dataset;
mod dictionary;
mod error;
mod schema;
pub mod snapshot;
pub mod stats;

pub use builder::DatasetBuilder;
pub use column::Column;
pub use dataset::{Dataset, DEFAULT_MAX_SUPPORT};
pub use dictionary::Dictionary;
pub use error::ColumnarError;
pub use schema::{Field, Schema};
pub use snapshot::Residency;
// Storage-layer items callers of this crate routinely need: the width a
// column is packed at, the packed storage a heap column holds, and the
// width-generic pieces a column read is built from.
pub use swope_store::{for_buf, for_packed, CodeBuf, CodeRepr, CodeVisitor, PackedCodes};
pub use swope_store::{PackedColumn, Width};
// The partition sketch a snapshot carries alongside its columns; scoped
// queries in `swope-core` consume it.
pub use swope_sketch::{ColumnSketch, ColumnSketchBuilder, DatasetSketch, SketchKind};

// The sketch/scope page granularity, re-exported so downstream crates
// (server, CLI, benches) can reason about page alignment without a
// direct swope-store dependency.
pub use swope_store::page::{PageGrid, PAGE_ROWS};

// The checksum over every snapshot page and section (and every cluster
// frame), for the same callers: layer benches time the kernel itself.
pub use swope_store::crc32::crc32;

// The pager types callers need to open datasets out-of-core: the page
// cache a budget is configured on (plus its metrics snapshot), the
// pager-backed column a paged [`Column`] reads through, and the byte
// sources `snapshot::open_on` accepts.
pub use swope_pager::{HeapMapping, Mapping, PageCache, PagedColumn, PagerSnapshot};

// What the count kernels read a sample delta as: runs and a list of
// storage positions, as `swope_sampling::PagePrefix` draws them.
pub use swope_sampling::Positions;

/// Index of an attribute (column) within a dataset. Always in `0..h`.
pub type AttrIndex = usize;

/// A dictionary-encoded attribute value. Always in `0..support`.
pub type Code = u32;
