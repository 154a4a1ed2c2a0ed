//! # swope-store
//!
//! The physical storage layer under `swope-columnar`: dictionary codes
//! packed at the narrowest integer width their support allows, plus the
//! paged, checksummed primitives of the `SWOP` on-disk format (v2 and v3).
//!
//! SWOPE's adaptive loops are memory-bandwidth bound: every sampling
//! iteration gathers permuted codes out of a column, so the bytes each
//! code occupies directly set the bytes the gather streams through
//! cache. A column whose support fits in a byte has no business storing
//! `u32`s. This crate owns that decision:
//!
//! * [`Width`] — the `u8`/`u16`/`u32` storage width selected from a
//!   column's support (`support ≤ 256 → u8`, `≤ 65536 → u16`, else
//!   `u32`; codes are strictly `< support`, so the largest code at the
//!   boundary is 255 / 65535).
//! * [`CodeRepr`] — the per-width element trait the hot loops
//!   monomorphize over: one `match` per ingest call, zero per-row
//!   branching, widening to [`Code`] (`u32`) only at counter update.
//! * [`CodeVisitor`] — what a column read hands its codes to, a slice at
//!   a time at the column's width, wherever the column lives.
//! * [`PackedCodes`] / [`PackedColumn`] — the width-tagged code vector
//!   and the validated column (`code < support`) built on it.
//! * [`CodeBuf`] — a width-tagged scratch vector for gather staging, so
//!   gathered blocks stay narrow too.
//! * [`crc32`] — the IEEE CRC32 guarding every on-disk page.
//! * [`page`] — the paged column payload codec (per-page checksums,
//!   length-validated before any allocation).
//! * [`section`] — the `SWOP` section table (offsets/lengths
//!   validated against the actual byte count before anything is
//!   trusted).
//! * [`ByteReader`] — the bounds-checked cursor every decoder reads
//!   with: snapshot, sketch and cluster frame.
//!
//! The crate is the lowest layer of the workspace and depends on
//! nothing, matching the workspace's no-external-dependency rule.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod crc32;
mod error;
pub mod gather_stats;
mod packed;
pub mod page;
mod reader;
pub mod section;
mod width;

pub use error::StoreError;
pub use packed::{gather, CodeBuf, PackedCodes, PackedColumn};
pub use reader::{ByteReader, ReadError};
pub use width::{CodeRepr, CodeVisitor, Width, BLOCK_ROWS};

/// A dictionary-encoded attribute value, widened for arithmetic.
/// Always in `0..support`.
pub type Code = u32;

/// Dispatches on a [`PackedCodes`]'s width, binding the typed code slice
/// and running `$body` once — the single `match` that monomorphizes a
/// hot loop over [`CodeRepr`] without per-row branching.
///
/// ```
/// use swope_store::{for_packed, CodeRepr, PackedColumn};
/// let col = PackedColumn::new(vec![0, 2, 1], 3).unwrap();
/// let sum = for_packed!(col.codes(), |codes| {
///     codes.iter().map(|&c| c.widen() as u64).sum::<u64>()
/// });
/// assert_eq!(sum, 3);
/// ```
#[macro_export]
macro_rules! for_packed {
    ($packed:expr, |$codes:ident| $body:expr) => {
        match $packed {
            $crate::PackedCodes::U8($codes) => $body,
            $crate::PackedCodes::U16($codes) => $body,
            $crate::PackedCodes::U32($codes) => $body,
        }
    };
}

/// [`for_packed!`] for a [`CodeBuf`]: binds the typed scratch vector of
/// whichever width the buffer currently holds and runs `$body` once —
/// how a loop reads back a block a width-erased gather just staged.
///
/// ```
/// use swope_store::{for_buf, CodeBuf, CodeRepr};
/// let buf = CodeBuf::U8(vec![4, 0, 1]);
/// let sum = for_buf!(&buf, |codes| codes.iter().map(|&c| c.widen()).sum::<u32>());
/// assert_eq!(sum, 5);
/// ```
#[macro_export]
macro_rules! for_buf {
    ($buf:expr, |$codes:ident| $body:expr) => {
        match $buf {
            $crate::CodeBuf::U8($codes) => $body,
            $crate::CodeBuf::U16($codes) => $body,
            $crate::CodeBuf::U32($codes) => $body,
        }
    };
}
