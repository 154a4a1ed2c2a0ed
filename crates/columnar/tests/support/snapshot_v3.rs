//! A test-only writer of a slice as the v3 snapshot it was before slices
//! kept their table's layout: the same rows, laid out as a dataset of
//! its own row count, with no frame. The writer emits v4 for every slice
//! now. A v3 half is its own frame, so two of them tile no frame, and a
//! coordinator refuses them at `Hello`; these bytes are what that
//! refusal is tested on.
//!
//! Included by path wherever a test needs a half in its own layout, so it
//! names only `swope_columnar`, which every includer depends on.

use swope_columnar::{snapshot, Column, Dataset};

/// The v3 encoding of `ds`'s rows as a dataset of its own.
pub fn v3_of(ds: &Dataset) -> Vec<u8> {
    let columns = (0..ds.num_attrs())
        .map(|a| Column::new_unchecked(ds.column(a).to_codes(), ds.column(a).support()))
        .collect();
    let own = Dataset::new(ds.schema().clone(), columns).expect("the slice's own columns");
    let bytes = snapshot::encode(&own);
    assert_eq!(bytes[4..6], snapshot::VERSION.to_le_bytes(), "a dataset of its own writes v3");
    bytes
}
