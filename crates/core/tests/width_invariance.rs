//! Determinism property: every adaptive loop must return bitwise-identical
//! results regardless of the physical width columns are packed at.
//!
//! Width packing changes only how codes are *stored* (`u8`/`u16`/`u32`);
//! every ingest widens each code to `u32` before touching a counter, so
//! the `(counter, joint)` update sequence — and therefore every float —
//! is identical across widths. This is the acceptance bar for the
//! width-generic gather path: a dataset loaded from a v1 snapshot
//! (all-`u32`) must answer queries exactly like the same dataset packed
//! narrow, at any thread count.

#[macro_use]
mod common;

use common::{all_shapes, config, plain, repacked, staggered_dataset as dataset};
use swope_columnar::{Dataset, Width};
use swope_core::SwopeConfig;

const THREADS: [usize; 2] = [1, 8];

/// Runs `query` on the dataset packed at each width × each thread count
/// and asserts every result equals the natural-width single-thread run.
fn assert_width_invariant<R: PartialEq + std::fmt::Debug>(
    seed: u64,
    query: impl Fn(&Dataset, &SwopeConfig) -> R,
) {
    let ds = dataset(seed, 12_000);
    let baseline = query(&ds, &config(seed, 1));
    for width in [Width::U8, Width::U16, Width::U32] {
        let packed = repacked(&ds, width);
        for a in 0..packed.num_attrs() {
            assert_eq!(packed.column(a).width(), width);
        }
        for t in THREADS {
            assert_eq!(
                query(&packed, &config(seed, t)),
                baseline,
                "width = {width}, threads = {t}"
            );
        }
    }
}

/// `all_shapes()[i]`, seeded `21 + i`.
fn assert_shape_width_invariant(i: usize) {
    let shape = all_shapes()[i];
    assert_width_invariant(21 + i as u64, |ds, cfg| plain(ds, &shape, cfg));
}

shape_tests!(assert_shape_width_invariant {
    entropy_top_k_is_width_invariant(0);
    entropy_filter_is_width_invariant(1);
    mi_top_k_is_width_invariant(2);
    mi_filter_is_width_invariant(3);
    entropy_profile_is_width_invariant(4);
    mi_profile_is_width_invariant(5);
});
