//! Opt-in global instrumentation of the [`gather`](crate::gather) hot
//! path, consumed by the server's request tracer.
//!
//! Gather runs on exec worker threads deep below any per-request context,
//! so per-request attribution is impossible without threading state
//! through every loop. Instead the tracer snapshots these process-global
//! counters around a query and records the delta as one aggregate
//! `store_gather` span (exact when queries run one at a time, which is
//! how the default single-connection-per-request server behaves;
//! approximate under concurrent tracing, which the docs call out).
//!
//! Everything is gated behind one relaxed [`AtomicBool`]: with tracing
//! off the gather path pays a single predictable-branch load and no clock
//! reads, preserving the workspace's zero-overhead-when-disabled rule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static ROWS: AtomicU64 = AtomicU64::new(0);
static NANOS: AtomicU64 = AtomicU64::new(0);

/// Turns gather timing on or off process-wide. The server flips this on
/// once at startup when serving with `--trace`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether gather calls are currently being counted and timed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Point-in-time totals of the gather counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherSnapshot {
    /// Gather invocations (one per staged block per candidate).
    pub calls: u64,
    /// Rows gathered across all calls.
    pub rows: u64,
    /// Wall-clock nanoseconds spent inside gather.
    pub nanos: u64,
}

impl GatherSnapshot {
    /// The counter movement since an earlier snapshot.
    pub fn since(self, earlier: GatherSnapshot) -> GatherSnapshot {
        GatherSnapshot {
            calls: self.calls.saturating_sub(earlier.calls),
            rows: self.rows.saturating_sub(earlier.rows),
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }
}

/// Reads the current totals (relaxed; safe to race with gathers).
pub fn snapshot() -> GatherSnapshot {
    GatherSnapshot {
        calls: CALLS.load(Ordering::Relaxed),
        rows: ROWS.load(Ordering::Relaxed),
        nanos: NANOS.load(Ordering::Relaxed),
    }
}

/// Books one gather of `rows` rows that took `nanos`. Callers check
/// [`enabled`] first, so the clock is only read while tracing is on.
/// Public for the pager's gather of position lists, which is the same layer
/// over a different physical representation.
#[inline]
pub fn record(rows: usize, nanos: u64) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    ROWS.fetch_add(rows as u64, Ordering::Relaxed);
    NANOS.fetch_add(nanos, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather;

    // One test covers both flag states: the flag is process-global, so
    // splitting these would let the parallel test runner race them.
    #[test]
    fn gathers_count_only_while_enabled() {
        // Default state: disabled. Deltas must stay zero.
        let before = snapshot();
        let mut buf8: Vec<u8> = Vec::new();
        gather(&[9u8, 8, 7, 6], &[0, 2], &mut buf8);
        assert_eq!(buf8, vec![9, 7]);
        assert_eq!(snapshot().since(before), GatherSnapshot::default());

        // Enabled: calls, rows, and (possibly zero on a coarse clock)
        // nanos accumulate.
        set_enabled(true);
        let before = snapshot();
        let mut buf: Vec<u16> = Vec::new();
        gather(&[1u16, 2, 3, 4, 5], &[4, 3, 0], &mut buf);
        gather(&[1u16, 2, 3, 4, 5], &[1], &mut buf);
        let delta = snapshot().since(before);
        set_enabled(false);
        assert_eq!(buf, vec![2]);
        assert_eq!(delta.calls, 2);
        assert_eq!(delta.rows, 4);
        assert!(delta.nanos < u64::MAX / 2);
    }
}
