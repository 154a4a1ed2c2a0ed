//! Determinism property: tracing must be purely observational.
//!
//! Every adaptive loop must return bitwise-identical results with a
//! `TraceObserver` attached (and a trace-bound executor recording
//! `exec_dispatch` spans) versus the plain `NoopObserver` run — across
//! exec parallelism 1 and 8. This is the acceptance gate for the tracing
//! layer: the `NoopObserver` monomorphization is untouched (the loops
//! did not change), and the traced path only *reads* clocks and records
//! spans from serial sections, so answers cannot move. Observer-on ≡
//! observer-off is checked here for every shape, through the one `run`
//! both go through.
//!
//! Mirrors `thread_invariance.rs` (same staggered-retirement dataset).

#[macro_use]
mod common;

use std::sync::Arc;

use common::{all_shapes, config, plain, staggered_dataset as dataset};
use swope_core::exec::Executor;
use swope_core::{run, Scope};
use swope_obs::trace::{SpanSink, TraceId, TraceObserver};

const THREADS: [usize; 2] = [1, 8];

/// A traced executor plus the observer feeding the same sink, and a
/// closure to assert the trace looked like a real query afterwards.
fn traced(threads: usize) -> (Executor, TraceObserver, Arc<SpanSink>) {
    let sink = SpanSink::new(TraceId::next_seeded());
    let root = sink.open_at("request", None, 0);
    let exec = Executor::new(threads).with_trace(Arc::clone(&sink), root);
    let obs = TraceObserver::new(Arc::clone(&sink), Some(root));
    (exec, obs, sink)
}

fn assert_complete_trace(sink: &Arc<SpanSink>, threads: usize) {
    let (spans, dropped) = sink.drain();
    assert_eq!(dropped, 0, "trace overflowed its span cap");
    let query = spans
        .iter()
        .find(|s| s.name.starts_with("query:"))
        .unwrap_or_else(|| panic!("no query span in {spans:?}"));
    assert!(query.end_ns > 0, "query span never closed");
    for phase in ["sample_grow", "ingest", "update_bounds", "decide"] {
        assert!(
            spans.iter().any(|s| s.name == phase && s.parent == Some(query.id)),
            "missing {phase} span (threads = {threads})"
        );
    }
    // Phase time nests inside the query span's interval.
    let phase_total: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(query.id))
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    assert!(
        phase_total <= query.end_ns,
        "phase nanos {phase_total} exceed query wall {}",
        query.end_ns
    );
}

/// `all_shapes()[i]`, seeded `i + 1`: traced at each thread count
/// against the untraced sequential run.
fn assert_trace_invariant(i: usize) {
    let (shape, seed) = (all_shapes()[i], i as u64 + 1);
    let ds = dataset(100 + seed, 12_000);
    let baseline = plain(&ds, &shape, &config(seed, 1));
    for t in THREADS {
        let (exec, mut obs, sink) = traced(t);
        let traced_result =
            run(&ds, &shape, &Scope::all(), None, &config(seed, t), &mut obs, &exec).unwrap();
        assert_eq!(traced_result, baseline, "tracing changed {shape:?} (threads = {t})");
        assert_complete_trace(&sink, t);
    }
}

shape_tests!(assert_trace_invariant {
    entropy_top_k_is_trace_invariant(0);
    entropy_filter_is_trace_invariant(1);
    mi_top_k_is_trace_invariant(2);
    mi_filter_is_trace_invariant(3);
    entropy_profile_is_trace_invariant(4);
    mi_profile_is_trace_invariant(5);
});

/// With `threads = 8` the traced executor's pooled fan-outs must leave
/// `exec_dispatch` spans behind — proof the trace binding reaches the
/// pool — while `threads = 1` leaves none (inline fan-outs are untimed).
#[test]
fn exec_dispatch_spans_follow_parallelism() {
    let ds = dataset(42, 12_000);
    for (t, expect_dispatches) in [(1usize, false), (8, true)] {
        let (exec, mut obs, sink) = traced(t);
        run(&ds, &all_shapes()[0], &Scope::all(), None, &config(42, t), &mut obs, &exec).unwrap();
        let (spans, _) = sink.drain();
        let n = spans.iter().filter(|s| s.name == "exec_dispatch").count();
        assert_eq!(n > 0, expect_dispatches, "threads = {t}, dispatch spans = {n}");
    }
}
