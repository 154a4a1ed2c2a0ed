//! Persistent execution layer for the adaptive loops.
//!
//! Every SWOPE iteration fans the same shape of work out over the live
//! candidate states: ingest the ΔM newly sampled rows, then recompute
//! bounds. A fresh `thread::scope` spawn/join for every one of those
//! fan-outs costs tens of microseconds per iteration, which dwarfs the
//! actual counting work once the candidate set shrinks. This module
//! instead provides:
//!
//! * [`ExecPool`] — a persistent pool of parked worker threads created
//!   once per query (or once per process for `swope-server`, shared via
//!   `Arc`). Dispatching a fan-out is a mutex/condvar wake, not a spawn.
//! * dynamic chunking — workers claim index ranges from an atomic cursor
//!   instead of receiving one static shard each, so unevenly-retiring
//!   candidates no longer straggle a single shard.
//! * [`Executor`] — the handle the loops program against. It is either
//!   sequential (no pool, zero overhead) or pooled, and it is `Clone`
//!   (clones share the same pool).
//!
//! # Determinism
//!
//! Parallel fan-outs stay bitwise identical to the sequential path for
//! any worker count because the unit of work is one *whole item*: each
//! item is claimed by exactly one worker and processed exactly once, and
//! every per-item closure touches only that item's state, in delta order.
//! Which worker runs an item — and in what interleaving — cannot affect
//! the item's final bits. Cross-item reductions (argmax, pruning, output
//! ordering) remain serial in the loops.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Each worker claims roughly this many chunks per dispatch, so faster
/// workers can absorb slack from slower ones without the cursor becoming
/// a contention point. 4 keeps chunks ≥ a quarter-shard: large enough
/// that `fetch_add` traffic is negligible next to the counting work.
const CHUNKS_PER_WORKER: usize = 4;

/// Type-erased pointer to the current dispatch's task closure.
///
/// The pointee only lives for the duration of [`ExecPool::run`], which
/// blocks until every worker has finished executing it, so handing the
/// (lifetime-erased) pointer to the workers is sound.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared execution is the point) and
// `run` keeps it alive until all workers are done with it.
unsafe impl Send for JobPtr {}

/// Raw base pointer of a slice being fanned out across workers.
///
/// Shared by reference with every worker; soundness comes from the
/// dispatch protocol, not the type: the atomic cursor hands each index
/// to exactly one worker, so the derived `&mut` references are disjoint.
struct SendPtr<T>(*mut T);

// SAFETY: see the struct docs — disjoint index claims make concurrent
// `&mut` derivation from the shared base pointer sound.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` only shares the base address; each `T` is
// reached through one claimed index by one worker, so no `T` is ever
// aliased across threads, and `T: Send` lets it be mutated off-thread.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Mutex-guarded pool state; the condvar protocol keys off `epoch`.
struct PoolState {
    /// The task of the in-flight dispatch, if any.
    job: Option<JobPtr>,
    /// Bumped once per dispatch; workers run the job when it changes.
    epoch: u64,
    /// Workers still executing the current job.
    active: usize,
    /// Set when a worker's task panicked (the leader re-raises).
    panicked: bool,
    /// Set by `Drop`; workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that `epoch` moved (or `shutdown` was set).
    work_ready: Condvar,
    /// Signals the leader that `active` reached zero.
    work_done: Condvar,
    dispatches: AtomicU64,
    chunks: AtomicU64,
    items: AtomicU64,
}

/// A persistent pool of parked worker threads for per-item fan-outs.
///
/// Created once per query (see [`Executor::new`]) or once per process
/// (`swope-server` wraps one in an `Arc` and shares it across requests).
/// `parallelism` counts the dispatching thread: a pool of parallelism
/// `t` spawns `t − 1` background workers and the leader participates in
/// every dispatch. Dropping the pool parks no one forever — workers are
/// woken, drained, and joined.
pub struct ExecPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes dispatches: the pool runs one fan-out at a time, so
    /// concurrent server queries sharing a pool queue behind this lock
    /// rather than corrupting the epoch protocol.
    dispatch: Mutex<()>,
    parallelism: usize,
}

/// A point-in-time snapshot of a pool's lifetime counters, exported by
/// `swope-server` under `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Total threads participating in dispatches (workers + leader).
    pub workers: usize,
    /// Fan-outs dispatched (one per parallel `for_each` call).
    pub dispatches: u64,
    /// Chunks claimed from dispatch cursors (≥ dispatches).
    pub chunks: u64,
    /// Items processed across all dispatches.
    pub items: u64,
}

impl ExecPool {
    /// Spawns a pool of total parallelism `parallelism` (clamped to ≥ 2;
    /// use [`Executor::sequential`] when you don't want threads at all).
    pub fn new(parallelism: usize) -> Self {
        let parallelism = parallelism.max(2);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            dispatches: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            items: AtomicU64::new(0),
        });
        let handles = (0..parallelism - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("swope-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning exec worker thread")
            })
            .collect();
        Self { shared, handles, dispatch: Mutex::new(()), parallelism }
    }

    /// Total threads participating in dispatches (workers + leader).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Snapshot of the pool's lifetime dispatch counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            workers: self.parallelism,
            dispatches: self.shared.dispatches.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            items: self.shared.items.load(Ordering::Relaxed),
        }
    }

    /// Runs `per_index` for every index in `0..len`, fanned out across
    /// the pool with dynamic chunking. Blocks until all indices are done.
    fn dispatch<F>(&self, len: usize, per_index: F)
    where
        F: Fn(usize) + Sync,
    {
        if len == 0 {
            return;
        }
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared.items.fetch_add(len as u64, Ordering::Relaxed);
        let chunk = (len / (self.parallelism * CHUNKS_PER_WORKER)).max(1);
        let cursor = AtomicUsize::new(0);
        let task = || loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            self.shared.chunks.fetch_add(1, Ordering::Relaxed);
            let end = (start + chunk).min(len);
            for i in start..end {
                per_index(i);
            }
        };
        self.run(&task);
    }

    /// Wakes the workers on `task`, participates as the leader, and
    /// blocks until every worker has finished the dispatch.
    fn run(&self, task: &(dyn Fn() + Sync)) {
        // A panicked dispatch unwinds through this frame and poisons the
        // lock; the epoch protocol stays consistent (the panicked run
        // still waited for its workers), so recover rather than wedge.
        let _serialize = self.dispatch.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // SAFETY: lifetime erasure only — we block below until `active`
        // returns to zero, so no worker touches `task` after this frame.
        let job = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                task,
            )
        });
        {
            let mut st = self.shared.state.lock().expect("exec state lock poisoned");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.handles.len();
            st.panicked = false;
        }
        self.shared.work_ready.notify_all();
        // The leader runs the same claim loop; a panic here must still
        // wait for the workers (they hold references into the frame).
        let leader = catch_unwind(AssertUnwindSafe(task));
        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("exec state lock poisoned");
            while st.active > 0 {
                st = self.shared.work_done.wait(st).expect("exec state lock poisoned");
            }
            st.job = None;
            st.panicked
        };
        if let Err(payload) = leader {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "exec worker task panicked");
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("exec state lock poisoned");
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("exec state lock poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("dispatch epoch advanced without a job");
                }
                st = shared.work_ready.wait(st).expect("exec state lock poisoned");
            }
        };
        // SAFETY: `run` keeps the pointee alive until `active` drops to
        // zero, which only happens after this call returns.
        let task = unsafe { &*job.0 };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut st = shared.state.lock().expect("exec state lock poisoned");
        if outcome.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// The execution handle the adaptive loops program against.
///
/// Either sequential (plain loop, no threads, no overhead) or backed by
/// a shared [`ExecPool`]. Cloning is cheap and clones share the pool, so
/// `swope-server` hands one process-wide executor to every request.
///
/// An executor may additionally carry a trace binding
/// ([`with_trace`](Self::with_trace)): each pooled dispatch then records
/// an `exec_dispatch` span into the bound sink. Sequential fan-outs and
/// unbound executors never touch a clock.
#[derive(Clone)]
pub struct Executor {
    pool: Option<Arc<ExecPool>>,
    trace: Option<ExecTrace>,
}

#[derive(Clone)]
struct ExecTrace {
    sink: Arc<swope_obs::trace::SpanSink>,
    parent: u32,
}

impl ExecTrace {
    fn dispatch_span(&self, start_ns: u64, items: usize) {
        self.sink.record(
            "exec_dispatch",
            Some(self.parent),
            start_ns,
            self.sink.now_ns(),
            0,
            items as u64,
        );
    }
}

impl Executor {
    /// An executor that runs everything inline on the calling thread.
    pub fn sequential() -> Self {
        Self { pool: None, trace: None }
    }

    /// An executor of total parallelism `threads`: sequential when
    /// `threads <= 1`, otherwise backed by a fresh [`ExecPool`].
    pub fn new(threads: usize) -> Self {
        if threads <= 1 {
            Self::sequential()
        } else {
            Self { pool: Some(Arc::new(ExecPool::new(threads))), trace: None }
        }
    }

    /// An executor sharing an existing pool (the server injection path).
    pub fn pooled(pool: Arc<ExecPool>) -> Self {
        Self { pool: Some(pool), trace: None }
    }

    /// Binds a trace sink: every subsequent pooled dispatch through this
    /// executor (or its clones) records an `exec_dispatch` span under
    /// `parent`. Purely observational — scheduling and results are
    /// unchanged, which `core/tests/trace_invariance.rs` enforces.
    pub fn with_trace(mut self, sink: Arc<swope_obs::trace::SpanSink>, parent: u32) -> Self {
        self.trace = Some(ExecTrace { sink, parent });
        self
    }

    /// Total threads a fan-out may use (1 for sequential executors).
    pub fn parallelism(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.parallelism())
    }

    /// Snapshot of the backing pool's counters (zeros when sequential).
    pub fn stats(&self) -> ExecStats {
        self.pool.as_ref().map_or(ExecStats { workers: 1, ..ExecStats::default() }, |p| p.stats())
    }

    /// Applies `f` to every element of `items` exactly once.
    ///
    /// Zero- and one-item calls never touch the pool; larger slices are
    /// fanned out with dynamic chunking. Results are bitwise identical
    /// to the sequential loop for any parallelism (see module docs).
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let len = items.len();
        if len > 1 {
            if let Some(pool) = &self.pool {
                let start_ns = self.trace.as_ref().map(|t| t.sink.now_ns());
                let base = SendPtr(items.as_mut_ptr());
                pool.dispatch(len, |i| {
                    // SAFETY: each index is claimed exactly once, so the
                    // derived `&mut` references are disjoint; `dispatch`
                    // blocks until every claim completes.
                    f(unsafe { &mut *base.get().add(i) });
                });
                if let (Some(t), Some(start)) = (&self.trace, start_ns) {
                    t.dispatch_span(start, len);
                }
                return;
            }
        }
        for item in items.iter_mut() {
            f(item);
        }
    }

    /// Applies `f` to every `(a[i], b[i])` pair exactly once; the slices
    /// must have equal lengths. Pairs are started in index order, or last
    /// to first when `backward` — on one thread that is the order they
    /// run in. Used to pair each candidate's count slot with its
    /// histogram.
    pub fn for_each2<A, B, F>(&self, a: &mut [A], b: &mut [B], backward: bool, f: F)
    where
        A: Send,
        B: Send,
        F: Fn(&mut A, &mut B) + Sync,
    {
        assert_eq!(a.len(), b.len(), "for_each2 slices must have equal lengths");
        let len = a.len();
        if len > 1 {
            if let Some(pool) = &self.pool {
                let start_ns = self.trace.as_ref().map(|t| t.sink.now_ns());
                let pa = SendPtr(a.as_mut_ptr());
                let pb = SendPtr(b.as_mut_ptr());
                pool.dispatch(len, |claim| {
                    let i = if backward { len - 1 - claim } else { claim };
                    // SAFETY: as in `for_each_mut`; the two slices are
                    // distinct borrows, and claims map one to one onto
                    // indices, so pair `i` is touched once.
                    f(unsafe { &mut *pa.get().add(i) }, unsafe { &mut *pb.get().add(i) });
                });
                if let (Some(t), Some(start)) = (&self.trace, start_ns) {
                    t.dispatch_span(start, len);
                }
                return;
            }
        }
        let pairs = a.iter_mut().zip(b.iter_mut());
        match backward {
            false => pairs.for_each(|(x, y)| f(x, y)),
            true => pairs.rev().for_each(|(x, y)| f(x, y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_executor_applies_all() {
        let exec = Executor::sequential();
        let mut items = vec![1u64, 2, 3];
        exec.for_each_mut(&mut items, |x| *x *= 10);
        assert_eq!(items, vec![10, 20, 30]);
        assert_eq!(exec.parallelism(), 1);
        assert_eq!(exec.stats().dispatches, 0);
    }

    #[test]
    fn pooled_executor_applies_all_exactly_once() {
        let exec = Executor::new(4);
        let mut items: Vec<u64> = (0..1000).collect();
        let calls = AtomicUsize::new(0);
        exec.for_each_mut(&mut items, |x| {
            *x += 1;
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn zero_items_do_not_dispatch() {
        let exec = Executor::new(3);
        let mut items: Vec<i32> = vec![];
        exec.for_each_mut(&mut items, |_| panic!("must not be called"));
        assert_eq!(exec.stats().dispatches, 0);
    }

    #[test]
    fn single_item_runs_inline_without_dispatch() {
        let exec = Executor::new(3);
        let mut items = vec![5];
        exec.for_each_mut(&mut items, |x| *x = 7);
        assert_eq!(items, vec![7]);
        assert_eq!(exec.stats().dispatches, 0);
    }

    #[test]
    fn traced_executor_records_dispatch_spans() {
        use swope_obs::trace::{SpanSink, TraceId};
        let sink = SpanSink::new(TraceId(7));
        let root = sink.open_at("request", None, 0);
        let exec = Executor::new(3).with_trace(Arc::clone(&sink), root);
        let mut items: Vec<u64> = (0..100).collect();
        exec.for_each_mut(&mut items, |x| *x += 1);
        let mut single = vec![9u64];
        exec.for_each_mut(&mut single, |x| *x += 1); // inline: no span
        let (spans, _) = sink.drain();
        let dispatches: Vec<_> = spans.iter().filter(|s| s.name == "exec_dispatch").collect();
        assert_eq!(dispatches.len(), 1);
        assert_eq!(dispatches[0].parent, Some(root));
        assert_eq!(dispatches[0].items, 100);
        assert!(dispatches[0].end_ns >= dispatches[0].start_ns);
    }

    #[test]
    fn fewer_items_than_workers_is_fine() {
        let exec = Executor::new(8);
        let mut items = vec![1u32, 2, 3];
        exec.for_each_mut(&mut items, |x| *x += 100);
        assert_eq!(items, vec![101, 102, 103]);
    }

    #[test]
    fn pool_is_reused_across_dispatches() {
        let exec = Executor::new(3);
        let mut items: Vec<u64> = (0..64).collect();
        for _ in 0..100 {
            exec.for_each_mut(&mut items, |x| *x = x.wrapping_mul(3) + 1);
        }
        let mut expected: Vec<u64> = (0..64).collect();
        for _ in 0..100 {
            for x in expected.iter_mut() {
                *x = x.wrapping_mul(3) + 1;
            }
        }
        assert_eq!(items, expected);
        let stats = exec.stats();
        assert_eq!(stats.dispatches, 100);
        assert_eq!(stats.items, 6400);
        assert!(stats.chunks >= stats.dispatches);
    }

    #[test]
    fn results_match_sequential_for_any_parallelism() {
        for threads in [1usize, 2, 3, 7, 16] {
            let exec = Executor::new(threads);
            let mut par: Vec<u64> = (0..97).collect();
            let mut seq: Vec<u64> = (0..97).collect();
            exec.for_each_mut(&mut par, |x| *x = x.wrapping_mul(3) + 1);
            for x in seq.iter_mut() {
                *x = x.wrapping_mul(3) + 1;
            }
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn for_each2_pairs_by_index() {
        for (threads, backward) in [(1usize, false), (1, true), (4, false), (4, true)] {
            let exec = Executor::new(threads);
            let mut a: Vec<u64> = (0..300).collect();
            let mut b: Vec<u64> = (0..300).map(|i| i * 2).collect();
            exec.for_each2(&mut a, &mut b, backward, |x, y| {
                *y += *x;
                *x = 0;
            });
            assert!(a.iter().all(|&x| x == 0));
            for (i, &v) in b.iter().enumerate() {
                assert_eq!(v, i as u64 * 3, "threads = {threads}, backward = {backward}");
            }
        }
    }

    #[test]
    fn for_each2_backward_runs_last_to_first_on_one_thread() {
        let exec = Executor::sequential();
        let seen = Mutex::new(Vec::new());
        let (mut a, mut b) = ([0, 1, 2], [(); 3]);
        exec.for_each2(&mut a, &mut b, true, |x, _| seen.lock().unwrap().push(*x));
        assert_eq!(seen.into_inner().unwrap(), [2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn for_each2_rejects_mismatched_lengths() {
        let exec = Executor::sequential();
        exec.for_each2(&mut [1], &mut [1, 2], false, |_: &mut i32, _: &mut i32| {});
    }

    #[test]
    fn clones_share_the_pool_and_its_stats() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        let mut items: Vec<u64> = (0..32).collect();
        exec.for_each_mut(&mut items, |x| *x += 1);
        clone.for_each_mut(&mut items, |x| *x += 1);
        assert_eq!(exec.stats().dispatches, 2);
        assert_eq!(clone.stats().dispatches, 2);
    }

    #[test]
    fn worker_panics_propagate_to_the_dispatcher() {
        let exec = Executor::new(2);
        let mut items: Vec<u64> = (0..128).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            exec.for_each_mut(&mut items, |x| {
                assert!(*x != 64, "boom");
                *x += 1;
            });
        }));
        assert!(outcome.is_err());
        // The pool survives a panicked dispatch and keeps working.
        let mut more: Vec<u64> = (0..16).collect();
        exec.for_each_mut(&mut more, |x| *x += 1);
        assert_eq!(more, (1..17).collect::<Vec<u64>>());
    }
}
