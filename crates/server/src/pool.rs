//! Fixed-size worker pool over a bounded job queue.
//!
//! This is the server's admission-control point: the accept loop is the
//! only producer, `try_execute` refuses work once the queue holds
//! `queue_capacity` jobs, and the caller turns that refusal into a `503 +
//! Retry-After` instead of letting latency grow without bound. Shutdown
//! is graceful by construction — workers drain every queued job before
//! exiting, so accepted queries always get an answer.
//!
//! Admission is **batched**: a woken worker pops up to
//! [`ADMIT_BATCH`] queued jobs in one lock acquisition and runs them
//! back-to-back, so a burst of cheap requests (`/healthz`, tiny
//! datasets) costs one lock round-trip per batch rather than per job.
//! Rejection semantics are unchanged — capacity still bounds *queued*
//! jobs, and a batch already claimed by a worker is no longer queued.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Maximum jobs a worker claims per condvar wakeup. Small enough that a
/// batch can't starve sibling workers of a deep queue (each wakeup
/// leaves the remainder claimable), large enough to amortize the lock
/// for bursts of cheap jobs.
pub const ADMIT_BATCH: usize = 4;

/// `try_execute` refused a job because the queue was at capacity (or the
/// pool is shutting down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected;

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
    shutting_down: AtomicBool,
}

/// A fixed set of worker threads consuming a bounded queue.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

/// A cheap read-only view of the queue for metrics/gauges.
#[derive(Clone)]
pub struct QueueWatcher {
    inner: Arc<PoolInner>,
}

impl QueueWatcher {
    /// Jobs currently waiting (not counting jobs being run).
    pub fn depth(&self) -> usize {
        self.inner.queue.lock().expect("pool lock poisoned").len()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers sharing a queue of at most
    /// `queue_capacity` waiting jobs. Both are clamped to at least 1.
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: queue_capacity.max(1),
            shutting_down: AtomicBool::new(false),
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("swope-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning worker thread")
            })
            .collect();
        Self { inner, handles }
    }

    /// Enqueues `job` unless the queue is full or the pool is stopping.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), Rejected> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(Rejected);
        }
        let mut queue = self.inner.queue.lock().expect("pool lock poisoned");
        if queue.len() >= self.inner.capacity {
            return Err(Rejected);
        }
        queue.push_back(Box::new(job));
        drop(queue);
        self.inner.available.notify_one();
        Ok(())
    }

    /// A watcher for the queue depth gauge.
    pub fn watcher(&self) -> QueueWatcher {
        QueueWatcher { inner: Arc::clone(&self.inner) }
    }

    /// Stops accepting work, lets the workers drain every queued job, and
    /// joins them.
    pub fn shutdown(mut self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        self.inner.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    let mut batch: Vec<Job> = Vec::with_capacity(ADMIT_BATCH);
    loop {
        {
            let mut queue = inner.queue.lock().expect("pool lock poisoned");
            loop {
                if !queue.is_empty() {
                    let claim = ADMIT_BATCH.min(queue.len());
                    batch.extend(queue.drain(..claim));
                    break;
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.available.wait(queue).expect("pool lock poisoned");
            }
        }
        // If the batch left jobs behind, hand them to a sibling before
        // running (a single notify_one at push time only woke us).
        inner.available.notify_one();
        for job in batch.drain(..) {
            job();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            loop {
                let c = Arc::clone(&counter);
                let submitted = pool.try_execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                if submitted.is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn rejects_when_queue_full_and_drains_on_shutdown() {
        let pool = WorkerPool::new(1, 2);
        // Block the single worker until we say otherwise.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            let _ = gate_rx.recv();
        })
        .unwrap();
        // Give the worker a moment to pick the blocker up, then fill the
        // queue to capacity.
        std::thread::sleep(Duration::from_millis(20));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let d = Arc::clone(&done);
            pool.try_execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        assert_eq!(pool.watcher().depth(), 2);
        // Capacity reached: further work is refused, not queued.
        assert_eq!(pool.try_execute(|| {}), Err(Rejected));
        // Release the worker; shutdown must still run the queued jobs.
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn batched_wakeup_runs_every_queued_job_in_order() {
        // Queue a burst deeper than ADMIT_BATCH behind a blocked worker;
        // the batched drain must run all of them, FIFO, none dropped.
        let pool = WorkerPool::new(1, 16);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            let _ = gate_rx.recv();
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let o = Arc::clone(&order);
            pool.try_execute(move || o.lock().unwrap().push(i)).unwrap();
        }
        assert_eq!(pool.watcher().depth(), 10);
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_after_shutdown_began() {
        let pool = WorkerPool::new(1, 4);
        let watcher = pool.watcher();
        pool.shutdown();
        assert_eq!(watcher.depth(), 0);
    }
}
