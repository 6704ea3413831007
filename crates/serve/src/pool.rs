//! The shared campaign worker pool: a fixed set of OS threads serving
//! per-job task queues in round-robin order.
//!
//! Every submitted campaign's shards run here: the served backend hands
//! the shard executor ([`fmossim_par::run_shards`]) a
//! [`SharedPool::job`] view, which submits one task per shard under the
//! job's id. *All* campaigns share this one pool — the server's CPU
//! footprint is `workers` threads no matter how many campaigns are in
//! flight. Fairness is structural:
//! each job owns its own FIFO queue and an idle worker always takes
//! the *next job's* front task, so a 10 000-shard campaign cannot
//! starve a 4-shard one submitted after it; they interleave one task
//! at a time.
//!
//! Coordinator threads (one lightweight thread per job, owned by the
//! server) never run on this pool — only leaf shard tasks do, so a
//! full pool can never deadlock waiting on its own results. A task that
//! panics does not take its worker down: the worker catches it and
//! moves on (the shard executor catches shard panics itself and
//! re-raises them on the job's coordinator).

use fmossim_par::{ShardPool, ShardTask};
use fmossim_telemetry::{Gauge, Registry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// One `(job id, FIFO of tasks)` entry per job with queued work,
    /// in service order: workers pop the front entry, take one task,
    /// and re-append the entry if tasks remain — round-robin.
    queues: VecDeque<(u64, VecDeque<Task>)>,
    /// Total queued (not yet started) tasks across all jobs.
    queued: usize,
    /// Cleared on shutdown; workers exit once the queues drain.
    open: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    ready: Condvar,
    workers: usize,
    depth: Gauge,
}

/// The shared, fairly-scheduled worker pool (see the module docs).
///
/// ```
/// use fmossim_serve::SharedPool;
/// use fmossim_telemetry::Registry;
/// use std::sync::mpsc;
///
/// let pool = SharedPool::new(2, &Registry::new());
/// assert_eq!(pool.workers(), 2);
/// let (tx, rx) = mpsc::channel();
/// for i in 0..8u32 {
///     let tx = tx.clone();
///     pool.submit(u64::from(i % 2), move || tx.send(i).unwrap());
/// }
/// drop(tx);
/// let mut got: Vec<u32> = rx.iter().collect();
/// got.sort_unstable();
/// assert_eq!(got, (0..8).collect::<Vec<_>>());
/// ```
pub struct SharedPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl SharedPool {
    /// Spawns a pool of `workers` threads (at least one). The
    /// `serve.pool.depth` gauge in `registry` tracks the queued-task
    /// count; pass [`Registry::null`] to skip instrumentation.
    #[must_use]
    pub fn new(workers: usize, registry: &Registry) -> SharedPool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                queues: VecDeque::new(),
                queued: 0,
                open: true,
            }),
            ready: Condvar::new(),
            workers,
            depth: registry.gauge("serve.pool.depth"),
        });
        let handles = (0..workers)
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        SharedPool {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The pool's thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Tasks queued and not yet started (running tasks excluded).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.inner.state.lock().expect("pool state poisoned").queued
    }

    /// Enqueues one task under `job`'s queue. Tasks of the same job
    /// run in submission order relative to each other (when served by
    /// one worker at a time); tasks of different jobs interleave.
    pub fn submit(&self, job: u64, task: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        assert!(state.open, "submit on a shut-down pool");
        match state.queues.iter_mut().find(|(id, _)| *id == job) {
            Some((_, queue)) => queue.push_back(Box::new(task)),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(Box::new(task) as Task);
                state.queues.push_back((job, queue));
            }
        }
        state.queued += 1;
        self.inner.depth.set(state.queued as f64);
        drop(state);
        self.inner.ready.notify_one();
    }

    /// `job`'s view of the pool for the shard executor: every task runs
    /// under `job`'s queue, taking turns with other jobs' tasks.
    #[must_use]
    pub fn job(&self, job: u64) -> JobQueue<'_> {
        JobQueue { pool: self, job }
    }
}

/// One job's tasks on a [`SharedPool`] (see [`SharedPool::job`]). The
/// pool outlives any one call, so it accepts only `'static` tasks.
pub struct JobQueue<'p> {
    pool: &'p SharedPool,
    job: u64,
}

impl ShardPool<'static> for JobQueue<'_> {
    fn run<R: Send + 'static>(&self, tasks: Vec<ShardTask<'static, R>>, done: &mut dyn FnMut(R)) {
        let (tx, rx) = mpsc::channel();
        for task in tasks {
            let tx = tx.clone();
            self.pool.submit(self.job, move || {
                // The receiver outlives every task; a failed send can
                // only mean the caller itself is unwinding.
                let _ = tx.send(task());
            });
        }
        drop(tx);
        for result in rx {
            done(result);
        }
    }
}

impl Drop for SharedPool {
    /// Drains remaining queued tasks, then joins the workers.
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("pool state poisoned");
            state.open = false;
        }
        self.inner.ready.notify_all();
        for handle in self.handles.lock().expect("handles poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some((job, mut queue)) = state.queues.pop_front() {
                    let task = queue.pop_front().expect("queued job has a task");
                    if !queue.is_empty() {
                        state.queues.push_back((job, queue));
                    }
                    state.queued -= 1;
                    inner.depth.set(state.queued as f64);
                    break task;
                }
                if !state.open {
                    return;
                }
                state = inner.ready.wait(state).expect("pool state poisoned");
            }
        };
        // Keep the worker alive whatever the task does.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_task_across_workers() {
        let pool = SharedPool::new(4, &Registry::null());
        let (tx, rx) = mpsc::channel();
        for i in 0..64u32 {
            let tx = tx.clone();
            pool.submit(u64::from(i % 5), move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_interleaves_jobs() {
        // One worker, gated so both jobs' tasks queue up before any
        // run: service order must alternate A, B, A, B…, not drain A
        // first even though all of A was submitted first.
        let pool = SharedPool::new(1, &Registry::null());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(99, move || {
            gate_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            let tx = tx.clone();
            pool.submit(0, move || tx.send(format!("a{i}")).unwrap());
        }
        for i in 0..3 {
            let tx = tx.clone();
            pool.submit(1, move || tx.send(format!("b{i}")).unwrap());
        }
        drop(tx);
        gate_tx.send(()).unwrap();
        let order: Vec<String> = rx.iter().collect();
        assert_eq!(order, ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn depth_gauge_tracks_the_queue() {
        let registry = Registry::new();
        let pool = SharedPool::new(1, &registry);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(0, move || {
            gate_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        });
        // Wait until the worker has *started* the gate task (depth 0).
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit(0, || {});
        pool.submit(1, || {});
        assert_eq!(pool.queued(), 2);
        assert_eq!(registry.gauge("serve.pool.depth").get(), 2.0);
        gate_tx.send(()).unwrap();
        drop(pool); // drains and joins
        assert_eq!(registry.gauge("serve.pool.depth").get(), 0.0);
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let pool = SharedPool::new(2, &Registry::null());
        let (tx, rx) = mpsc::channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.submit(0, move || tx.send(i).unwrap());
        }
        drop(tx);
        drop(pool);
        assert_eq!(rx.iter().count(), 16, "nothing lost at shutdown");
    }
}
