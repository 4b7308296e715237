//! Admission control: a bounded worker pool with load shedding.
//!
//! Requests enter a bounded FIFO queue drained by a fixed set of worker
//! threads. When the queue is full the submission is *shed* immediately
//! (the client gets `overloaded` instead of unbounded latency), and a
//! task whose deadline passed while it waited is dropped at dequeue
//! without running — its reply half stays silent, and the serving loop
//! answers the request `deadline_exceeded`. A task that
//! panics costs its own request only: the worker catches the unwind,
//! counts `serve.worker_panic` and takes the next task.

use sqo_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued unit of work.
pub struct Task {
    /// Tasks not started by this instant are dropped unexecuted.
    pub deadline: Instant,
    /// When the task entered the queue; the elapsed time until a worker
    /// dequeues it is the admission wait, passed to `run`, added to the
    /// `serve.wait_ns` counter, and recorded into the `serve.wait`
    /// histogram — so shed decisions are explainable from metrics.
    pub submitted: Instant,
    /// The work itself (owns its reply half); receives the admission
    /// wait it experienced.
    pub run: Box<dyn FnOnce(Duration) + Send + 'static>,
}

struct PoolState {
    queue: VecDeque<Task>,
    stopping: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    wake: Condvar,
    capacity: usize,
    /// Highest queue depth observed at any submit (monotonic).
    depth_hwm: AtomicU64,
}

/// A fixed-size worker pool over a bounded queue.
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads draining a queue of at most `capacity`
    /// pending tasks.
    pub fn new(workers: usize, capacity: usize) -> Pool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stopping: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            depth_hwm: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Pool { inner, workers }
    }

    /// Enqueues a task, or sheds it (returning `false` and bumping the
    /// shed counter) when the queue is full or the pool is stopping.
    pub fn submit(&self, task: Task) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.stopping || state.queue.len() >= self.inner.capacity {
            obs::add(obs::Counter::ServeShed, 1);
            return false;
        }
        state.queue.push_back(task);
        let depth = state.queue.len() as u64;
        drop(state);
        self.inner.depth_hwm.fetch_max(depth, Ordering::Relaxed);
        self.inner.wake.notify_one();
        true
    }

    /// Tasks currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Highest queue depth ever observed (monotonic high-watermark).
    pub fn queue_depth_hwm(&self) -> u64 {
        self.inner.depth_hwm.load(Ordering::Relaxed)
    }

    /// Stops accepting work, drains nothing further, and joins the
    /// workers. Pending tasks are dropped unrun.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.stopping = true;
            state.queue.clear();
        }
        self.inner.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let task = {
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = state.queue.pop_front() {
                    break t;
                }
                if state.stopping {
                    // Flush before the closure returns: thread join does
                    // not wait for TLS destructors.
                    obs::flush_local();
                    return;
                }
                state = inner.wake.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let wait = task.submitted.elapsed();
        let wait_ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        obs::add(obs::Counter::ServeWaitNs, wait_ns);
        obs::record_hist("serve.wait", wait_ns);
        if Instant::now() > task.deadline {
            // Expired while queued: drop without running. The serving
            // loop's deadline sweep answers deadline_exceeded.
            drop(task);
            continue;
        }
        // A panic in optimize/execute must not shrink the pool for the
        // life of the process. The task owns everything it touches except
        // state behind poison-tolerant locks, so resuming is sound; its
        // reply half answers `internal_error` as the unwind drops it.
        let run = std::panic::AssertUnwindSafe(move || (task.run)(wait));
        if std::panic::catch_unwind(run).is_err() {
            obs::bump(obs::Counter::ServeWorkerPanic);
        }
        // Make this worker's counters visible to concurrent metrics
        // readers (locals only merge globally on flush).
        obs::flush_local();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    fn task(run: impl FnOnce(Duration) + Send + 'static) -> Task {
        Task {
            deadline: far(),
            submitted: Instant::now(),
            run: Box::new(run),
        }
    }

    #[test]
    fn executes_submitted_tasks() {
        let pool = Pool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            assert!(pool.submit(task(move |_| tx.send(i).unwrap())));
        }
        let mut got: Vec<i32> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sheds_when_queue_full() {
        // One worker, blocked; capacity 1 → the second queued task is shed.
        let pool = Pool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        assert!(pool.submit(task(move |_| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })));
        started_rx.recv().unwrap(); // worker is now busy
        assert!(pool.submit(task(|_| {}))); // fills the queue
        assert!(!pool.submit(task(|_| {}))); // shed
        release_tx.send(()).unwrap();
    }

    #[test]
    fn saturated_queue_reports_nonzero_wait_and_high_watermark() {
        // One blocked worker saturates a capacity-1 queue: the queued
        // task's admission wait spans the blocker's hold time, the third
        // submit sheds, and the high-watermark pins the saturation.
        let pool = Pool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        assert!(pool.submit(task(move |_| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })));
        started_rx.recv().unwrap();
        let (wait_tx, wait_rx) = mpsc::channel::<Duration>();
        assert!(pool.submit(task(move |wait| wait_tx.send(wait).unwrap())));
        assert!(!pool.submit(task(|_| {}))); // shed while saturated
        assert_eq!(pool.queue_depth_hwm(), 1);
        std::thread::sleep(Duration::from_millis(20));
        release_tx.send(()).unwrap();
        let wait = wait_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(
            wait >= Duration::from_millis(20),
            "queued task must report the admission wait it experienced, got {wait:?}"
        );
    }

    #[test]
    fn a_panicking_task_does_not_cost_the_pool_its_worker() {
        let pool = Pool::new(1, 4);
        assert!(pool.submit(task(|_| panic!("injected task panic"))));
        // The only worker must still be there to run this.
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(task(move |_| tx.send(()).unwrap())));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the worker survived the panic");
    }

    #[test]
    fn expired_tasks_are_dropped_unexecuted() {
        let pool = Pool::new(1, 4);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        assert!(pool.submit(task(move |_| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })));
        started_rx.recv().unwrap();
        // Queued behind the blocker with an already-expired deadline; its
        // reply channel must close without the closure ever running.
        let (tx, rx) = mpsc::channel::<()>();
        assert!(pool.submit(Task {
            deadline: Instant::now() - Duration::from_millis(1),
            submitted: Instant::now(),
            run: Box::new(move |_| tx.send(()).unwrap()),
        }));
        release_tx.send(()).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
    }
}
