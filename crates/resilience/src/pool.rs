//! A supervised worker pool: N long-lived threads pulling jobs from a
//! caller-supplied source, each job executed under the [`Supervisor`]'s
//! `catch_unwind` + bounded-retry discipline.
//!
//! The pool is deliberately queue-agnostic — `next` is any blocking
//! closure yielding the next job (or `None` to retire the worker), so
//! the same pool drives the serve daemon's priority queue, a test's
//! `Vec` drain, or a channel. Crash isolation is the point: a job that
//! panics is retried per the supervisor's policy and, if it keeps
//! failing, surfaces as a [`TaskFailure`] through the `fail` callback
//! while the worker thread itself survives to take the next job. A
//! worker thread can therefore only be lost to a panic *inside* the
//! callbacks, never to one inside a job.

use crate::supervisor::{Supervisor, TaskFailure};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Live utilization counters maintained by the pool's own workers, for
/// the serve metrics plane (`air_serve_workers_busy` and friends) and
/// any other observer that wants to sample a running pool. All fields
/// are monotone except `busy`, which is the number of workers currently
/// inside a job (supervised run + failure callback included).
#[derive(Debug, Default)]
pub struct PoolStats {
    busy: AtomicUsize,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl PoolStats {
    /// Workers currently executing a job.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Jobs that finished cleanly (possibly after supervised retries).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Jobs whose retries were exhausted and went to the `fail` callback.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Handle to a running pool; dropping it detaches the workers, `join`
/// waits for them to retire (i.e. for `next` to return `None` once per
/// worker).
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl WorkerPool {
    /// Starts `workers` threads (at least one). Each loops: `next()` →
    /// run the job under `supervisor` at the site named by `site(&job)`
    /// → on exhausted retries, hand the job and its [`TaskFailure`] to
    /// `fail`. `next` returning `None` retires that worker.
    pub fn start<J, N, S, R, F>(
        workers: usize,
        supervisor: Supervisor,
        next: N,
        site: S,
        run: R,
        fail: F,
    ) -> WorkerPool
    where
        J: Send + 'static,
        N: Fn() -> Option<J> + Send + Sync + 'static,
        S: Fn(&J) -> String + Send + Sync + 'static,
        R: Fn(&J) + Send + Sync + 'static,
        F: Fn(J, TaskFailure) + Send + Sync + 'static,
    {
        let next = Arc::new(next);
        let site = Arc::new(site);
        let run = Arc::new(run);
        let fail = Arc::new(fail);
        let stats = Arc::new(PoolStats::default());
        let handles = (0..workers.max(1))
            .map(|i| {
                let next = Arc::clone(&next);
                let site = Arc::clone(&site);
                let run = Arc::clone(&run);
                let fail = Arc::clone(&fail);
                let stats = Arc::clone(&stats);
                let sup = supervisor.clone();
                std::thread::Builder::new()
                    .name(format!("air-pool-{i}"))
                    .spawn(move || {
                        while let Some(job) = next() {
                            let at = site(&job);
                            stats.busy.fetch_add(1, Ordering::Relaxed);
                            match sup.run(&at, || run(&job)) {
                                Ok(()) => {
                                    stats.completed.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(failure) => {
                                    stats.failed.fetch_add(1, Ordering::Relaxed);
                                    fail(job, failure);
                                }
                            }
                            stats.busy.fetch_sub(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { handles, stats }
    }

    /// Number of worker threads started.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Shared handle to the pool's live utilization counters; stays
    /// valid (and frozen at final values) after the pool is joined.
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// Blocks until every worker has retired (each saw `next() == None`).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn drain_pool(jobs: Vec<u64>) -> Arc<Mutex<Vec<u64>>> {
        Arc::new(Mutex::new(jobs))
    }

    #[test]
    fn pool_drains_all_jobs_across_workers() {
        let queue = drain_pool((0..100).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let q = Arc::clone(&queue);
        let d = Arc::new(Mutex::new(Vec::new()));
        let d2 = Arc::clone(&d);
        let done2 = Arc::clone(&done);
        let pool = WorkerPool::start(
            4,
            Supervisor::default(),
            move || q.lock().unwrap().pop(),
            |j: &u64| format!("pool.job.{j}"),
            move |j| {
                d2.lock().unwrap().push(*j);
                done2.fetch_add(1, Ordering::Relaxed);
            },
            |_, failure| panic!("unexpected failure: {failure}"),
        );
        assert_eq!(pool.workers(), 4);
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 100);
        let mut seen = d.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_is_retried_then_reported_and_worker_survives() {
        let queue = drain_pool(vec![7, 13]);
        let q = Arc::clone(&queue);
        let failures = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&failures);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&ran);
        let pool = WorkerPool::start(
            1,
            Supervisor::new(2),
            move || q.lock().unwrap().pop(),
            |j: &u64| format!("job.{j}"),
            move |j| {
                if *j == 13 {
                    panic!("poisoned job");
                }
                r2.lock().unwrap().push(*j);
            },
            move |j, failure| f2.lock().unwrap().push((j, failure)),
        );
        pool.join();
        // Job 13 failed after 2 attempts; job 7 still ran on the same worker.
        assert_eq!(*ran.lock().unwrap(), vec![7]);
        let failures = failures.lock().unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 13);
        assert_eq!(failures[0].1.attempts, 2);
        assert!(failures[0].1.message.contains("poisoned job"));
    }

    #[test]
    fn stats_track_completions_failures_and_quiescence() {
        let queue = drain_pool(vec![1, 2, 3, 13]);
        let q = Arc::clone(&queue);
        let pool = WorkerPool::start(
            2,
            Supervisor::new(1),
            move || q.lock().unwrap().pop(),
            |j: &u64| format!("job.{j}"),
            |j| {
                if *j == 13 {
                    panic!("bad job");
                }
            },
            |_, _| {},
        );
        let stats = pool.stats();
        pool.join();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.failed(), 1);
        assert_eq!(stats.busy(), 0, "all workers idle after join");
    }

    #[test]
    fn zero_workers_still_starts_one() {
        let queue = drain_pool(vec![1]);
        let q = Arc::clone(&queue);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::start(
            0,
            Supervisor::default(),
            move || q.lock().unwrap().pop(),
            |_: &u64| "job".to_string(),
            move |_| {
                d.fetch_add(1, Ordering::Relaxed);
            },
            |_, _| {},
        );
        assert_eq!(pool.workers(), 1);
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
