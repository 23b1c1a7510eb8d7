//! Deterministic work-stealing parallelism over slices.
//!
//! [`par_map`] fans a pure function out over a slice with `jobs` workers
//! pulling indices from a shared atomic counter (the simplest form of work
//! stealing: idle workers steal the next unclaimed item). Results are
//! written into per-index slots and returned **in input order**, so the
//! output is bitwise identical to the sequential
//! `items.iter().map(f).collect()` — only wall-clock time changes. The
//! corpus sweep of the CLI and the block fan-out of the CEGAR driver are
//! built on this.
//!
//! The calling thread is always one of the workers. The other `jobs − 1`
//! are helpers from a process-wide pool of parked threads, started on
//! first use and kept for later calls, so a fan-out costs a wake-up rather
//! than a thread spawn. A helper may join a call only while it is open;
//! the caller closes the call when its own loop runs out of items and then
//! waits only for the helpers that joined. A call never waits for a helper
//! busy elsewhere, so nested and concurrent calls cannot deadlock: at
//! worst the caller runs every item itself. The pool grows to the largest
//! helper count any one call asked for. A panic in a helper is caught and
//! re-raised on the caller with its own payload.
//!
//! [`par_map_governed`] additionally consults a shared [`Governor`]
//! before starting each item: once any worker observes cancellation
//! (typically raised by budget exhaustion inside another item), the
//! remaining unclaimed items are *skipped* and reported as `None` — the
//! substrate of the fail-soft corpus sweep.
//!
//! With `jobs <= 1` (or a single item) the map runs inline on the calling
//! thread — no helper is woken, and a convenient way to force the
//! sequential reference path in differential tests.

use crate::governor::Governor;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The number of hardware threads available, or `1` if unknown.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` with up to `jobs` worker threads (the caller and
/// `jobs − 1` pool helpers), returning the results in input order.
///
/// `f` must be pure for the parallel and sequential paths to agree. A
/// panic in any worker is re-raised on the caller, with its own payload,
/// once every helper has left the call.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(jobs, items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives each item's index.
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // An ungoverned map never skips, so every slot is filled: the
    // flattening below drops nothing (a worker's panic is re-raised on
    // the caller before we ever get here).
    par_map_governed(jobs, items, &Governor::unlimited(), f)
        .into_iter()
        .flatten()
        .collect()
}

/// Like [`par_map_indexed`], but every worker consults `governor` before
/// claiming its next item: once the governor is cancelled, unclaimed
/// items are skipped and returned as `None` (input order is preserved
/// for the items that did run).
///
/// The check is *per item*, not per loop iteration — `f` itself should
/// thread the same governor into the engines it calls so long-running
/// items also stop promptly.
pub fn par_map_governed<T, R, F>(
    jobs: usize,
    items: &[T],
    governor: &Governor,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    POOL.map(jobs, items, governor, f)
}

/// The claim loop of one call, shared by its caller and the helpers that
/// join it.
type Job = &'static (dyn Fn() + Sync);

/// The process-wide helper pool behind every `par_map*` call.
static POOL: Pool = Pool::new();

/// Parked helper threads and the calls open to them.
struct Pool {
    state: Mutex<Parked>,
    /// Signalled once per seat when a call opens.
    opened: Condvar,
}

struct Parked {
    /// Helper threads started so far; the pool never shrinks.
    helpers: usize,
    /// Open calls with seats left, newest last.
    offers: Vec<Offer>,
}

/// An open call, as the helpers see it.
struct Offer {
    job: Job,
    /// Helpers that may still join.
    seats: usize,
    call: Arc<Call>,
}

/// What a caller waits on when it closes its call.
#[derive(Default)]
struct Call {
    joined: Mutex<Joined>,
    /// Signalled when the last active helper leaves.
    left: Condvar,
}

#[derive(Default)]
struct Joined {
    /// Helpers running the job right now.
    active: usize,
    /// The first panic a helper caught in the job.
    panic: Option<Box<dyn Any + Send>>,
}

/// Locks `m`. No code panics while holding one of the pool's locks, so a
/// poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    const fn new() -> Self {
        Self {
            state: Mutex::new(Parked {
                helpers: 0,
                offers: Vec::new(),
            }),
            opened: Condvar::new(),
        }
    }

    /// The body of [`par_map_governed`] on this pool.
    fn map<T, R, F>(
        &'static self,
        jobs: usize,
        items: &[T],
        governor: &Governor,
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let jobs = jobs.max(1).min(items.len().max(1));
        if jobs <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if governor.is_cancelled() {
                        None
                    } else {
                        Some(f(i, t))
                    }
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run(jobs - 1, &|| loop {
            if governor.is_cancelled() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let result = f(i, &items[i]);
            if let Ok(mut slot) = slots[i].lock() {
                *slot = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().ok().flatten())
            .collect()
    }

    /// Runs `work` on the calling thread and offers it to up to `helpers`
    /// parked helpers; returns once every helper that joined has left,
    /// re-raising the first panic a helper caught.
    fn run(&'static self, helpers: usize, work: &(dyn Fn() + Sync)) {
        let call = Arc::new(Call::default());
        let close = Close {
            pool: self,
            call: &call,
        };
        // SAFETY: only the lifetime is erased. Helpers reach `job` only
        // through this call's offer in `self.state`, and dereference it
        // only between joining (which bumps `active` under that lock, while
        // the offer is still there) and leaving (which drops `active`).
        // `close` is dropped when this frame returns or unwinds; it removes
        // the offer first and then waits for `active == 0`, so no helper
        // touches `work` once this frame is gone.
        let job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync + '_), Job>(work) };
        self.offer(job, helpers, &call);
        work();
        drop(close);
        let panic = lock(&call.joined).panic.take();
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }

    /// Opens a call to `seats` helpers, starting helpers until the pool has
    /// that many.
    fn offer(&'static self, job: Job, seats: usize, call: &Arc<Call>) {
        let mut parked = lock(&self.state);
        while parked.helpers < seats {
            // A helper that cannot start only costs parallelism: the
            // caller runs whatever no helper claims.
            if std::thread::Builder::new()
                .spawn(move || self.serve())
                .is_err()
            {
                break;
            }
            parked.helpers += 1;
        }
        parked.offers.push(Offer {
            job,
            seats,
            call: Arc::clone(call),
        });
        drop(parked);
        for _ in 0..seats {
            self.opened.notify_one();
        }
    }

    /// A helper's life: park until a call is open, run its job, repeat.
    fn serve(&self) {
        let mut parked = lock(&self.state);
        loop {
            let Some(offer) = parked.offers.last_mut() else {
                parked = self
                    .opened
                    .wait(parked)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            offer.seats -= 1;
            let (job, call) = (offer.job, Arc::clone(&offer.call));
            if offer.seats == 0 {
                parked.offers.pop();
            }
            lock(&call.joined).active += 1;
            drop(parked);
            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
            let mut joined = lock(&call.joined);
            if let Err(payload) = outcome {
                joined.panic.get_or_insert(payload);
            }
            joined.active -= 1;
            if joined.active == 0 {
                call.left.notify_all();
            }
            drop(joined);
            parked = lock(&self.state);
        }
    }

    /// Helper threads started so far.
    #[cfg(test)]
    fn helpers(&self) -> usize {
        lock(&self.state).helpers
    }
}

/// Closes a call when dropped, on return and on unwind alike: no helper
/// joins it afterwards, and the drop returns once every helper that
/// joined has left.
struct Close<'a> {
    pool: &'a Pool,
    call: &'a Arc<Call>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        lock(&self.pool.state)
            .offers
            .retain(|offer| !Arc::ptr_eq(&offer.call, self.call));
        let mut joined = lock(&self.call.joined);
        while joined.active > 0 {
            joined = self
                .call
                .left
                .wait(joined)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Budget;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// A pool of its own, so other tests' calls do not grow it.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..200).collect();
        let seq: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 7] {
            assert_eq!(par_map(jobs, &items, |&x| x * 3 + 1), seq);
        }
    }

    #[test]
    fn indexed_variant_sees_true_indices() {
        let items = ["a", "b", "c", "d", "e"];
        let out = par_map_indexed(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[42u8], |&x| x + 1), vec![43]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u64, 2, 3];
        assert_eq!(par_map(64, &items, |&x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn cancelled_governor_skips_all_items() {
        let g = Governor::cancellable();
        g.cancel();
        let items: Vec<usize> = (0..10).collect();
        for jobs in [1, 4] {
            let out = par_map_governed(jobs, &items, &g, |_, &x| x);
            assert_eq!(out.len(), 10);
            assert!(out.iter().all(Option::is_none));
        }
    }

    #[test]
    fn governed_map_without_limits_behaves_like_par_map() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map_governed(4, &items, &Governor::unlimited(), |_, &x| x * 2);
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mid_run_exhaustion_skips_the_tail_sequentially() {
        // Sequential path: each item burns one fuel tick; after fuel runs
        // out the governor is cancelled and the rest are skipped.
        let g = Governor::new(Budget::fuel(3));
        let items: Vec<usize> = (0..8).collect();
        let out = par_map_governed(1, &items, &g, |_, &x| {
            let _ = g.check("test.item");
            x
        });
        let done = out.iter().filter(|r| r.is_some()).count();
        assert_eq!(done, 4, "3 fuel ticks pass, the 4th trips, then skips");
        assert!(out[4..].iter().all(Option::is_none));
    }

    #[test]
    fn a_helper_panic_reraises_its_payload_and_the_pool_serves_on() {
        // The caller's item waits until a helper has claimed the other
        // item, so the panic is raised on a helper thread.
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let items = [0usize, 1];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, &items, |&i| {
                if std::thread::current().id() != caller {
                    helper_ran.store(true, Ordering::SeqCst);
                    panic!("item {i} failed on a helper");
                }
                let start = Instant::now();
                while !helper_ran.load(Ordering::SeqCst)
                    && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
                i
            })
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("the payload is the helper's own String");
        assert!(message.ends_with("failed on a helper"), "{message}");
        let items: Vec<usize> = (0..40).collect();
        assert_eq!(par_map(2, &items, |&x| x + 1), (1..41).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outer: Vec<u64> = (0..12).collect();
            let inner: Vec<u64> = (0..30).collect();
            let sums = par_map(3, &outer, |&x| {
                par_map(2, &inner, |&y| x * y).into_iter().sum::<u64>()
            });
            let _ = tx.send(sums);
        });
        let sums = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("nested par_map deadlocked");
        let expected: Vec<u64> = (0..12).map(|x| x * (0..30).sum::<u64>()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn concurrent_callers_each_get_sequential_results() {
        let callers: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..100).map(|x| x * 7 + c).collect();
                    let seq: Vec<u64> = items.iter().map(|&x| x * x + c).collect();
                    for _ in 0..25 {
                        assert_eq!(par_map(2, &items, |&x| x * x + c), seq);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller
                .join()
                .expect("a concurrent caller saw wrong results");
        }
    }

    #[test]
    fn cancelling_midway_skips_the_tail_in_parallel() {
        let g = Governor::cancellable();
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_governed(2, &items, &g, |_, &x| {
            if x == 10 {
                g.cancel();
            }
            x
        });
        assert_eq!(out.len(), items.len());
        // Claims are in index order and a claimed item always runs, so
        // everything up to the cancelling item is done ...
        assert!(out[..=10].iter().all(Option::is_some));
        // ... and the tail is skipped.
        assert!(out[999].is_none());
        assert!(out.iter().filter(|r| r.is_some()).count() < 100);
    }

    #[test]
    fn helpers_never_exceed_the_largest_request() {
        let pool = private_pool();
        let g = Governor::unlimited();
        assert_eq!(pool.helpers(), 0, "the pool starts lazily");
        let out = pool.map(64, &[1u64, 2, 3], &g, |_, &x| x * x);
        assert_eq!(out, [Some(1), Some(4), Some(9)]);
        assert!(
            pool.helpers() <= 2,
            "{} helpers for 3 items",
            pool.helpers()
        );
        let items: Vec<u64> = (0..50).collect();
        for jobs in [2, 3, 1, 2, 3] {
            pool.map(jobs, &items, &g, |_, &x| x);
            assert!(pool.helpers() <= 2, "{} helpers", pool.helpers());
        }
        pool.map(5, &items, &g, |_, &x| x);
        assert!(pool.helpers() <= 4, "{} helpers", pool.helpers());
        pool.map(2, &items, &g, |_, &x| x);
        assert!(pool.helpers() <= 4, "{} helpers", pool.helpers());
    }
}
