//! Supervised task execution: `catch_unwind` plus bounded deterministic
//! retry, so an injected (or genuine) worker panic costs one retry
//! instead of the whole run.
//!
//! Soundness note: a retried engine call starts from its inputs again —
//! all engine entry points are pure functions of their arguments (memo
//! tables only change *whether* work is recomputed), so a retry after a
//! mid-flight panic cannot observe torn state. Poisoned cache shards are
//! quarantined by `air_lattice::MemoTable` on next touch, which is what
//! makes that claim hold even when the panic happened inside a cache
//! writer.

use air_trace::{EventKind, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Attempts a [`Supervisor::default`] gives a task, first try included.
const DEFAULT_ATTEMPTS: u32 = 3;

/// A task that kept panicking: every attempt, the last panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFailure {
    pub site: String,
    pub attempts: u32,
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task '{}' failed after {} attempt(s): {}",
            self.site, self.attempts, self.message
        )
    }
}

struct SupervisorInner {
    /// Total attempts (first try included); `1` disables retry. Retries
    /// follow at once, so supervised runs stay wall-clock free and
    /// deterministic.
    max_attempts: u32,
    tracer: Tracer,
    retries: AtomicU64,
}

/// Cheap clonable supervisor handle shared across the workers of a
/// parallel sweep; all clones feed one retry counter.
#[derive(Clone)]
pub struct Supervisor {
    inner: Arc<SupervisorInner>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new(DEFAULT_ATTEMPTS)
    }
}

impl Supervisor {
    /// A supervisor giving each task `max_attempts` tries (at least one).
    pub fn new(max_attempts: u32) -> Self {
        Self::with_tracer(max_attempts, Tracer::disabled())
    }

    /// Same, but retries emit `task_retried` events through `tracer`.
    pub fn with_tracer(max_attempts: u32, tracer: Tracer) -> Self {
        Supervisor {
            inner: Arc::new(SupervisorInner {
                max_attempts,
                tracer,
                retries: AtomicU64::new(0),
            }),
        }
    }

    /// Runs `f` under `catch_unwind`, retrying up to the policy's budget.
    /// Returns the first successful result, or a [`TaskFailure`] carrying
    /// the final panic message. Never unwinds into the caller.
    pub fn run<T>(&self, site: &str, mut f: impl FnMut() -> T) -> Result<T, TaskFailure> {
        let mut last = String::new();
        let attempts = self.inner.max_attempts.max(1);
        for attempt in 1..=attempts {
            match catch_unwind(AssertUnwindSafe(&mut f)) {
                Ok(value) => return Ok(value),
                Err(payload) => {
                    last = panic_message(payload.as_ref());
                }
            }
            if attempt < attempts {
                self.inner.retries.fetch_add(1, Ordering::Relaxed);
                self.inner.tracer.emit_with(|| EventKind::TaskRetried {
                    site: site.to_string(),
                    attempt: u64::from(attempt),
                });
            }
        }
        Err(TaskFailure {
            site: site.to_string(),
            attempts,
            message: last,
        })
    }

    /// Total retries performed across all clones.
    pub fn retry_count(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("max_attempts", &self.inner.max_attempts)
            .field("retries", &self.retry_count())
            .finish()
    }
}

/// Suppresses the default panic-hook output for *injected* faults —
/// payloads starting with `fault injected:` (the injector's panics) or
/// `chaos:` (the staged poisoning panic inside
/// `MemoTable::chaos_poison_shard`). A fault sweep fires hundreds of
/// expected panics that the supervisor catches and retires; without this
/// their backtraces bury the actual report. Genuine panics still reach
/// the previously installed hook. Call once, before injecting; the hook
/// is process-global.
pub fn install_quiet_fault_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let is_fault = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with("fault injected:") || s.starts_with("chaos:"));
        if !is_fault {
            prev(info);
        }
    }));
}

/// Renders a `catch_unwind` payload as the panic message, as the corpus
/// status rows do.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_trace::{MemorySink, Tracer};
    use std::sync::atomic::AtomicU32;

    #[test]
    fn first_success_short_circuits() {
        let sup = Supervisor::default();
        let result = sup.run("site", || 42);
        assert_eq!(result, Ok(42));
        assert_eq!(sup.retry_count(), 0);
    }

    #[test]
    fn one_shot_panic_is_retried_to_success() {
        let sup = Supervisor::default();
        let calls = AtomicU32::new(0);
        let result = sup.run("repair.forward", || {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            7
        });
        assert_eq!(result, Ok(7));
        assert_eq!(sup.retry_count(), 1);
    }

    #[test]
    fn persistent_panic_becomes_a_structured_failure() {
        let sink = Arc::new(MemorySink::new());
        let sup = Supervisor::with_tracer(3, Tracer::new(sink.clone()));
        let result: Result<(), _> = sup.run("corpus.gauss_sum", || panic!("hard fault"));
        let failure = result.expect_err("must fail after the budget");
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.message, "hard fault");
        assert!(failure.to_string().contains("corpus.gauss_sum"));
        assert_eq!(sup.retry_count(), 2);
        let retried: Vec<u64> = sink
            .drain()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskRetried { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(retried, vec![1, 2], "one task_retried event per retry");
    }

    #[test]
    fn max_attempts_one_never_retries() {
        let sup = Supervisor::new(1);
        let result: Result<(), _> = sup.run("s", || panic!("boom"));
        assert_eq!(result.unwrap_err().attempts, 1);
        assert_eq!(sup.retry_count(), 0);
    }
}
