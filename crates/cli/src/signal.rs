//! Graceful SIGINT/SIGTERM handling for long-running commands.
//!
//! Installing the handler flips one process-global flag; the
//! long-running paths (`fuzz run`, `corpus`, `chaos`, `serve`, and the
//! distributed coordinator) poll it and wind down cooperatively — a
//! final checkpoint is written, the campaign report notes the cut, and
//! the process exits with the budget-class code 3 instead of being torn
//! mid-write. A *second* signal falls back to the default disposition,
//! so a wedged run can still be killed with a double Ctrl-C. One
//! [`CancelWatch`] does the polling for `serve`, `corpus` and the
//! coordinator.
//!
//! Only commands that opt in install the handler: short commands keep
//! the default die-on-SIGINT behavior.
//!
//! The handler itself only does async-signal-safe work (one atomic
//! store and one `signal(2)` re-registration); everything interesting
//! happens on the polling side.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM has been received (always false on
/// platforms without `signal(2)`).
pub(crate) fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    // The workspace is dependency-free, so the one libc call we need is
    // declared by hand. `signal(2)` is in POSIX and the handler below
    // is async-signal-safe (one atomic store, one re-registration).
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // Restore the default disposition: the next signal kills a run
        // that ignores the cooperative flag.
        unsafe {
            signal(signum, SIG_DFL);
        }
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // A failed registration (`SIG_ERR`) leaves the default
        // disposition in place; the command simply loses graceful
        // shutdown.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

/// Installs the SIGINT/SIGTERM handler. Idempotent; called by the
/// long-running command paths only.
pub(crate) fn install() {
    imp::install();
}

/// How often a [`CancelWatch`] polls the flag.
const POLL: Duration = Duration::from_millis(20);

/// Bridges the async-signal-safe flag to a long-running command: a
/// helper thread polls [`interrupted`] and runs the command's stop
/// action once (drain the daemon, cancel the sweep's governor, flip the
/// coordinator's cancel token).
pub(crate) struct CancelWatch {
    done: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl CancelWatch {
    /// Installs the handler and starts polling; `on_signal` runs on the
    /// first signal seen before the watch is finished or dropped.
    pub(crate) fn start(on_signal: impl FnOnce() + Send + 'static) -> CancelWatch {
        install();
        let done = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let done = Arc::clone(&done);
            move || {
                while !done.load(Ordering::Relaxed) {
                    if interrupted() {
                        on_signal();
                        return;
                    }
                    std::thread::sleep(POLL);
                }
            }
        });
        CancelWatch {
            done,
            thread: Some(thread),
        }
    }

    /// Stops the watcher and reports whether a signal arrived.
    pub(crate) fn finish(self) -> bool {
        drop(self);
        interrupted()
    }
}

impl Drop for CancelWatch {
    /// Stops and joins the watcher on every exit path, early errors
    /// included.
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        install();
        install();
        // The flag may have been set by a test harness signal, but the
        // accessor itself must be callable and stable.
        let a = interrupted();
        let b = interrupted();
        assert_eq!(a, b);
    }
}
