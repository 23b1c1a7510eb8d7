//! Deterministic fault injection, supervision and crash-safe checkpoints.
//!
//! The paper's repair theorems (Thm 7.1 / Thm 7.6) guarantee that *any
//! prefix* of a repair derivation is a sound over-approximation, which
//! means a correctly built engine can lose a worker, a cache shard or an
//! observer mid-flight and still return a usable, provably sound partial
//! result. This crate exists to make that claim falsifiable:
//!
//! - [`FaultPlan`] — a seed expanded into an ordered, deterministic fault
//!   schedule keyed on the engine's existing trace-point sites
//!   (`verify.backward`, `repair.forward`, `cache.exec`, …). The same
//!   seed always produces the same plan, so every chaos run replays.
//! - [`FaultInjector`] / [`InjectSink`] — the delivery mechanism. The
//!   injector rides the [`air_trace::Sink`] chain: every engine already
//!   emits events at exactly the sites a plan names, so wrapping the
//!   sink injects panics, governor cancellations, latency spikes, cache
//!   shard poisoning and trace-sink write failures at those sites with
//!   no new plumbing through the engines.
//! - [`Supervisor`] — wraps tasks in `catch_unwind` with bounded
//!   deterministic retry, emitting `task_retried` events. One-shot
//!   faults make retries converge; persistent panics surface as a
//!   structured [`TaskFailure`], never an abort.
//! - [`checkpoint`] — atomic (write-tmp-rename) JSON checkpoints plus a
//!   cadence helper, so corpus and fuzz sweeps survive `SIGKILL` and
//!   resume to byte-identical reports.
//!
//! Recovery of poisoned cache shards lives with the shards themselves
//! (see `air_lattice::MemoTable`); this crate supplies the faults that
//! poison them and the harness that proves the quarantine path works.

#![forbid(unsafe_code)]

pub mod checkpoint;
mod fault;
mod pool;
mod supervisor;

pub use checkpoint::{atomic_write, Checkpointer};
pub use fault::{
    FailSwitch, FaultInjector, FaultKind, FaultPlan, FaultSpec, FlakyWriter, InjectSink,
    SITE_VOCABULARY,
};
pub use pool::{PoolStats, WorkerPool};
pub use supervisor::{install_quiet_fault_hook, panic_message, Supervisor, TaskFailure};

/// SplitMix64: the tiny, well-distributed PRNG used to expand a plan
/// seed into a fault schedule. Deterministic and dependency-free.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }
}
