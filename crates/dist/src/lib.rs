//! Crash-tolerant distributed campaigns.
//!
//! The deterministic sweeps in this workspace — fuzz campaigns over a
//! seed range, corpus sweeps over a sorted file list, chaos sweeps over
//! a plan range — are all *pure functions of an integer interval*. This
//! crate shards such an interval across N worker OS processes and
//! merges their partial results back into a report that is
//! **byte-identical** to the single-process run, regardless of shard
//! count, work-stealing schedule, or workers killed mid-run.
//!
//! Architecture (one coordinator, N workers, pipes only — no sockets,
//! no threads shared across processes):
//!
//! - The coordinator spawns each worker as a child process running the
//!   same binary with a hidden `--dist-worker` flag, and speaks the
//!   length-prefixed JSON frame protocol of [`air_serve`] over the
//!   child's stdin/stdout ([`protocol::Frame`]).
//! - Work is handed out in fine-grained **leases** (sub-ranges of the
//!   interval) on demand, so fast workers naturally take more of the
//!   space.
//! - **Work-stealing**: when a worker goes idle and no fresh ranges
//!   remain, the coordinator truncates the straggler with the most
//!   remaining work at its midpoint and reissues the tail once the
//!   straggler's (authoritative) result arrives.
//! - **Crash tolerance**: workers send heartbeat frames as they
//!   advance; a missed deadline, a non-zero exit, or a SIGKILL marks
//!   the worker lost, and its lease is reissued from the shard's last
//!   crash-safe checkpoint under a bounded, deterministic
//!   restart-with-backoff policy (three restarts per shard, 50 ms
//!   doubling per restart).
//! - **Deterministic merges**: a lease result is the same
//!   checkpoint-format payload a crash would have left behind, so
//!   partial results from crashes and clean completions merge through
//!   one code path, and the merge is a fold over *sorted disjoint
//!   tiles* — order-insensitive by construction.
//!
//! The [`coordinator`] is generic over the campaign: callers provide
//! the worker argv, a crash-recovery hook, and consume the ordered
//! tiles. The `air` CLI wires it to `fuzz run`, `corpus` and `chaos`
//! via `--shards N`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{
    run_distributed, DistConfig, DistError, DistHooks, DistOutcome, DistStats, RecoverFn, Tile,
};
pub use protocol::Frame;
pub use worker::{run_worker, FrameWriter, LeaseCtx, LeaseDone};
