//! Repair-as-a-service: the `air serve` daemon.
//!
//! A long-running server that keeps the expensive parts of the pipeline
//! — the hash-consing interner, the sharded closure memo tables and the
//! semantic caches — warm across requests, so the Nth verify/repair of a
//! workload pays a fraction of the first one's cost.
//!
//! The moving parts, one module each:
//!
//! - [`protocol`]: length-prefixed JSON frames and the request/response
//!   shapes (see `schemas/serve-request.schema.json` and
//!   `schemas/serve-response.schema.json`, and `SERVING.md` for the
//!   operator view).
//! - [`admission`]: per-tenant lifetime fuel quotas and the priority
//!   queue feeding the worker pool.
//! - [`engine`]: the registry of warm [`air_core::RepairSession`]s plus the request → verdict
//!   path, byte-identical in its reports to the one-shot CLI.
//! - [`server`]: the stdio/TCP transports, the supervised worker pool
//!   and the in-flight cancellation registry.
//!
//! Error responses reuse the CLI's exit-code taxonomy as JSON codes:
//! 2 usage, 3 budget/quota/cancellation, 4 internal.

#![forbid(unsafe_code)]

pub mod admission;
pub mod engine;
pub mod protocol;
pub mod server;

pub use admission::{Admission, JobQueue, QuotaRejection, TenantQuotas};
pub use engine::{Admitted, ServeEngine};
pub use protocol::{
    read_frame, write_frame, CacheSnapshot, FrameError, JobKind, JobRequest, Request, Response,
    DEFAULT_MAX_FRAME,
};
pub use server::{start, RunningServer, ServeConfig, ServeReport, StopHandle};
