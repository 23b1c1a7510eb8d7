//! # air-metrics — the production metrics plane
//!
//! Aggregate service telemetry for the AIR daemon, structured as three
//! primitive instruments behind one labelled registry:
//!
//! | instrument  | update      | storage                         | exposition            |
//! |-------------|-------------|---------------------------------|-----------------------|
//! | counter     | `add`/`inc` | one `AtomicU64`                 | `*_total` counter     |
//! | gauge       | `set`       | one `AtomicI64`                 | gauge                 |
//! | [`Histogram`] | `observe` | 65 `AtomicU64` log2 buckets     | cumulative histogram  |
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero dependencies**, exactly like `air-trace`. Everything here is
//!    `std` atomics, `Mutex`-guarded `BTreeMap`s for series registration,
//!    and hand-rolled JSON / Prometheus text rendering.
//! 2. **Lock-free on the hot path.** Updating an already-registered series
//!    is a handful of `Relaxed` atomic RMWs; the registry mutex is taken
//!    only to *find or create* a series. Callers that update one series in
//!    a tight loop can hoist the lookup with the `*_handle` methods and
//!    pay zero locks per update.
//! 3. **Always on, one store.** There is no disabled mode: a registry
//!    always records, so a counter kept here is kept nowhere else (the
//!    serve layer's `served`/`warm_hits` are sums over its series). The
//!    last measured cost on the serve stack is in SERVING.md,
//!    *Overhead* (< 2% bar).
//! 4. **Fixed boundaries.** Histogram buckets are powers of two
//!    (`le = 2^i - 1`), so histograms from different processes, tenants or
//!    runs can be merged or compared without boundary negotiation, and a
//!    snapshot is a plain vector of `(le, count)` pairs. Quantiles carry
//!    at most one bucket (≤ 2x) of relative error — plenty for p50/p99
//!    dashboards, and the price of never allocating on `observe`.
//!
//! ## Consumers
//!
//! * `air-trace` bridges span exits into per-phase histograms
//!   (`air_trace::MetricsBridge`) and reuses [`Histogram`] for the
//!   p50/p90/p99 columns of `air trace summarize`.
//! * `air-serve` instruments admission, the warm-cache engine and the
//!   worker pool, answers `metrics` jobs with [`Snapshot::to_json`]
//!   (validated against `schemas/metrics-snapshot.schema.json`), and
//!   serves [`Snapshot::to_prometheus`] on `--metrics-addr`.
//! * `air top` polls the JSON snapshot and renders a live summary.
//!
//! ## Module map
//!
//! | module        | contents                                              |
//! |---------------|-------------------------------------------------------|
//! | [`histogram`] | lock-free log2-bucket [`Histogram`] + quantiles       |
//! | [`registry`]  | labelled [`MetricsRegistry`] and instrument handles   |
//! | [`snapshot`]  | [`Snapshot`] rows, JSON + Prometheus text rendering   |

#![forbid(unsafe_code)]

pub mod histogram;
pub mod registry;
pub mod snapshot;

pub use histogram::{Histogram, BUCKETS};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
pub use snapshot::{BucketRow, CounterRow, GaugeRow, HistogramRow, Snapshot, SCHEMA_ID};
