//! # air-trace — structured event tracing and phase profiling
//!
//! Dependency-light observability substrate for the AIR engine (its
//! only dependency is the workspace's own zero-dependency
//! `air-metrics`, which supplies the histogram type behind
//! [`PhaseStat`] percentiles and the [`MetricsBridge`] sink). The
//! pipeline (verifier, forward/backward repair, LCL_A derivations,
//! CEGAR) reports every interesting step as a typed [`Event`] through a
//! [`Tracer`] handle; sinks turn the stream into a JSONL log
//! ([`JsonlSink`]), a per-phase profile ([`Profiler`]), or stay
//! in-memory for tests ([`MemorySink`]). [`DotBuilder`] renders
//! derivation trees as Graphviz DOT.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** `Tracer::default()` is a `None`; every emit
//!    site is a single branch and payload closures never run
//!    ([`Tracer::emit_with`], [`Tracer::span`]).
//! 2. **Deterministic content.** Event payloads carry only data derived
//!    from the computation (expressions, sizes, rules) — never
//!    pointers, thread ids, or times — so the stream (modulo `seq`,
//!    `t_ns` and cache telemetry) is reproducible across runs,
//!    cached/uncached, and thread counts.
//! 3. **Closed schema.** The wire format's `kind` set is closed and
//!    lives in `schemas/trace-event.schema.json` alone; CI checks every
//!    emitted line against it with the [`schema`] checker.
//!
//! Paper correspondence (Bruni, Giacobazzi, Gori, Ranzato — PLDI 2022):
//! `incompleteness` events witness Def. 4.1 violations, `shell_point`
//! events record Thm. 4.9 / Thm. 4.11 pointed-shell additions,
//! `cegar_split` events record Thm. 6.2 / 6.4 partition refinements.
//!
//! Module map:
//!
//! | module | contents |
//! |---|---|
//! | [`event`] | [`Event`], [`EventKind`], JSONL serialization |
//! | [`tracer`] | [`Tracer`], [`Sink`], RAII [`Span`], [`MemorySink`], [`MultiSink`] |
//! | [`jsonl`] | [`JsonlSink`] file/writer sink |
//! | [`profile`] | [`Profiler`] aggregating sink |
//! | [`summary`] | [`Summary`] aggregates + table renderer (`air trace summarize`) |
//! | [`bridge`] | [`MetricsBridge`] sink folding span exits into metric histograms |
//! | [`dot`] | [`DotBuilder`] Graphviz export |
//! | [`json`] | dependency-free JSON escape/parse helpers |
//! | [`schema`] | [`Schema`]: the wire-schema dialect of `schemas/*.json` and its checker |

pub mod bridge;
pub mod dot;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod profile;
pub mod schema;
pub mod summary;
pub mod tracer;

pub use bridge::{MetricsBridge, PHASE_DURATION_METRIC};
pub use dot::{DotBuilder, NodeId};
pub use event::{Event, EventKind};
pub use jsonl::JsonlSink;
pub use profile::Profiler;
pub use schema::Schema;
pub use summary::{PhaseStat, Summary};
pub use tracer::{MemorySink, MultiSink, Sink, Span, Tracer};
