//! Trace → metrics bridge: one instrumentation layer, two consumers.
//!
//! The engines are already instrumented with RAII spans and typed cache
//! events for single-run tracing (PR 2). [`MetricsBridge`] is a [`Sink`]
//! that folds the *aggregatable* subset of that stream into an
//! `air_metrics::MetricsRegistry`, so a long-running daemon gets
//! per-phase latency histograms and cache/fault counters without a
//! second set of probes in the hot paths. Tee it next to any other sink
//! with [`crate::Tracer::tee`].
//!
//! | trace event        | metric series                                          |
//! |--------------------|--------------------------------------------------------|
//! | `span_exit`        | `air_phase_duration_ns{phase}` histogram               |
//! | `cache_hit`        | `air_cache_events_total{table, event="hit"}`           |
//! | `cache_miss`       | `air_cache_events_total{table, event="miss"}`          |
//! | `cache_bypass`     | `air_cache_events_total{table, event="bypass"}`        |
//! | `budget_exhausted` | `air_budget_exhausted_total{phase, reason}`            |
//! | `task_retried`     | `air_task_retries_total{site}`                         |
//! | `shard_quarantined`| `air_shard_quarantines_total{table}`                   |
//!
//! Everything else (derivation rules, verdicts, request lifecycle —
//! which the serve engine meters directly with tenant labels the events
//! do not carry) passes through untouched. The bridge never panics and
//! never blocks beyond the registry's short registration lock, so it is
//! safe under `MultiSink`'s panic quarantine and in worker threads.
//!
//! ## Hot-path cost
//!
//! A warm `verify` request emits ~30 cache events plus a handful of span
//! pairs, so the bridge is the single most-executed metrics consumer in
//! the daemon and its per-event cost dominates the metrics plane's
//! overhead (0.18 % of a warm request when last measured, against a
//! < 2 % bar; SERVING.md, *Overhead*). Two things keep it cheap:
//!
//! * Series handles are memoized. The cache tables form a closed set
//!   (`exec`/`wlp`/`sat`), so their counters live in a fixed
//!   `OnceLock` grid; phase histograms are memoized in a small
//!   read-mostly list. Either way the steady state is one atomic RMW
//!   per event instead of a registry lookup (name hashing + lock).
//! * The bridge reports [`Sink::wants_timestamps`]` == false`: it only
//!   aggregates, so when it is the *sole* sink the tracer skips the
//!   clock read and sequence stamp entirely (span durations are
//!   unaffected — spans carry their own start instant).

use crate::event::{Event, EventKind};
use crate::tracer::Sink;
use air_metrics::{CounterHandle, HistogramHandle, MetricsRegistry};
use std::sync::{OnceLock, PoisonError, RwLock};

/// Phase-duration histogram series fed by every `span_exit`.
pub const PHASE_DURATION_METRIC: &str = "air_phase_duration_ns";

/// The closed set of cache tables instrumented by the engines; events
/// naming any other table fall back to a plain registry lookup.
const CACHE_TABLES: [&str; 3] = ["exec", "wlp", "sat"];
const CACHE_EVENTS: [&str; 3] = ["hit", "miss", "bypass"];

/// Most phase names the engines emit; beyond this the memo stops
/// growing and stragglers pay the registry-lookup path (still correct).
const PHASE_MEMO_CAP: usize = 64;

/// A [`Sink`] that aggregates trace events into metrics; see module docs.
pub struct MetricsBridge {
    registry: MetricsRegistry,
    /// `[table][event]` counter handles for the known cache tables.
    cache_counters: [[OnceLock<CounterHandle>; 3]; 3],
    /// Phase-name → histogram handle memo, linear-scanned under a read
    /// lock (the phase set is small and reads vastly outnumber inserts).
    phase_histograms: RwLock<Vec<(String, HistogramHandle)>>,
}

impl MetricsBridge {
    pub fn new(registry: MetricsRegistry) -> Self {
        Self {
            registry,
            cache_counters: Default::default(),
            phase_histograms: RwLock::new(Vec::new()),
        }
    }

    fn cache_event(&self, table: &str, event_idx: usize) {
        match CACHE_TABLES.iter().position(|t| *t == table) {
            Some(t) => self.cache_counters[t][event_idx]
                .get_or_init(|| {
                    self.registry.counter_handle(
                        "air_cache_events_total",
                        &[("table", table), ("event", CACHE_EVENTS[event_idx])],
                    )
                })
                .add(1),
            None => self.registry.inc(
                "air_cache_events_total",
                &[("table", table), ("event", CACHE_EVENTS[event_idx])],
            ),
        }
    }

    fn phase_observe(&self, phase: &str, duration_ns: u64) {
        {
            let memo = self
                .phase_histograms
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((_, h)) = memo.iter().find(|(p, _)| p == phase) {
                h.observe(duration_ns);
                return;
            }
        }
        let h = self
            .registry
            .histogram_handle(PHASE_DURATION_METRIC, &[("phase", phase)]);
        h.observe(duration_ns);
        let mut memo = self
            .phase_histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.len() < PHASE_MEMO_CAP && !memo.iter().any(|(p, _)| p == phase) {
            memo.push((phase.to_string(), h));
        }
    }
}

impl Sink for MetricsBridge {
    /// The bridge only aggregates; it never reads `seq` or `t_ns`.
    fn wants_timestamps(&self) -> bool {
        false
    }

    /// Detail events (rules, shells, witnesses, verdicts) fall through
    /// the `match` below — declining them lets bridge-only tracers skip
    /// rendering their payloads.
    fn wants_detail(&self) -> bool {
        false
    }

    fn record(&self, event: &Event) {
        match &event.kind {
            EventKind::SpanExit { phase, duration_ns } => {
                self.phase_observe(phase, *duration_ns);
            }
            EventKind::CacheHit { table } => self.cache_event(table, 0),
            EventKind::CacheMiss { table } => self.cache_event(table, 1),
            EventKind::CacheBypass { table } => self.cache_event(table, 2),
            EventKind::BudgetExhausted { phase, reason, .. } => {
                self.registry.inc(
                    "air_budget_exhausted_total",
                    &[("phase", phase), ("reason", reason)],
                );
            }
            EventKind::TaskRetried { site, .. } => {
                self.registry
                    .inc("air_task_retries_total", &[("site", site)]);
            }
            EventKind::ShardQuarantined { table, .. } => {
                self.registry
                    .inc("air_shard_quarantines_total", &[("table", table)]);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use std::sync::Arc;

    #[test]
    fn span_exits_feed_phase_histograms() {
        let registry = MetricsRegistry::new();
        let t = Tracer::new(Arc::new(MetricsBridge::new(registry.clone())));
        {
            let _s = t.span(|| "verify.backward".into());
        }
        {
            let _s = t.span(|| "verify.backward".into());
        }
        let snap = registry.snapshot();
        let h = snap
            .histogram(PHASE_DURATION_METRIC, &[("phase", "verify.backward")])
            .expect("phase histogram registered");
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 2);
    }

    #[test]
    fn cache_and_budget_events_become_counters() {
        let registry = MetricsRegistry::new();
        let t = Tracer::new(Arc::new(MetricsBridge::new(registry.clone())));
        t.emit(EventKind::CacheHit { table: "exec" });
        t.emit(EventKind::CacheHit { table: "exec" });
        t.emit(EventKind::CacheMiss { table: "exec" });
        t.emit(EventKind::CacheBypass { table: "sem" });
        t.emit(EventKind::BudgetExhausted {
            phase: "repair.backward".into(),
            spent: 100,
            reason: "fuel".into(),
        });
        let snap = registry.snapshot();
        let c = |labels: &[(&str, &str)]| snap.counter("air_cache_events_total", labels);
        assert_eq!(c(&[("table", "exec"), ("event", "hit")]), Some(2));
        assert_eq!(c(&[("table", "exec"), ("event", "miss")]), Some(1));
        assert_eq!(c(&[("table", "sem"), ("event", "bypass")]), Some(1));
        assert_eq!(
            snap.counter(
                "air_budget_exhausted_total",
                &[("phase", "repair.backward"), ("reason", "fuel")]
            ),
            Some(1)
        );
    }

    #[test]
    fn unrelated_events_leave_the_registry_untouched() {
        let registry = MetricsRegistry::new();
        let t = Tracer::new(Arc::new(MetricsBridge::new(registry.clone())));
        t.emit(EventKind::LclRule {
            rule: "iterate".into(),
        });
        t.emit(EventKind::Verdict {
            phase: "verify".into(),
            verdict: "proved".into(),
        });
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
