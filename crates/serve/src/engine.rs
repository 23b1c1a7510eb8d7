//! The serving engine: a registry of warm table sets keyed by
//! `(universe signature, domain)`, plus the request → verdict path.
//!
//! Cache-sharing rules (the soundness argument is spelled out in
//! `DESIGN.md`):
//!
//! - Semantic caches and closure memos are keyed on *structural* values
//!   (statements, state-set bitsets), so they must never be shared
//!   across universes — two universes of different shapes would alias
//!   equal-looking keys onto different store enumerations. The registry
//!   key is therefore the normalized variable declaration string plus
//!   the domain name; only requests agreeing on both share tables.
//! - Within one key, sharing across requests *and tenants* is sound:
//!   the tables are pure memoization of deterministic functions
//!   (`exec`, `wlp`, `sat`, the base closure), so a hit returns exactly
//!   what recomputation would. Each key's tables are one
//!   [`RepairSession`]; every request runs on a clone of it, which shares
//!   the tables and carries the request's strategy and governor. Repair
//!   never mutates the session's base domain — each run clones it
//!   (sharing the base memo, copying the points list) and adds points
//!   only to its private clone.

use crate::protocol::{CacheSnapshot, JobKind, JobRequest, Response};
use air_core::question::{render_vars, universe};
use air_core::summarize::display_set;
use air_core::{RepairError, RepairSession};
use air_lang::SemCache;
use air_lattice::{Budget, Exhaustion, Governor};
use air_metrics::MetricsRegistry;
use air_trace::{json, EventKind, Tracer};

use crate::admission::TenantQuotas;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A registry key: the canonical `vars` rendering and the domain name.
type TableKey = (String, &'static str);

/// An admitted request: its governor plus the fuel reservation the
/// admission holds against the tenant's allowance until
/// [`ServeEngine::settle`] converts it into actual spend.
#[derive(Debug)]
pub struct Admitted {
    governor: Governor,
    reserved: u64,
    settled: AtomicBool,
}

impl Admitted {
    /// The governor budgeting and cancelling this request.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }
}

/// The long-lived serving engine shared by all worker threads.
pub struct ServeEngine {
    registry: Mutex<HashMap<TableKey, RepairSession>>,
    quotas: TenantQuotas,
    tracer: Tracer,
    metrics: MetricsRegistry,
}

impl ServeEngine {
    /// `quota` is the per-tenant lifetime fuel allowance (`None` =
    /// unlimited); engine events flow through `tracer`, and request,
    /// quota and warm-cache telemetry into a registry of its own.
    pub fn new(quota: Option<u64>, tracer: Tracer) -> ServeEngine {
        Self::with_metrics(quota, tracer, MetricsRegistry::new())
    }

    /// Like [`ServeEngine::new`], but aggregating request, quota and
    /// warm-cache telemetry into the given `metrics` (see the metric
    /// inventory in `SERVING.md` § Monitoring).
    pub fn with_metrics(
        quota: Option<u64>,
        tracer: Tracer,
        metrics: MetricsRegistry,
    ) -> ServeEngine {
        ServeEngine {
            registry: Mutex::new(HashMap::new()),
            quotas: TenantQuotas::new(quota),
            tracer,
            metrics,
        }
    }

    /// The tracer engine events flow through.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The metrics registry this engine reports into.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Admission: emits `request_received`, checks the tenant quota,
    /// reserves the effective fuel against the tenant's allowance and
    /// mints the request's governor (always cancellable, budgeted by the
    /// declared fuel/timeout capped to the tenant's available allowance).
    /// Every granted admission must reach [`ServeEngine::settle`] on some
    /// completion path, or the reservation leaks.
    ///
    /// # Errors
    ///
    /// The ready-to-send quota rejection (code 3, reason `"quota"`).
    // The Err IS the wire response: built once on a cold rejection path and
    // serialized immediately, so boxing it would only add indirection.
    #[allow(clippy::result_large_err)]
    pub fn admit(&self, req: &JobRequest) -> Result<Admitted, Response> {
        self.tracer.emit_detail_with(|| EventKind::RequestReceived {
            id: req.id.clone(),
            job: req.job.name().to_string(),
            tenant: req.tenant.clone(),
        });
        match self.quotas.admit(&req.tenant, req.fuel) {
            Ok(admission) => {
                if admission.reserved > 0 {
                    self.metrics.add(
                        "air_serve_fuel_reserved_total",
                        &[("tenant", req.tenant.as_str())],
                        admission.reserved,
                    );
                }
                let budget = Budget {
                    fuel: admission.effective,
                    timeout: req.timeout_ms.map(Duration::from_millis),
                };
                Ok(Admitted {
                    governor: if budget.is_unlimited() {
                        Governor::cancellable()
                    } else {
                        Governor::new(budget)
                    },
                    reserved: admission.reserved,
                    settled: AtomicBool::new(false),
                })
            }
            Err(rej) => Err(self.reject_metered(req, rej)),
        }
    }

    /// Builds the code-3 quota rejection and counts it
    /// (`air_serve_rejects_total{tenant, reason="quota"}`).
    fn reject_metered(&self, req: &JobRequest, rej: crate::admission::QuotaRejection) -> Response {
        self.metrics.inc(
            "air_serve_rejects_total",
            &[("tenant", req.tenant.as_str()), ("reason", "quota")],
        );
        Response::Error {
            id: req.id.clone(),
            code: 3,
            message: format!(
                "tenant `{}` fuel quota exceeded: {} requested, {} of {} remaining",
                rej.tenant,
                rej.requested
                    .map_or("unlimited".to_string(), |f| f.to_string()),
                rej.remaining,
                self.quotas.limit().unwrap_or(0),
            ),
            phase: Some("serve.admit".to_string()),
            spent: Some(rej.spent),
            reason: Some("quota".to_string()),
        }
    }

    /// Runs an admitted job under its governor, then settles the
    /// admission (reservation released, actual fuel charged). Never
    /// panics outward by design — engine errors come back as structured
    /// error responses (panics are the worker pool supervisor's
    /// department, and a panicking job is settled by its abort path).
    pub fn handle(&self, req: &JobRequest, admitted: &Admitted) -> Response {
        let started = Instant::now();
        let response = self.run_job(req, &admitted.governor, started);
        self.settle(req, admitted);
        // The only count of served jobs: [`ServeEngine::served`] sums it.
        self.metrics.inc(
            "air_serve_requests_total",
            &[
                ("tenant", req.tenant.as_str()),
                ("job", req.job.name()),
                ("status", response.status_name()),
            ],
        );
        // Latency histograms only for runs that reached the engine
        // (errors have no meaningful warm/cold temperature).
        if let Some(warm) = response.warm_flag() {
            self.metrics.observe(
                "air_serve_request_duration_ns",
                &[
                    ("tenant", req.tenant.as_str()),
                    ("temp", if warm { "warm" } else { "cold" }),
                ],
                started.elapsed().as_nanos() as u64,
            );
        }
        response
    }

    /// Settles an admission: releases its quota reservation and charges
    /// the fuel the governor actually counted. Idempotent — exactly one
    /// completion path (normal, cancelled-while-queued, aborted after
    /// retries, drain-rejected, duplicate-id-rejected) does the
    /// accounting, later calls are no-ops.
    pub fn settle(&self, req: &JobRequest, admitted: &Admitted) {
        if admitted.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        let spent = admitted.governor.spent();
        self.quotas.settle(&req.tenant, admitted.reserved, spent);
        if spent > 0 {
            self.metrics.add(
                "air_serve_fuel_spent_total",
                &[("tenant", req.tenant.as_str())],
                spent,
            );
        }
    }

    /// Checks out the warm session for a request, building it on the
    /// key's first request. Returns the request's clone and whether the
    /// tables were already warm.
    #[allow(clippy::result_large_err)]
    fn session(&self, req: &JobRequest) -> Result<(RepairSession, bool), Response> {
        let q = &req.question;
        let key = (render_vars(&q.vars), q.domain.name());
        let found = self
            .registry
            .lock()
            .expect("warm registry lock poisoned")
            .get(&key)
            .map(RepairSession::checkout);
        let (session, warm) = match found {
            Some(found) => found,
            None => {
                // Cold path: build outside the registry lock. The
                // universe and the domain enumerate the store space and
                // can be slow for large var ranges; holding the lock here
                // would stall every warm hit on unrelated keys behind one
                // cold request.
                let universe = universe(&q.vars).map_err(|e| self.usage(req, e.to_string()))?;
                let base = q.domain.build(&universe);
                let built = RepairSession::new(universe, base).tracer(self.tracer.clone());
                let mut registry = self.registry.lock().expect("warm registry lock poisoned");
                // A lost build race adopts the first builder's tables, so
                // every request on this key keeps sharing one table set.
                let found = registry.entry(key.clone()).or_insert(built).checkout();
                let tables = registry.len();
                drop(registry);
                self.metrics
                    .set_gauge("air_serve_warm_tables", &[], tables as i64);
                found
            }
        };
        // `air_serve_warm_lookups_total{vars, domain, result}`: its
        // `result="hit"` rows are the only count of warm hits, which
        // [`ServeEngine::warm_hits`] sums.
        self.metrics.inc(
            "air_serve_warm_lookups_total",
            &[
                ("vars", key.0.as_str()),
                ("domain", key.1),
                ("result", if warm { "hit" } else { "miss" }),
            ],
        );
        Ok((session, warm))
    }

    fn usage(&self, req: &JobRequest, message: String) -> Response {
        Response::Error {
            id: req.id.clone(),
            code: 2,
            message,
            phase: None,
            spent: None,
            reason: None,
        }
    }

    fn budget(&self, req: &JobRequest, ex: &Exhaustion) -> Response {
        Response::Error {
            id: req.id.clone(),
            code: 3,
            message: format!(
                "budget exhausted in {} ({} ticks spent): {}",
                ex.phase,
                ex.spent,
                ex.reason.name()
            ),
            phase: Some(ex.phase.clone()),
            spent: Some(ex.spent),
            reason: Some(ex.reason.name().to_string()),
        }
    }

    fn engine_error(&self, req: &JobRequest, e: RepairError) -> Response {
        match e {
            RepairError::Exhausted(partial) => self.budget(req, &partial.exhaustion),
            RepairError::Sem(sem) => self.usage(req, sem.to_string()),
            RepairError::Internal(message) => Response::Error {
                id: req.id.clone(),
                code: 4,
                message,
                phase: None,
                spent: None,
                reason: None,
            },
        }
    }

    fn run_job(&self, req: &JobRequest, governor: &Governor, started: Instant) -> Response {
        let (session, warm) = match self.session(req) {
            Ok(found) => found,
            Err(resp) => return resp,
        };
        let session = session.governor(governor.clone()).strategy(req.strategy);
        let universe = session.universe();
        let (prog, pre, spec) = match req.question.parts(universe) {
            Ok(parts) => parts,
            Err(e) => return self.usage(req, e.to_string()),
        };
        match req.job {
            JobKind::Verify | JobKind::Repair | JobKind::Reverify => {
                // `reverify` measures the edit before the run: the nodes
                // this revision adds on top of everything the tables have
                // seen (0 for a resubmission).
                let reuse = (req.job == JobKind::Reverify).then(|| session.reuse(&prog));
                let verdict = match session.verdict(&prog, &pre, &spec) {
                    Ok(v) => v,
                    Err(e) => return self.engine_error(req, e),
                };
                let witness = match &verdict {
                    air_core::Verdict::Refuted { witness, .. } => {
                        Some(universe.display_store(witness))
                    }
                    air_core::Verdict::Proved { .. } => None,
                };
                // Each point is rendered once: the report and a repair's
                // `points_detail` share the text.
                let points: Vec<String> = verdict
                    .added_points()
                    .iter()
                    .map(|p| display_set(universe, p))
                    .collect();
                let report = verdict.report_of(universe, &points);
                let points_detail = if req.job == JobKind::Repair {
                    points
                } else {
                    Vec::new()
                };
                Response::Verdict {
                    id: req.id.clone(),
                    job: req.job,
                    proved: verdict.is_proved(),
                    report,
                    points: verdict.added_points().len(),
                    witness,
                    points_detail,
                    warm,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    cache: snapshot(session.cache()),
                    reuse,
                }
            }
            JobKind::Analyze => {
                let counts = match session.alarm_counts(&prog, &pre, &spec) {
                    Ok(c) => c,
                    Err(e) => return self.engine_error(req, e),
                };
                Response::Alarms {
                    id: req.id.clone(),
                    total: counts.total,
                    true_alarms: counts.true_alarms,
                    false_alarms: counts.false_alarms,
                    warm,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    cache: snapshot(session.cache()),
                }
            }
        }
    }

    /// Drops every warm table set after flushing its session
    /// ([`RepairSession::flush`]), so clones still held by in-flight
    /// requests also see empty tables. Returns the number of table sets
    /// flushed.
    pub fn flush(&self) -> usize {
        let mut registry = self.registry.lock().unwrap();
        for session in registry.values() {
            session.flush();
        }
        let flushed = registry.len();
        registry.clear();
        drop(registry);
        self.metrics.set_gauge("air_serve_warm_tables", &[], 0);
        flushed
    }

    /// Refreshes the sampled-at-scrape gauges: warm-table count and
    /// per-table cache hit ratios (in permille, so they stay integers).
    /// The server calls this before answering a `metrics` job or an
    /// exposition scrape; between scrapes the gauges just hold their
    /// last sampled value.
    pub fn refresh_gauges(&self) {
        let registry = self.registry.lock().unwrap();
        self.metrics
            .set_gauge("air_serve_warm_tables", &[], registry.len() as i64);
        for ((vars, domain), session) in registry.iter() {
            let exec = session.cache().exec_stats();
            let closure = session.base().cache_stats();
            for (layer, hits, misses) in [
                ("exec", exec.hits, exec.misses),
                ("closure", closure.hits, closure.misses),
            ] {
                if let Some(permille) = hits.saturating_mul(1000).checked_div(hits + misses) {
                    self.metrics.set_gauge(
                        "air_serve_cache_hit_permille",
                        &[
                            ("vars", vars.as_str()),
                            ("domain", domain),
                            ("layer", layer),
                        ],
                        permille as i64,
                    );
                }
            }
        }
    }

    /// Total engine jobs completed (any status): the sum of
    /// `air_serve_requests_total` over every label set.
    pub fn served(&self) -> u64 {
        self.metrics
            .snapshot()
            .counter_sum("air_serve_requests_total")
    }

    /// Jobs that found their table set already warm: the sum of the
    /// `result="hit"` rows of `air_serve_warm_lookups_total`.
    pub fn warm_hits(&self) -> u64 {
        self.metrics
            .snapshot()
            .counter_sum_where("air_serve_warm_lookups_total", "result", "hit")
    }

    /// The `stats` admin payload: counters, per-tenant spend and one row
    /// per warm table set.
    pub fn stats_json(&self) -> String {
        let mut out = format!(
            "{{\"served\":{},\"warm_hits\":{}",
            self.served(),
            self.warm_hits()
        );
        match self.quotas.limit() {
            Some(limit) => out.push_str(&format!(",\"quota\":{limit}")),
            None => out.push_str(",\"quota\":null"),
        }
        out.push_str(",\"tenants\":{");
        for (i, (tenant, spent)) in self.quotas.rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_str(tenant, &mut out);
            out.push_str(&format!(":{spent}"));
        }
        out.push_str("},\"tables\":[");
        let registry = self.registry.lock().unwrap();
        let mut rows: Vec<(&TableKey, &RepairSession)> = registry.iter().collect();
        rows.sort_by_key(|(key, _)| *key);
        for (i, ((vars, domain), session)) in rows.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"vars\":");
            json::escape_str(vars, &mut out);
            out.push_str(",\"domain\":");
            json::escape_str(domain, &mut out);
            let exec = session.cache().exec_stats();
            let closure = session.base().cache_stats();
            out.push_str(&format!(
                ",\"requests\":{},\"stores\":{},\"exec\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\"closure\":{{\"hits\":{},\"misses\":{},\"entries\":{}}}}}",
                session.requests(),
                session.universe().size(),
                exec.hits,
                exec.misses,
                exec.entries,
                closure.hits,
                closure.misses,
                closure.entries,
            ));
        }
        out.push_str("]}");
        out
    }
}

fn snapshot(sem: &SemCache) -> CacheSnapshot {
    let exec = sem.exec_stats();
    CacheSnapshot {
        exec_hits: exec.hits,
        exec_misses: exec.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use air_core::Verifier;

    fn job(json_text: &str) -> JobRequest {
        match crate::protocol::parse_request(json_text).unwrap() {
            Request::Job(job) => *job,
            other => panic!("expected job, got {other:?}"),
        }
    }

    fn engine() -> ServeEngine {
        ServeEngine::new(None, Tracer::disabled())
    }

    const ABSVAL: &str = r#"{"id":"r1","job":"verify","vars":"x:-8..8",
        "code":"if (x >= 0) then { skip } else { x := 0 - x }",
        "pre":"x != 0","spec":"x != 0"}"#;

    #[test]
    fn verify_proves_and_second_request_is_warm() {
        let eng = engine();
        let req = job(ABSVAL);
        let g = eng.admit(&req).unwrap();
        let first = eng.handle(&req, &g);
        let Response::Verdict {
            proved: true,
            warm: false,
            ref report,
            ..
        } = first
        else {
            panic!("expected cold proved verdict, got {first:?}");
        };
        assert!(report.starts_with("PROVED"));
        let second = eng.handle(&req, &eng.admit(&req).unwrap());
        let Response::Verdict {
            proved: true,
            warm: true,
            report: ref report2,
            ..
        } = second
        else {
            panic!("expected warm proved verdict, got {second:?}");
        };
        // Warm caches must not change the answer, byte for byte.
        assert_eq!(report, report2);
        assert_eq!(eng.served(), 2);
        assert_eq!(eng.warm_hits(), 1);
    }

    #[test]
    fn served_report_is_byte_identical_to_direct_verifier() {
        let eng = engine();
        let req = job(ABSVAL);
        let resp = eng.handle(&req, &eng.admit(&req).unwrap());
        let Response::Verdict { report, .. } = resp else {
            panic!("expected verdict");
        };
        // The CLI path: the same question built from scratch, a fresh
        // verifier and fresh caches.
        let b = req.question.build().unwrap();
        let verdict = Verifier::new(&b.universe)
            .backward(b.domain, &b.program, &b.pre, &b.spec)
            .unwrap();
        assert_eq!(report, verdict.report(&b.universe));
    }

    #[test]
    fn refuted_verdict_carries_witness_and_repair_carries_points() {
        let eng = engine();
        let refute = job(
            r#"{"id":"r2","job":"verify","vars":"x:-8..8","code":"x := x + 1",
               "pre":"x >= 0 && x <= 5","spec":"x <= 3"}"#,
        );
        let resp = eng.handle(&refute, &eng.admit(&refute).unwrap());
        let Response::Verdict {
            proved: false,
            witness: Some(_),
            ..
        } = resp
        else {
            panic!("expected refutation with witness, got {resp:?}");
        };
        let repair = job(r#"{"id":"r3","job":"repair","vars":"x:-8..8",
               "code":"if (x >= 0) then { skip } else { x := 0 - x }",
               "pre":"x != 0","spec":"x != 0"}"#);
        let resp = eng.handle(&repair, &eng.admit(&repair).unwrap());
        let Response::Verdict {
            points,
            points_detail,
            report,
            ..
        } = resp
        else {
            panic!("expected verdict");
        };
        assert!(points > 0);
        assert_eq!(points_detail.len(), points);
        // The points and the report share one rendering; both equal the
        // direct verifier's, byte for byte.
        let b = repair.question.build().unwrap();
        let verdict = Verifier::new(&b.universe)
            .backward(b.domain, &b.program, &b.pre, &b.spec)
            .unwrap();
        let direct: Vec<String> = verdict
            .added_points()
            .iter()
            .map(|p| display_set(&b.universe, p))
            .collect();
        assert_eq!(points_detail, direct);
        assert_eq!(report, verdict.report(&b.universe));
    }

    #[test]
    fn reverify_reports_node_reuse_and_identical_verdicts() {
        let eng = engine();
        let base = job(ABSVAL);
        let Response::Verdict { ref report, .. } = eng.handle(&base, &eng.admit(&base).unwrap())
        else {
            panic!("expected verdict");
        };
        let base_report = report.clone();
        // Resubmitting the unchanged program as `reverify`: full reuse.
        let resubmit = job(&ABSVAL.replace("\"job\":\"verify\"", "\"job\":\"reverify\""));
        let resp = eng.handle(&resubmit, &eng.admit(&resubmit).unwrap());
        let Response::Verdict {
            warm: true,
            reuse: Some(reuse),
            report: ref report2,
            ..
        } = resp
        else {
            panic!("expected warm reverify verdict with reuse, got {resp:?}");
        };
        assert_eq!(reuse.fresh_nodes, 0, "unchanged program: full reuse");
        assert!(reuse.program_nodes > 0);
        assert_eq!(
            &base_report, report2,
            "reverify must not change the verdict"
        );
        // An edited revision pays only its structural distance.
        let edited = job(r#"{"id":"e2","job":"reverify","vars":"x:-8..8",
               "code":"if (x > 0) then { skip } else { x := 0 - x }",
               "pre":"x != 0","spec":"x != 0"}"#);
        let resp = eng.handle(&edited, &eng.admit(&edited).unwrap());
        let Response::Verdict {
            reuse: Some(edit_reuse),
            ..
        } = resp
        else {
            panic!("expected reverify verdict with reuse, got {resp:?}");
        };
        assert!(edit_reuse.fresh_nodes > 0);
        assert!(
            edit_reuse.fresh_nodes < edit_reuse.program_nodes,
            "the unchanged branch must stay warm"
        );
    }

    #[test]
    fn analyze_counts_alarms() {
        let eng = engine();
        let req = job(r#"{"id":"a1","job":"analyze","vars":"x:-8..8",
               "code":"if (x >= 0) then { skip } else { x := 0 - x }",
               "pre":"x != 0","spec":"x != 0"}"#);
        let resp = eng.handle(&req, &eng.admit(&req).unwrap());
        let Response::Alarms {
            total,
            true_alarms,
            false_alarms,
            ..
        } = resp
        else {
            panic!("expected alarms, got {resp:?}");
        };
        assert_eq!(true_alarms, 0);
        assert!(total > 0 && false_alarms == total);
    }

    #[test]
    fn zero_fuel_request_exhausts_with_code_3() {
        let eng = engine();
        let req = job(r#"{"id":"z","job":"verify","vars":"x:0..7","fuel":0,
               "code":"while (x < 7) do { x := x + 1 }","pre":"x = 0","spec":"x = 7"}"#);
        let resp = eng.handle(&req, &eng.admit(&req).unwrap());
        let Response::Error {
            code: 3,
            reason: Some(ref reason),
            ..
        } = resp
        else {
            panic!("expected budget error, got {resp:?}");
        };
        assert_eq!(reason, "fuel");
    }

    #[test]
    fn quota_rejects_at_admission_and_charges_actual_spend() {
        let eng = ServeEngine::new(Some(50), Tracer::disabled());
        let over = job(r#"{"id":"q1","job":"verify","tenant":"t0","fuel":51,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        let resp = eng.admit(&over).unwrap_err();
        let Response::Error {
            code: 3,
            reason: Some(ref reason),
            ..
        } = resp
        else {
            panic!("expected quota rejection, got {resp:?}");
        };
        assert_eq!(reason, "quota");
        // A cheap run charges what it spent, not the cap.
        let cheap = job(r#"{"id":"q2","job":"verify","tenant":"t0",
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        let admitted = eng.admit(&cheap).unwrap();
        let resp = eng.handle(&cheap, &admitted);
        assert!(matches!(resp, Response::Verdict { proved: true, .. }));
        let spent = admitted.governor().spent();
        assert!(spent < 50, "trivial run must not eat the whole quota");
        // Another tenant is unaffected.
        let other = job(r#"{"id":"q3","job":"verify","tenant":"t1","fuel":50,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        assert!(eng.admit(&other).is_ok());
    }

    #[test]
    fn admission_reserves_fuel_until_the_run_settles() {
        let eng = ServeEngine::new(Some(100), Tracer::disabled());
        let declared = job(r#"{"id":"i1","job":"verify","tenant":"t0","fuel":60,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        let inflight = eng.admit(&declared).unwrap();
        // While i1 is in flight its 60 fuel is reserved: a concurrent
        // 60-fuel ask must be rejected, not admitted against the same
        // remainder — and an undeclared ask is capped at what is left.
        let concurrent = job(r#"{"id":"i2","job":"verify","tenant":"t0","fuel":60,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        let resp = eng.admit(&concurrent).unwrap_err();
        let Response::Error {
            code: 3,
            reason: Some(ref reason),
            ..
        } = resp
        else {
            panic!("expected quota rejection, got {resp:?}");
        };
        assert_eq!(reason, "quota");
        // Completing the run releases the reservation and bills only the
        // actual spend, so the concurrent ask now fits.
        let resp = eng.handle(&declared, &inflight);
        assert!(matches!(resp, Response::Verdict { proved: true, .. }));
        let second = eng.admit(&concurrent).unwrap();
        // Settling twice is a no-op: abort/cancel paths may race handle.
        eng.settle(&declared, &inflight);
        eng.settle(&concurrent, &second);
        eng.settle(&concurrent, &second);
        let third = job(r#"{"id":"i3","job":"verify","tenant":"t0",
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        assert!(eng.admit(&third).is_ok());
    }

    #[test]
    fn cancelled_governor_yields_code_3_cancelled() {
        let eng = engine();
        let req = job(r#"{"id":"c1","job":"verify","vars":"x:0..7",
               "code":"while (x < 7) do { x := x + 1 }","pre":"x = 0","spec":"x = 7"}"#);
        let admitted = eng.admit(&req).unwrap();
        admitted.governor().cancel();
        let resp = eng.handle(&req, &admitted);
        let Response::Error {
            code: 3,
            reason: Some(ref reason),
            ..
        } = resp
        else {
            panic!("expected cancellation, got {resp:?}");
        };
        assert_eq!(reason, "cancelled");
    }

    #[test]
    fn usage_errors_carry_code_2() {
        let eng = engine();
        for bad in [
            r#"{"id":"u1","job":"verify","vars":"x:0..1","code":"x := (","pre":"true","spec":"true"}"#,
            r#"{"id":"u2","job":"verify","vars":"x:0..1","code":"skip","pre":"x <","spec":"true"}"#,
            r#"{"id":"u3","job":"verify","vars":"x:5..0","code":"skip","pre":"true","spec":"true"}"#,
        ] {
            let req = job(bad);
            let resp = eng.handle(&req, &eng.admit(&req).unwrap());
            assert!(
                matches!(resp, Response::Error { code: 2, .. }),
                "{bad}: {resp:?}"
            );
        }
    }

    #[test]
    fn flush_resets_warm_state_and_stats_render() {
        let eng = engine();
        let req = job(ABSVAL);
        eng.handle(&req, &eng.admit(&req).unwrap());
        eng.handle(&req, &eng.admit(&req).unwrap());
        let stats = eng.stats_json();
        let doc = json::parse(&stats).unwrap_or_else(|e| panic!("{stats}: {e}"));
        assert_eq!(doc.get("served").and_then(json::Value::as_num), Some(2.0));
        let tables = doc.get("tables").and_then(json::Value::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("vars").and_then(json::Value::as_str),
            Some("x:-8..8")
        );
        assert_eq!(eng.flush(), 1);
        // After a flush the next request is cold again.
        let resp = eng.handle(&req, &eng.admit(&req).unwrap());
        assert!(matches!(resp, Response::Verdict { warm: false, .. }));
    }

    #[test]
    fn metrics_agree_with_stats_counters() {
        // The `stats` counters are sums over the metrics registry, so
        // both are checked against the requests actually sent.
        let eng = ServeEngine::with_metrics(None, Tracer::disabled(), MetricsRegistry::new());
        let warm_req = job(ABSVAL);
        let other = job(r#"{"id":"r9","job":"verify","tenant":"t1","vars":"y:0..3",
               "code":"y := y + 1","pre":"y = 0","spec":"y = 1"}"#);
        for req in [&warm_req, &warm_req, &warm_req, &other] {
            eng.handle(req, &eng.admit(req).unwrap());
        }
        eng.refresh_gauges();
        let snap = eng.metrics().snapshot();
        assert_eq!(eng.served(), 4);
        assert_eq!(eng.warm_hits(), 2);
        assert_eq!(
            snap.gauge("air_serve_warm_tables", &[]),
            Some(2),
            "one table set per (vars, domain) key"
        );
        // Latency histograms split by temperature and cover every run.
        let warm = snap
            .histogram(
                "air_serve_request_duration_ns",
                &[("tenant", "anon"), ("temp", "warm")],
            )
            .expect("warm latency histogram");
        assert_eq!(warm.count, 2);
        let cold_anon = snap
            .histogram(
                "air_serve_request_duration_ns",
                &[("tenant", "anon"), ("temp", "cold")],
            )
            .expect("cold latency histogram");
        let cold_t1 = snap
            .histogram(
                "air_serve_request_duration_ns",
                &[("tenant", "t1"), ("temp", "cold")],
            )
            .expect("t1 cold latency histogram");
        assert_eq!(cold_anon.count + cold_t1.count, 2);
        // Fuel accounting: spend shows up per tenant and every reserve
        // was settled (spent <= reserved, both tenants present).
        let spent = snap.counter_sum("air_serve_fuel_spent_total");
        let reserved = snap.counter_sum("air_serve_fuel_reserved_total");
        assert!(spent > 0, "engine runs burn fuel");
        assert_eq!(reserved, 0, "unlimited quota reserves nothing up front");
    }

    #[test]
    fn quota_rejections_are_counted_per_tenant() {
        let eng = ServeEngine::with_metrics(Some(10), Tracer::disabled(), MetricsRegistry::new());
        let over = job(r#"{"id":"m1","job":"verify","tenant":"t7","fuel":11,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#);
        assert!(eng.admit(&over).is_err());
        assert!(eng.admit(&over).is_err());
        let snap = eng.metrics().snapshot();
        assert_eq!(
            snap.counter(
                "air_serve_rejects_total",
                &[("tenant", "t7"), ("reason", "quota")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter("air_serve_fuel_reserved_total", &[("tenant", "t7")]),
            None,
            "rejected admissions reserve nothing"
        );
    }

    #[test]
    fn admission_and_completion_emit_request_events() {
        use air_trace::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let eng = ServeEngine::new(None, Tracer::new(sink.clone()));
        let req = job(ABSVAL);
        let g = eng.admit(&req).unwrap();
        eng.handle(&req, &g);
        let kinds: Vec<&'static str> = sink.drain().iter().map(|e| e.kind.kind_name()).collect();
        assert!(kinds.contains(&"request_received"), "{kinds:?}");
        assert!(kinds.contains(&"verdict"), "{kinds:?}");
    }
}
