//! Typed trace events.
//!
//! Every observable step of the pipeline — repair iterations, derivation
//! rules, CEGAR refinements, cache traffic — is reported as one
//! [`Event`]: a monotone sequence number, a nanosecond timestamp relative
//! to the tracer's epoch, and a typed [`EventKind`] payload. The JSONL
//! wire format is one object per line with a `kind` discriminant; the
//! set of kinds is closed, and `schemas/trace-event.schema.json` is its
//! one source (the tests below check it against the variants).

use crate::json::escape_str;
use std::fmt::Write as _;

/// One trace record. `seq` orders events within a tracer; `t_ns` is the
/// time since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub t_ns: u64,
    pub kind: EventKind,
}

/// The typed payload of a trace event.
///
/// Kinds map to paper artifacts: `Incompleteness` witnesses a violation
/// of local completeness (Def. 4.1), `ShellPoint` records a pointed-shell
/// addition (Thm. 4.9 / Thm. 4.11), `Widening` a pointed-widening
/// application, and `CegarSplit` a partition refinement (Thm. 6.2 / 6.4).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A named phase began (RAII: paired with `SpanExit`).
    SpanEnter { phase: String },
    /// A named phase ended; `duration_ns` is its wall-clock time.
    SpanExit { phase: String, duration_ns: u64 },
    /// Local incompleteness detected on expression `exp` (Def. 4.1).
    Incompleteness { exp: String, input_size: usize },
    /// A shell point was added to the domain by `rule` (Thm. 4.9/4.11).
    ShellPoint {
        rule: String,
        exp: String,
        point_size: usize,
    },
    /// Pointed widening applied at `site` (backward repair / absint star).
    Widening { site: String },
    /// An LCL_A derivation rule fired (transfer/seq/join/rec/iterate/relax).
    LclRule { rule: String },
    /// One CEGAR iteration over `blocks` partition blocks.
    CegarIteration { iteration: usize, blocks: usize },
    /// A spurious counterexample triggered a refinement.
    CegarRefinement { iteration: usize },
    /// A refinement split blocks (Thm. 6.2/6.4); `blocks` is the new total.
    CegarSplit {
        heuristic: String,
        splits: usize,
        blocks: usize,
    },
    /// Memo-table hit in `table` (exec/wlp/sat/closure/...).
    CacheHit { table: &'static str },
    /// Memo-table miss in `table`.
    CacheMiss { table: &'static str },
    /// A memoization layer was deliberately skipped (e.g. small universe).
    CacheBypass { table: &'static str },
    /// A named monotone counter increment.
    Counter { name: String, delta: u64 },
    /// Final verdict of a phase (`proved`, `refuted`, `true_alarm`, ...).
    Verdict { phase: String, verdict: String },
    /// A resource budget ran out in `phase` after `spent` governed ticks;
    /// `reason` is `fuel`, `deadline` or `cancelled`. The engine returns
    /// its best partial result instead of hanging.
    BudgetExhausted {
        phase: String,
        spent: u64,
        reason: String,
    },
    /// A unit of work was skipped because the run was cancelled (e.g. a
    /// corpus program never started after a sibling exhausted the budget).
    Cancelled { phase: String },
    /// One fuzz case finished: how many oracle violations and pairwise
    /// configuration disagreements it produced (both 0 on a pass).
    FuzzCase {
        seed: u64,
        violations: u64,
        disagreements: u64,
    },
    /// The shrinker minimized a failing fuzz case from `before` to
    /// `after` basic commands.
    FuzzShrink { seed: u64, before: u64, after: u64 },
    /// The fault injector fired a planned fault at a trace-point `site`;
    /// `fault` names the kind (`panic`, `cancel`, `sleep`, `poison`,
    /// `sink_fail`). Soundness of whatever survives is Thm 7.1/7.6.
    FaultInjected { site: String, fault: String },
    /// The supervisor retried a failed (panicked) task; `attempt` is the
    /// 1-based retry number.
    TaskRetried { site: String, attempt: u64 },
    /// A memo-table shard poisoned by a panicking writer was quarantined:
    /// cleared and rebuilt, falling back to uncached evaluation.
    ShardQuarantined { table: &'static str, shard: u64 },
    /// A crash-safe checkpoint was atomically written after `items`
    /// completed units of work.
    CheckpointWritten { path: String, items: u64 },
    /// The serve daemon accepted a request into the admission queue.
    /// `job` is the request kind (`verify`, `analyze`, ...); the field is
    /// not called `kind` because that name is the envelope discriminant.
    RequestReceived {
        id: String,
        job: String,
        tenant: String,
    },
    /// A served request finished; `status` is `ok`, `usage`, `budget`,
    /// `internal` or `cancelled`, and `duration_ns` spans admission to
    /// response (queueing included).
    RequestCompleted {
        id: String,
        status: String,
        duration_ns: u64,
    },
    /// The distributed coordinator spawned a worker process into `shard`
    /// (0-based slot); `pid` is the OS process id.
    WorkerSpawned { shard: u64, pid: u64 },
    /// A lease — the half-open item range `[lo, hi)` of the campaign's
    /// deterministic seed/program space — was issued to `shard`.
    LeaseIssued {
        lease: u64,
        shard: u64,
        lo: u64,
        hi: u64,
    },
    /// A straggler's unfinished tail was resplit: the old lease now ends
    /// at `at` on `from_shard`, and `[at, hi)` was reissued to `to_shard`.
    LeaseStolen {
        lease: u64,
        from_shard: u64,
        to_shard: u64,
        at: u64,
    },
    /// A worker died or hung (`reason` is `exit`, `killed`, `hang` or
    /// `protocol`); its unfinished lease range is reissued from the
    /// shard's last crash-safe checkpoint.
    WorkerLost { shard: u64, reason: String },
    /// The supervisor restarted a lost worker in `shard`; `attempt` is
    /// the 1-based restart number for that slot.
    WorkerRestarted { shard: u64, attempt: u64 },
}

impl EventKind {
    /// The JSONL `kind` discriminant.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::SpanEnter { .. } => "span_enter",
            EventKind::SpanExit { .. } => "span_exit",
            EventKind::Incompleteness { .. } => "incompleteness",
            EventKind::ShellPoint { .. } => "shell_point",
            EventKind::Widening { .. } => "widening",
            EventKind::LclRule { .. } => "lcl_rule",
            EventKind::CegarIteration { .. } => "cegar_iteration",
            EventKind::CegarRefinement { .. } => "cegar_refinement",
            EventKind::CegarSplit { .. } => "cegar_split",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheBypass { .. } => "cache_bypass",
            EventKind::Counter { .. } => "counter",
            EventKind::Verdict { .. } => "verdict",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::Cancelled { .. } => "cancelled",
            EventKind::FuzzCase { .. } => "fuzz_case",
            EventKind::FuzzShrink { .. } => "fuzz_shrink",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::TaskRetried { .. } => "task_retried",
            EventKind::ShardQuarantined { .. } => "shard_quarantined",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::RequestReceived { .. } => "request_received",
            EventKind::RequestCompleted { .. } => "request_completed",
            EventKind::WorkerSpawned { .. } => "worker_spawned",
            EventKind::LeaseIssued { .. } => "lease_issued",
            EventKind::LeaseStolen { .. } => "lease_stolen",
            EventKind::WorkerLost { .. } => "worker_lost",
            EventKind::WorkerRestarted { .. } => "worker_restarted",
        }
    }

    /// Cache traffic is telemetry about *how* a result was obtained, not
    /// *what* was computed: it legitimately differs between cached and
    /// uncached runs of the same program. Determinism tests drop it.
    pub fn is_cache_telemetry(&self) -> bool {
        matches!(
            self,
            EventKind::CacheHit { .. }
                | EventKind::CacheMiss { .. }
                | EventKind::CacheBypass { .. }
        )
    }
}

impl Event {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":",
            self.seq, self.t_ns
        );
        escape_str(self.kind.kind_name(), out);
        match &self.kind {
            EventKind::SpanEnter { phase } => {
                field_str(out, "phase", phase);
            }
            EventKind::SpanExit { phase, duration_ns } => {
                field_str(out, "phase", phase);
                let _ = write!(out, ",\"duration_ns\":{duration_ns}");
            }
            EventKind::Incompleteness { exp, input_size } => {
                field_str(out, "exp", exp);
                let _ = write!(out, ",\"input_size\":{input_size}");
            }
            EventKind::ShellPoint {
                rule,
                exp,
                point_size,
            } => {
                field_str(out, "rule", rule);
                field_str(out, "exp", exp);
                let _ = write!(out, ",\"point_size\":{point_size}");
            }
            EventKind::Widening { site } => {
                field_str(out, "site", site);
            }
            EventKind::LclRule { rule } => {
                field_str(out, "rule", rule);
            }
            EventKind::CegarIteration { iteration, blocks } => {
                let _ = write!(out, ",\"iteration\":{iteration},\"blocks\":{blocks}");
            }
            EventKind::CegarRefinement { iteration } => {
                let _ = write!(out, ",\"iteration\":{iteration}");
            }
            EventKind::CegarSplit {
                heuristic,
                splits,
                blocks,
            } => {
                field_str(out, "heuristic", heuristic);
                let _ = write!(out, ",\"splits\":{splits},\"blocks\":{blocks}");
            }
            EventKind::CacheHit { table }
            | EventKind::CacheMiss { table }
            | EventKind::CacheBypass { table } => {
                field_str(out, "table", table);
            }
            EventKind::Counter { name, delta } => {
                field_str(out, "name", name);
                let _ = write!(out, ",\"delta\":{delta}");
            }
            EventKind::Verdict { phase, verdict } => {
                field_str(out, "phase", phase);
                field_str(out, "verdict", verdict);
            }
            EventKind::BudgetExhausted {
                phase,
                spent,
                reason,
            } => {
                field_str(out, "phase", phase);
                let _ = write!(out, ",\"spent\":{spent}");
                field_str(out, "reason", reason);
            }
            EventKind::Cancelled { phase } => {
                field_str(out, "phase", phase);
            }
            EventKind::FuzzCase {
                seed,
                violations,
                disagreements,
            } => {
                let _ = write!(
                    out,
                    ",\"seed\":{seed},\"violations\":{violations},\"disagreements\":{disagreements}"
                );
            }
            EventKind::FuzzShrink {
                seed,
                before,
                after,
            } => {
                let _ = write!(
                    out,
                    ",\"seed\":{seed},\"before\":{before},\"after\":{after}"
                );
            }
            EventKind::FaultInjected { site, fault } => {
                field_str(out, "site", site);
                field_str(out, "fault", fault);
            }
            EventKind::TaskRetried { site, attempt } => {
                field_str(out, "site", site);
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            EventKind::ShardQuarantined { table, shard } => {
                field_str(out, "table", table);
                let _ = write!(out, ",\"shard\":{shard}");
            }
            EventKind::CheckpointWritten { path, items } => {
                field_str(out, "path", path);
                let _ = write!(out, ",\"items\":{items}");
            }
            EventKind::RequestReceived { id, job, tenant } => {
                field_str(out, "id", id);
                field_str(out, "job", job);
                field_str(out, "tenant", tenant);
            }
            EventKind::RequestCompleted {
                id,
                status,
                duration_ns,
            } => {
                field_str(out, "id", id);
                field_str(out, "status", status);
                let _ = write!(out, ",\"duration_ns\":{duration_ns}");
            }
            EventKind::WorkerSpawned { shard, pid } => {
                let _ = write!(out, ",\"shard\":{shard},\"pid\":{pid}");
            }
            EventKind::LeaseIssued {
                lease,
                shard,
                lo,
                hi,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"shard\":{shard},\"lo\":{lo},\"hi\":{hi}"
                );
            }
            EventKind::LeaseStolen {
                lease,
                from_shard,
                to_shard,
                at,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"from_shard\":{from_shard},\"to_shard\":{to_shard},\"at\":{at}"
                );
            }
            EventKind::WorkerLost { shard, reason } => {
                let _ = write!(out, ",\"shard\":{shard}");
                field_str(out, "reason", reason);
            }
            EventKind::WorkerRestarted { shard, attempt } => {
                let _ = write!(out, ",\"shard\":{shard},\"attempt\":{attempt}");
            }
        }
        out.push('}');
    }
}

fn field_str(out: &mut String, key: &str, value: &str) {
    out.push(',');
    escape_str(key, out);
    out.push(':');
    escape_str(value, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::Schema;
    use std::collections::BTreeSet;

    fn line(kind: EventKind) -> String {
        let mut s = String::new();
        Event {
            seq: 7,
            t_ns: 42,
            kind,
        }
        .to_jsonl(&mut s);
        s
    }

    /// One sample per variant: each renders a line the checked-in schema
    /// accepts, and the variants are exactly the schema's kinds.
    #[test]
    fn every_kind_renders_a_schema_valid_line_and_the_schema_names_them_all() {
        let text = include_str!("../../../schemas/trace-event.schema.json");
        let schema = Schema::parse(text).unwrap();
        let samples = vec![
            EventKind::SpanEnter {
                phase: "verify.backward".into(),
            },
            EventKind::SpanExit {
                phase: "verify.backward".into(),
                duration_ns: 99,
            },
            EventKind::Incompleteness {
                exp: "x := x + 1".into(),
                input_size: 3,
            },
            EventKind::ShellPoint {
                rule: "guard shell (Thm 4.11)".into(),
                exp: "x >= \"0\"".into(),
                point_size: 5,
            },
            EventKind::Widening {
                site: "star".into(),
            },
            EventKind::LclRule {
                rule: "iterate".into(),
            },
            EventKind::CegarIteration {
                iteration: 1,
                blocks: 4,
            },
            EventKind::CegarRefinement { iteration: 1 },
            EventKind::CegarSplit {
                heuristic: "forward-air".into(),
                splits: 2,
                blocks: 6,
            },
            EventKind::CacheHit { table: "exec" },
            EventKind::CacheMiss { table: "exec" },
            EventKind::CacheBypass { table: "exec" },
            EventKind::Counter {
                name: "analysis_runs".into(),
                delta: 1,
            },
            EventKind::Verdict {
                phase: "verify.backward".into(),
                verdict: "proved".into(),
            },
            EventKind::BudgetExhausted {
                phase: "repair.backward".into(),
                spent: 5000,
                reason: "fuel".into(),
            },
            EventKind::Cancelled {
                phase: "corpus.program".into(),
            },
            EventKind::FuzzCase {
                seed: 17,
                violations: 0,
                disagreements: 0,
            },
            EventKind::FuzzShrink {
                seed: 17,
                before: 12,
                after: 3,
            },
            EventKind::FaultInjected {
                site: "repair.backward".into(),
                fault: "panic".into(),
            },
            EventKind::TaskRetried {
                site: "corpus.gauss_sum".into(),
                attempt: 1,
            },
            EventKind::ShardQuarantined {
                table: "exec",
                shard: 3,
            },
            EventKind::CheckpointWritten {
                path: "sweep.ckpt.json".into(),
                items: 50,
            },
            EventKind::RequestReceived {
                id: "req-1".into(),
                job: "verify".into(),
                tenant: "default".into(),
            },
            EventKind::RequestCompleted {
                id: "req-1".into(),
                status: "ok".into(),
                duration_ns: 1234,
            },
            EventKind::WorkerSpawned {
                shard: 0,
                pid: 4242,
            },
            EventKind::LeaseIssued {
                lease: 3,
                shard: 1,
                lo: 96,
                hi: 128,
            },
            EventKind::LeaseStolen {
                lease: 3,
                from_shard: 1,
                to_shard: 0,
                at: 112,
            },
            EventKind::WorkerLost {
                shard: 1,
                reason: "killed".into(),
            },
            EventKind::WorkerRestarted {
                shard: 1,
                attempt: 1,
            },
        ];
        let mut rendered = BTreeSet::new();
        for kind in samples {
            let name = kind.kind_name();
            let line = line(kind);
            let doc = json::parse(&line).expect("valid JSON");
            assert_eq!(schema.check(&doc), Ok(Some(name)), "{line}");
            assert!(rendered.insert(name), "two samples of {name}");
        }
        let doc = json::parse(text).unwrap();
        let variants = doc.get("variants").and_then(json::Value::as_obj).unwrap();
        let kinds: BTreeSet<&str> = variants.keys().map(String::as_str).collect();
        assert_eq!(rendered, kinds);
    }

    #[test]
    fn cache_telemetry_predicate_matches_exactly_the_cache_kinds() {
        let hit = EventKind::CacheHit { table: "t" };
        let span = EventKind::SpanEnter { phase: "p".into() };
        assert!(hit.is_cache_telemetry());
        assert!(!span.is_cache_telemetry());
    }
}
