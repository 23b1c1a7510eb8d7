//! The `air serve` wire protocol (documented operator-side in
//! `SERVING.md`, machine-side in `schemas/serve-request.schema.json` and
//! `schemas/serve-response.schema.json`).
//!
//! Framing is length-prefixed JSON chosen to be typeable over `nc`: each
//! frame is one line holding the decimal byte length of the payload,
//! then exactly that many payload bytes. A newline after the payload is
//! tolerated (the reader skips blank lines before a length line), so
//! `printf '2\n{}\n' | nc HOST PORT` is a valid frame and transcripts
//! stay human-readable.
//!
//! Requests and responses are single JSON objects. Parsing is strict
//! where it guards soundness (unknown jobs, malformed budgets, missing
//! ids are code-2 errors) and lenient where it costs nothing (unknown
//! extra fields are ignored, so clients can round-trip annotations).

use air_trace::json::{self, Value};
use std::fmt;
use std::io::{BufRead, Write};

/// Default cap on a single frame's payload, in bytes. Oversized frames
/// are rejected before any allocation of the payload buffer.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Cap on the length line itself: 20 digits cover `u64::MAX`, plus slack
/// for a `\r` and stray whitespace. A client streaming bytes with no
/// newline is cut off here instead of growing a line buffer without
/// bound.
const MAX_LENGTH_LINE: usize = 32;

/// Why a frame could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-frame (after a length line, before the
    /// payload completed). Clean EOF *between* frames is not an error —
    /// [`read_frame`] returns `Ok(None)` for it.
    Truncated,
    /// The length line or payload was not what the protocol promises.
    Malformed(String),
    /// The declared payload length exceeds the server's frame cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The server's cap.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} byte(s) exceeds the {max}-byte cap")
            }
        }
    }
}

/// Reads one line, byte by byte, capped at [`MAX_LENGTH_LINE`] bytes —
/// no valid length line needs more, and an unbounded `read_line` here
/// would let a newline-free stream exhaust memory despite the frame cap.
/// Returns `Ok(None)` on clean EOF before any byte.
fn read_length_line(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, FrameError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = match r.read(&mut byte) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(FrameError::Malformed(format!(
                    "cannot read length line: {e}"
                )))
            }
        };
        if n == 0 {
            if line.is_empty() {
                return Ok(None);
            }
            // EOF mid-line: hand back what arrived; the caller's parse
            // (and the payload read after it) reports the real problem.
            return Ok(Some(line));
        }
        if byte[0] == b'\n' {
            return Ok(Some(line));
        }
        line.push(byte[0]);
        if line.len() > MAX_LENGTH_LINE {
            return Err(FrameError::Malformed(format!(
                "length line exceeds {MAX_LENGTH_LINE} bytes without a newline"
            )));
        }
    }
}

/// Reads one frame: skips blank lines, reads a decimal length line, then
/// exactly that many payload bytes (which must be UTF-8). Returns
/// `Ok(None)` on clean EOF before a length line.
///
/// # Errors
///
/// [`FrameError`] on truncation, a non-decimal or over-long length line,
/// a non-UTF-8 payload, or a length above `max`.
pub fn read_frame(r: &mut impl BufRead, max: usize) -> Result<Option<String>, FrameError> {
    let len = loop {
        let Some(line) = read_length_line(r)? else {
            return Ok(None);
        };
        let line = String::from_utf8(line)
            .map_err(|_| FrameError::Malformed("length line is not valid UTF-8".into()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        break trimmed.parse::<usize>().map_err(|_| {
            FrameError::Malformed(format!(
                "length line must be a decimal byte count, got `{trimmed}`"
            ))
        })?;
    };
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Malformed(format!("cannot read {len}-byte payload: {e}"))
        }
    })?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| FrameError::Malformed("payload is not valid UTF-8".into()))
}

/// Writes one frame (`LEN\nPAYLOAD\n`) and flushes, so responses reach
/// clients that block on a reply before sending their next request.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    write!(w, "{}\n{}\n", payload.len(), payload)?;
    w.flush()
}

/// The engine-backed job kinds a request can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Prove or refute `⟦code⟧pre ≤ spec` (the `air verify` path).
    Verify,
    /// Count alarms of the unrepaired analysis (the `air analyze` path).
    Analyze,
    /// Verify and additionally return the repaired domain's added points.
    Repair,
    /// Incrementally re-verify an edited revision against the tenant's
    /// warm tables (the `air repair --edit` path): the verdict is
    /// byte-identical to `verify`, and the response reports how many of
    /// the program's nodes were already warm.
    Reverify,
}

impl JobKind {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Verify => "verify",
            JobKind::Analyze => "analyze",
            JobKind::Repair => "repair",
            JobKind::Reverify => "reverify",
        }
    }
}

/// A parsed engine job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Client-chosen request id, echoed on the response.
    pub id: String,
    /// Which engine to run.
    pub job: JobKind,
    /// Quota accounting key (default `"anon"`).
    pub tenant: String,
    /// Queue priority; higher runs first, ties are FIFO (default 0).
    pub priority: i64,
    /// Variable declarations, parsed from the CLI's `--vars` syntax.
    pub vars: Vec<(String, i64, i64)>,
    /// Program source (the Imp-like surface syntax).
    pub code: String,
    /// Precondition source (default `"true"`).
    pub pre: String,
    /// Specification source.
    pub spec: String,
    /// Base domain name (same names as the CLI's `--domain`).
    pub domain: String,
    /// `"backward"` (default) or `"forward"`.
    pub strategy: String,
    /// Per-request fuel budget.
    pub fuel: Option<u64>,
    /// Per-request wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// A parsed request: an engine job or a control-plane action.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `verify` / `analyze` / `repair`.
    Job(Box<JobRequest>),
    /// Liveness probe; answered inline with `"pong"`.
    Ping {
        /// Request id.
        id: String,
    },
    /// Warm-cache and quota statistics as a JSON payload.
    Stats {
        /// Request id.
        id: String,
    },
    /// A full metrics snapshot (`schemas/metrics-snapshot.schema.json`)
    /// as a JSON payload — the wire-protocol sibling of the
    /// `--metrics-addr` Prometheus exposition.
    Metrics {
        /// Request id.
        id: String,
    },
    /// Drop every warm table (memo, interner, semantic caches).
    Flush {
        /// Request id.
        id: String,
    },
    /// Cooperatively cancel an in-flight or queued request by id.
    /// Tenant-scoped: only reaches a job whose request declared the
    /// same `tenant`.
    Cancel {
        /// Request id.
        id: String,
        /// Tenant owning the target request (default `"anon"`).
        tenant: String,
        /// The id of the request to cancel.
        target: String,
    },
    /// Stop accepting work, drain the queue, exit.
    Shutdown {
        /// Request id.
        id: String,
    },
}

/// A request that could not be accepted; `code` follows the CLI exit-code
/// taxonomy (2 usage, 3 budget, 4 internal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Error code (the `air` exit-code taxonomy as wire codes).
    pub code: u8,
    /// Human-readable message.
    pub message: String,
}

impl ProtoError {
    fn usage(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: 2,
            message: message.into(),
        }
    }
}

/// Parses the CLI's `--vars` syntax (`"x:-8..8,y:0..20"`).
///
/// # Errors
///
/// A human-readable message for empty or malformed declarations.
pub fn parse_vars(spec: &str) -> Result<Vec<(String, i64, i64)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, range) = part
            .split_once(':')
            .ok_or_else(|| format!("variable `{part}` lacks `:lo..hi`"))?;
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| format!("range `{range}` lacks `..`"))?;
        let lo: i64 = lo
            .trim()
            .parse()
            .map_err(|_| format!("bad lower bound `{lo}`"))?;
        let hi: i64 = hi
            .trim()
            .parse()
            .map_err(|_| format!("bad upper bound `{hi}`"))?;
        out.push((name.trim().to_owned(), lo, hi));
    }
    if out.is_empty() {
        return Err("`vars` declared no variables".into());
    }
    Ok(out)
}

fn get_str(doc: &Value, key: &str) -> Option<String> {
    doc.get(key).and_then(Value::as_str).map(str::to_owned)
}

fn get_u64(doc: &Value, key: &str) -> Result<Option<u64>, ProtoError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(ProtoError::usage(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

/// Parses one request frame.
///
/// # Errors
///
/// [`ProtoError`] (code 2) for non-JSON payloads, missing/empty `id`,
/// unknown `job` values and malformed fields.
pub fn parse_request(text: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(text.trim())
        .map_err(|e| ProtoError::usage(format!("request is not valid JSON: {e}")))?;
    if doc.as_obj().is_none() {
        return Err(ProtoError::usage("request must be a JSON object"));
    }
    let id = get_str(&doc, "id").unwrap_or_default();
    if id.is_empty() {
        return Err(ProtoError::usage(
            "request lacks a non-empty string `id` field",
        ));
    }
    let job = get_str(&doc, "job")
        .ok_or_else(|| ProtoError::usage("request lacks a string `job` field"))?;
    let kind = match job.as_str() {
        "ping" => return Ok(Request::Ping { id }),
        "stats" => return Ok(Request::Stats { id }),
        "metrics" => return Ok(Request::Metrics { id }),
        "flush" => return Ok(Request::Flush { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "cancel" => {
            let target = get_str(&doc, "target")
                .filter(|t| !t.is_empty())
                .ok_or_else(|| {
                    ProtoError::usage("`cancel` requires a non-empty string `target` field")
                })?;
            return Ok(Request::Cancel {
                id,
                tenant: get_str(&doc, "tenant").unwrap_or_else(|| "anon".into()),
                target,
            });
        }
        "verify" => JobKind::Verify,
        "analyze" => JobKind::Analyze,
        "repair" => JobKind::Repair,
        "reverify" => JobKind::Reverify,
        other => {
            return Err(ProtoError::usage(format!(
                "unknown job `{other}` (known: verify, analyze, repair, reverify, ping, stats, metrics, flush, cancel, shutdown)"
            )))
        }
    };
    let vars_spec =
        get_str(&doc, "vars").ok_or_else(|| ProtoError::usage("job lacks a `vars` field"))?;
    let vars = parse_vars(&vars_spec).map_err(ProtoError::usage)?;
    let code =
        get_str(&doc, "code").ok_or_else(|| ProtoError::usage("job lacks a `code` field"))?;
    let spec =
        get_str(&doc, "spec").ok_or_else(|| ProtoError::usage("job lacks a `spec` field"))?;
    let strategy = get_str(&doc, "strategy").unwrap_or_else(|| "backward".into());
    if strategy != "backward" && strategy != "forward" {
        return Err(ProtoError::usage(format!(
            "unknown strategy `{strategy}` (backward or forward)"
        )));
    }
    let priority = match doc.get("priority") {
        None | Some(Value::Null) => 0,
        Some(Value::Num(n)) if n.fract() == 0.0 => *n as i64,
        Some(_) => return Err(ProtoError::usage("`priority` must be an integer")),
    };
    Ok(Request::Job(Box::new(JobRequest {
        id,
        job: kind,
        tenant: get_str(&doc, "tenant").unwrap_or_else(|| "anon".into()),
        priority,
        vars,
        code,
        pre: get_str(&doc, "pre").unwrap_or_else(|| "true".into()),
        spec,
        domain: get_str(&doc, "domain").unwrap_or_else(|| "int".into()),
        strategy,
        fuel: get_u64(&doc, "fuel")?,
        timeout_ms: get_u64(&doc, "timeout_ms")?,
    })))
}

/// Node-reuse accounting echoed on `reverify` verdicts: how much of the
/// submitted revision was already interned in the tenant's warm tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseSnapshot {
    /// Distinct structural nodes in the submitted program.
    pub program_nodes: usize,
    /// Nodes this request added to the warm arena (the structural
    /// distance of the edit; `0` for a resubmitted program).
    pub fresh_nodes: usize,
}

/// Semantic-cache counters echoed on every engine response, cumulative
/// for the warm table the request hit — the load generator derives the
/// hit-rate-over-time curve from consecutive snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Cumulative exec-table hits.
    pub exec_hits: u64,
    /// Cumulative exec-table misses.
    pub exec_misses: u64,
}

/// One response frame, rendered by [`Response::to_json`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed `verify`/`repair` job.
    Verdict {
        /// Echoed request id.
        id: String,
        /// Which job produced this.
        job: JobKind,
        /// `true` for PROVED.
        proved: bool,
        /// The human-readable report, byte-identical to the `air verify`
        /// CLI report for the same inputs.
        report: String,
        /// Number of points repair added.
        points: usize,
        /// Refutation witness store, when refuted.
        witness: Option<String>,
        /// Rendered added points (`repair` jobs only).
        points_detail: Vec<String>,
        /// Whether the request hit a pre-warmed table set.
        warm: bool,
        /// Engine wall time.
        duration_ns: u64,
        /// Cumulative cache counters of the warm table.
        cache: CacheSnapshot,
        /// Node-reuse accounting (`reverify` jobs only).
        reuse: Option<ReuseSnapshot>,
    },
    /// A completed `analyze` job.
    Alarms {
        /// Echoed request id.
        id: String,
        /// Stores flagged by the abstract analysis.
        total: usize,
        /// Concretely reachable violations.
        true_alarms: usize,
        /// Spurious flags.
        false_alarms: usize,
        /// Whether the request hit a pre-warmed table set.
        warm: bool,
        /// Engine wall time.
        duration_ns: u64,
        /// Cumulative cache counters of the warm table.
        cache: CacheSnapshot,
    },
    /// A completed control-plane action.
    Ok {
        /// Echoed request id.
        id: String,
        /// What happened (`"pong"`, `"flushed 3 table set(s)"`, ...).
        detail: String,
        /// Pre-rendered JSON payload (`stats` only).
        stats: Option<String>,
    },
    /// A failed request; `code` follows the CLI exit-code taxonomy.
    Error {
        /// Echoed request id (empty when the frame had none).
        id: String,
        /// 2 usage, 3 budget/quota, 4 internal.
        code: u8,
        /// Human-readable message.
        message: String,
        /// Engine phase that tripped (budget errors).
        phase: Option<String>,
        /// Fuel spent when the run stopped (budget errors).
        spent: Option<u64>,
        /// `"fuel"`, `"deadline"`, `"cancelled"` or `"quota"`.
        reason: Option<String>,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Verdict { id, .. }
            | Response::Alarms { id, .. }
            | Response::Ok { id, .. }
            | Response::Error { id, .. } => id,
        }
    }

    /// The wire `status` value.
    pub fn status(&self) -> &'static str {
        match self {
            Response::Verdict { proved: true, .. } => "proved",
            Response::Verdict { proved: false, .. } => "refuted",
            Response::Alarms { total: 0, .. } => "clean",
            Response::Alarms { .. } => "alarms",
            Response::Ok { .. } => "ok",
            Response::Error { .. } => "error",
        }
    }

    /// Maps a response onto the completion-status taxonomy shared by
    /// `request_completed` trace events and the
    /// `air_serve_requests_total{status=...}` metric label: `ok` for any
    /// successful frame, and `usage` / `budget` / `cancelled` /
    /// `internal` following the error-code taxonomy.
    pub fn status_name(&self) -> &'static str {
        match self {
            Response::Error { code: 2, .. } => "usage",
            Response::Error {
                code: 3,
                reason: Some(r),
                ..
            } if r == "cancelled" => "cancelled",
            Response::Error { code: 3, .. } => "budget",
            Response::Error { .. } => "internal",
            _ => "ok",
        }
    }

    /// Whether the request hit a pre-warmed table set — `Some` only for
    /// engine verdicts, which are the frames that carry a `warm` field.
    /// Drives the `temp` label of the request-latency histogram.
    pub fn warm_flag(&self) -> Option<bool> {
        match self {
            Response::Verdict { warm, .. } | Response::Alarms { warm, .. } => Some(*warm),
            _ => None,
        }
    }

    /// Renders the single-line JSON wire form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        json::escape_str(self.id(), &mut out);
        out.push_str(",\"status\":\"");
        out.push_str(self.status());
        out.push('"');
        match self {
            Response::Verdict {
                job,
                report,
                points,
                witness,
                points_detail,
                warm,
                duration_ns,
                cache,
                reuse,
                ..
            } => {
                out.push_str(&format!(",\"job\":\"{}\",\"report\":", job.name()));
                json::escape_str(report, &mut out);
                out.push_str(&format!(
                    ",\"points\":{points},\"warm\":{warm},\"duration_ns\":{duration_ns}"
                ));
                push_cache(&mut out, cache);
                if let Some(r) = reuse {
                    out.push_str(&format!(
                        ",\"reuse\":{{\"program_nodes\":{},\"fresh_nodes\":{},\"reused_nodes\":{}}}",
                        r.program_nodes,
                        r.fresh_nodes,
                        r.program_nodes - r.fresh_nodes
                    ));
                }
                if let Some(w) = witness {
                    out.push_str(",\"witness\":");
                    json::escape_str(w, &mut out);
                }
                if *job == JobKind::Repair {
                    out.push_str(",\"points_detail\":[");
                    for (i, p) in points_detail.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        json::escape_str(p, &mut out);
                    }
                    out.push(']');
                }
            }
            Response::Alarms {
                total,
                true_alarms,
                false_alarms,
                warm,
                duration_ns,
                cache,
                ..
            } => {
                out.push_str(&format!(
                    ",\"job\":\"analyze\",\"alarms\":{{\"total\":{total},\"true\":{true_alarms},\"false\":{false_alarms}}},\"warm\":{warm},\"duration_ns\":{duration_ns}"
                ));
                push_cache(&mut out, cache);
            }
            Response::Ok { detail, stats, .. } => {
                out.push_str(",\"detail\":");
                json::escape_str(detail, &mut out);
                if let Some(stats) = stats {
                    out.push_str(",\"stats\":");
                    out.push_str(stats);
                }
            }
            Response::Error {
                code,
                message,
                phase,
                spent,
                reason,
                ..
            } => {
                out.push_str(&format!(",\"error\":{{\"code\":{code},\"message\":"));
                json::escape_str(message, &mut out);
                if let Some(phase) = phase {
                    out.push_str(",\"phase\":");
                    json::escape_str(phase, &mut out);
                }
                if let Some(spent) = spent {
                    out.push_str(&format!(",\"spent\":{spent}"));
                }
                if let Some(reason) = reason {
                    out.push_str(",\"reason\":");
                    json::escape_str(reason, &mut out);
                }
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

fn push_cache(out: &mut String, cache: &CacheSnapshot) {
    out.push_str(&format!(
        ",\"cache\":{{\"exec_hits\":{},\"exec_misses\":{}}}",
        cache.exec_hits, cache.exec_misses
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_trace::Schema;
    use std::io::Cursor;

    const REQUEST_SCHEMA: &str = include_str!("../../../schemas/serve-request.schema.json");
    const RESPONSE_SCHEMA: &str = include_str!("../../../schemas/serve-response.schema.json");

    /// Panics unless `text` passes the checked-in `schema`.
    fn conforms(schema: &str, text: &str) {
        let doc = json::parse(text).unwrap();
        if let Err(e) = Schema::parse(schema).unwrap().check(&doc) {
            panic!("{text}: {e}");
        }
    }

    /// [`parse_request`], checking that every request it accepts also
    /// passes the request schema.
    fn parse(text: &str) -> Result<Request, ProtoError> {
        let req = parse_request(text);
        if req.is_ok() {
            conforms(REQUEST_SCHEMA, text);
        }
        req
    }

    fn frame(payload: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip_including_blank_separators() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame("{\"a\":1}"));
        stream.extend_from_slice(b"\n\n");
        stream.extend_from_slice(&frame("payload — π"));
        let mut r = Cursor::new(stream);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("payload — π")
        );
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn bad_length_truncation_and_oversize_are_structured_errors() {
        let mut r = Cursor::new(b"xyz\n".to_vec());
        assert!(matches!(
            read_frame(&mut r, 100),
            Err(FrameError::Malformed(_))
        ));
        let mut r = Cursor::new(b"10\nshort".to_vec());
        assert_eq!(read_frame(&mut r, 100), Err(FrameError::Truncated));
        let mut r = Cursor::new(b"101\n".to_vec());
        assert_eq!(
            read_frame(&mut r, 100),
            Err(FrameError::Oversized { len: 101, max: 100 })
        );
        let mut r = Cursor::new(vec![b'2', b'\n', 0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut r, 100),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn newline_free_stream_errors_at_the_length_line_cap() {
        // A client streaming bytes with no newline must be rejected at
        // MAX_LENGTH_LINE, not buffered without bound: only the first
        // cap-plus-one bytes of this 4 KiB stream are ever read.
        let mut r = Cursor::new(vec![b'9'; 4096]);
        let err = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        assert!(
            (r.position() as usize) <= MAX_LENGTH_LINE + 1,
            "read {} bytes past the cap",
            r.position()
        );
        // Same for an endless run of blank padding.
        let mut r = Cursor::new(vec![b' '; 4096]);
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Malformed(_))
        ));
        // A length line at the cap still parses fine.
        let mut stream = vec![b' '; MAX_LENGTH_LINE - 1];
        stream.push(b'2');
        stream.extend_from_slice(b"\n{}");
        let mut r = Cursor::new(stream);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("{}")
        );
    }

    #[test]
    fn parses_a_full_verify_request() {
        let req = parse(
            r#"{"id":"r1","job":"verify","tenant":"t0","priority":5,
               "vars":"x:-8..8","code":"x := x + 1","pre":"x = 0","spec":"x = 1",
               "domain":"oct","strategy":"forward","fuel":500,"timeout_ms":2000}"#,
        )
        .unwrap();
        let Request::Job(job) = req else {
            panic!("expected job");
        };
        assert_eq!(job.id, "r1");
        assert_eq!(job.job, JobKind::Verify);
        assert_eq!(job.tenant, "t0");
        assert_eq!(job.priority, 5);
        assert_eq!(job.vars, vec![("x".to_string(), -8, 8)]);
        assert_eq!(job.domain, "oct");
        assert_eq!(job.strategy, "forward");
        assert_eq!(job.fuel, Some(500));
        assert_eq!(job.timeout_ms, Some(2000));
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let Request::Job(job) =
            parse(r#"{"id":"r2","job":"repair","vars":"x:0..3","code":"skip","spec":"true"}"#)
                .unwrap()
        else {
            panic!("expected job");
        };
        assert_eq!(job.tenant, "anon");
        assert_eq!(job.priority, 0);
        assert_eq!(job.pre, "true");
        assert_eq!(job.domain, "int");
        assert_eq!(job.strategy, "backward");
        assert_eq!(job.fuel, None);
    }

    #[test]
    fn admin_requests_parse() {
        assert_eq!(
            parse(r#"{"id":"p","job":"ping"}"#).unwrap(),
            Request::Ping { id: "p".into() }
        );
        assert_eq!(
            parse(r#"{"id":"c","job":"cancel","target":"r9"}"#).unwrap(),
            Request::Cancel {
                id: "c".into(),
                tenant: "anon".into(),
                target: "r9".into()
            }
        );
        assert_eq!(
            parse(r#"{"id":"c","job":"cancel","tenant":"t0","target":"r9"}"#).unwrap(),
            Request::Cancel {
                id: "c".into(),
                tenant: "t0".into(),
                target: "r9".into()
            }
        );
        for job in ["stats", "flush", "shutdown"] {
            assert!(parse(&format!("{{\"id\":\"x\",\"job\":\"{job}\"}}")).is_ok());
        }
    }

    #[test]
    fn rejections_carry_usage_code() {
        for bad in [
            "not json",
            "[]",
            r#"{"job":"ping"}"#,
            r#"{"id":"","job":"ping"}"#,
            r#"{"id":"x"}"#,
            r#"{"id":"x","job":"transmogrify"}"#,
            r#"{"id":"x","job":"cancel"}"#,
            r#"{"id":"x","job":"verify"}"#,
            r#"{"id":"x","job":"verify","vars":"x","code":"skip","spec":"true"}"#,
            r#"{"id":"x","job":"verify","vars":"x:0..1","code":"skip","spec":"true","strategy":"sideways"}"#,
            r#"{"id":"x","job":"verify","vars":"x:0..1","code":"skip","spec":"true","fuel":-3}"#,
            r#"{"id":"x","job":"verify","vars":"x:0..1","code":"skip","spec":"true","priority":1.5}"#,
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.code, 2, "{bad}: {}", err.message);
        }
    }

    #[test]
    fn responses_render_parseable_json_with_status() {
        let responses = [
            Response::Verdict {
                id: "r1".into(),
                job: JobKind::Repair,
                proved: true,
                report: "PROVED\n  point 1: {x ∈ [0,1]}\n".into(),
                points: 1,
                witness: None,
                points_detail: vec!["{x ∈ [0,1]}".into()],
                warm: true,
                duration_ns: 1234,
                cache: CacheSnapshot {
                    exec_hits: 3,
                    exec_misses: 4,
                },
                reuse: None,
            },
            Response::Alarms {
                id: "r2".into(),
                total: 2,
                true_alarms: 1,
                false_alarms: 1,
                warm: false,
                duration_ns: 5,
                cache: CacheSnapshot::default(),
            },
            Response::Ok {
                id: "r3".into(),
                detail: "pong".into(),
                stats: Some("{\"served\":0}".into()),
            },
            Response::Error {
                id: "r4".into(),
                code: 3,
                message: "budget exhausted".into(),
                phase: Some("repair.backward".into()),
                spent: Some(17),
                reason: Some("fuel".into()),
            },
        ];
        for (resp, status) in responses.iter().zip(["proved", "alarms", "ok", "error"]) {
            let line = resp.to_json();
            conforms(RESPONSE_SCHEMA, &line);
            let doc = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(doc.get("status").and_then(Value::as_str), Some(status));
            assert_eq!(doc.get("id").and_then(Value::as_str), Some(resp.id()));
        }
    }

    #[test]
    fn refuted_and_clean_statuses() {
        let refuted = Response::Verdict {
            id: "a".into(),
            job: JobKind::Verify,
            proved: false,
            report: "REFUTED\n".into(),
            points: 0,
            witness: Some("{x → 5}".into()),
            points_detail: vec![],
            warm: false,
            duration_ns: 0,
            cache: CacheSnapshot::default(),
            reuse: None,
        };
        assert_eq!(refuted.status(), "refuted");
        conforms(RESPONSE_SCHEMA, &refuted.to_json());
        let doc = json::parse(&refuted.to_json()).unwrap();
        assert_eq!(doc.get("witness").and_then(Value::as_str), Some("{x → 5}"));
        let clean = Response::Alarms {
            id: "b".into(),
            total: 0,
            true_alarms: 0,
            false_alarms: 0,
            warm: true,
            duration_ns: 0,
            cache: CacheSnapshot::default(),
        };
        assert_eq!(clean.status(), "clean");
        conforms(RESPONSE_SCHEMA, &clean.to_json());
    }

    #[test]
    fn reverify_parses_and_renders_reuse() {
        let req =
            parse(r#"{"id":"e1","job":"reverify","vars":"x:0..3","code":"skip","spec":"true"}"#)
                .unwrap();
        let Request::Job(job) = req else {
            panic!("expected a job");
        };
        assert_eq!(job.job, JobKind::Reverify);
        assert_eq!(job.job.name(), "reverify");
        let resp = Response::Verdict {
            id: "e1".into(),
            job: JobKind::Reverify,
            proved: true,
            report: "PROVED\n".into(),
            points: 0,
            witness: None,
            points_detail: vec![],
            warm: true,
            duration_ns: 9,
            cache: CacheSnapshot::default(),
            reuse: Some(ReuseSnapshot {
                program_nodes: 8,
                fresh_nodes: 3,
            }),
        };
        conforms(RESPONSE_SCHEMA, &resp.to_json());
        let doc = json::parse(&resp.to_json()).unwrap();
        assert_eq!(doc.get("job").and_then(Value::as_str), Some("reverify"));
        let reuse = doc.get("reuse").expect("reuse object");
        assert_eq!(
            reuse.get("program_nodes").and_then(Value::as_num),
            Some(8.0)
        );
        assert_eq!(reuse.get("fresh_nodes").and_then(Value::as_num), Some(3.0));
        assert_eq!(reuse.get("reused_nodes").and_then(Value::as_num), Some(5.0));
    }

    #[test]
    fn request_schema_domains_are_the_registry_names() {
        let doc = json::parse(REQUEST_SCHEMA).unwrap();
        let domains = ["properties", "domain", "enum"]
            .iter()
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(Value::as_arr)
            .unwrap();
        let names: Vec<&str> = domains.iter().filter_map(Value::as_str).collect();
        assert_eq!(names, air_lang::gen::DOMAIN_NAMES);
    }
}
