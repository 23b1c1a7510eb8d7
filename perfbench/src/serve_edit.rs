//! `serve-edit`: an in-process `air serve` TCP server with one worker
//! per core, driven closed-loop by one client connection per core. Each
//! client sends its next request only after the reply to the previous
//! one arrives, as an IDE or CI caller does.
//!
//! The seeded stream mixes `verify`, `analyze` and `repair` requests over
//! twelve `(vars, domain)` table sets; about a third are `reverify`
//! single-statement edits of a table set's program. Set-up starts the
//! server and warms every table set with its base program. The traced
//! run times the round-trip per request, then replays the same stream
//! in-process through the engine's public calls, one span per stage.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use air::fuzz::diff::skip_one_statement;
use air::lang::parse_program;
use air::serve::protocol::{parse_request, read_frame, write_frame, DEFAULT_MAX_FRAME};
use air::serve::{start, Request, Response, RunningServer, ServeConfig, ServeEngine};
use air::trace::json::{self, Value};
use air::trace::{MetricsBridge, Tracer};
use air_metrics::MetricsRegistry;

use crate::harness::{self, Config, Counts, Outcome, Pass, Workload};
use crate::measure::{Probe, Recorder, Rng};
use crate::oneshot::{Family, KnownAnswers, Question};

/// Requests, over all rounds, per second of `--seconds`.
const REQUESTS_PER_SECOND: f64 = 800.0;

/// Rounds per run: each starts a fresh server and drives a stream of
/// its own.
const ROUNDS: usize = 5;

/// The table-set families and the scale range each is spread over;
/// each family is served on two bases, so twelve table sets in all.
const FAMILIES: &[(Family, i64, i64)] = &[
    (Family::Absval, 6000, 12000),
    (Family::Division, 16, 22),
    (Family::Gauss, 10, 13),
    (Family::NondetWalk, 35, 50),
    (Family::TwoPhase, 9, 12),
    (Family::Unbounded, 20, 26),
];
const DOMAINS: &[&str] = &["int", "oct"];

/// Worker threads and client connections: one per core, at most four.
fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// One request of the stream: its wire text and what it asks.
#[derive(Clone, Debug)]
struct Req {
    text: String,
    question: Question,
    analyze: bool,
}

fn vars_text(vars: &[(String, i64, i64)]) -> String {
    vars.iter()
        .map(|(n, lo, hi)| format!("{n}:{lo}..{hi}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn request(id: &str, job: &str, domain: &str, q: Question) -> Req {
    let analyze = job == "analyze";
    let mut text = format!("{{\"id\":{},\"job\":\"{job}\",\"vars\":", json::str_lit(id));
    text.push_str(&json::str_lit(&vars_text(&q.vars)));
    for (key, value) in [("code", &q.code), ("pre", &q.pre), ("spec", &q.spec)] {
        text.push_str(&format!(",\"{key}\":{}", json::str_lit(value)));
    }
    text.push_str(&format!(",\"domain\":\"{domain}\"}}"));
    Req {
        text,
        question: q,
        analyze,
    }
}

/// The warm-up requests (one base-program `verify` per table set) and
/// the measured stream.
fn stream(seed: u64, round: usize, requests: usize) -> Result<(Vec<Req>, Vec<Req>), String> {
    let mut rng = Rng::for_round(seed, round);
    let mut sets = Vec::new();
    for &(family, lo, hi) in FAMILIES {
        let scales = rng.spread(lo, hi, DOMAINS.len(), 0, 1);
        for (domain, k) in DOMAINS.iter().zip(scales) {
            sets.push((family, *domain, k));
        }
    }
    let warmup = sets
        .iter()
        .enumerate()
        .map(|(i, &(family, domain, k))| {
            request(
                &format!("w{i}"),
                "verify",
                domain,
                family.instance(k, false),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        let (family, domain, k) = sets[rng.below(sets.len() as u64) as usize];
        let wrong = rng.below(3) == 0;
        let id = format!("r{i}");
        let roll = rng.below(100);
        let req = if roll < 30 {
            request(&id, "verify", domain, family.instance(k, wrong))
        } else if roll < 45 {
            request(&id, "repair", domain, family.instance(k, false))
        } else if roll < 65 {
            request(&id, "analyze", domain, family.instance(k, wrong))
        } else {
            let mut q = family.instance(k, false);
            let prog = parse_program(&q.code).map_err(|e| e.to_string())?;
            q.code = skip_one_statement(&prog, rng.next_u64()).to_source();
            request(&id, "reverify", domain, q)
        };
        out.push(req);
    }
    Ok((warmup, out))
}

/// The part of a response the known-answer check reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reply {
    Verdict { proved: bool },
    Alarms { total: usize, true_alarms: usize },
    Error,
}

impl Reply {
    fn of(response: &Response) -> Reply {
        match response {
            Response::Verdict { proved, .. } => Reply::Verdict { proved: *proved },
            Response::Alarms {
                total, true_alarms, ..
            } => Reply::Alarms {
                total: *total,
                true_alarms: *true_alarms,
            },
            Response::Ok { .. } | Response::Error { .. } => Reply::Error,
        }
    }

    /// Reads a response frame. Its fields are scanned, not parsed: a
    /// report can be large, and every quote inside it is escaped, so the
    /// first `"status":"` and `"alarms":{` are the frame's own.
    fn parse(text: &str) -> Reply {
        let after = |key: &str| text.find(key).map(|at| &text[at + key.len()..]);
        let number = |key: &str| -> Option<usize> {
            let rest = after(key)?;
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let status = after("\"status\":\"").and_then(|rest| rest.split('"').next());
        match status {
            Some("proved") => Reply::Verdict { proved: true },
            Some("refuted") => Reply::Verdict { proved: false },
            Some("clean" | "alarms") => match (number("\"total\":"), number("\"true\":")) {
                (Some(total), Some(true_alarms)) => Reply::Alarms { total, true_alarms },
                _ => Reply::Error,
            },
            _ => Reply::Error,
        }
    }
}

/// Checks one reply against `known`; `Ok(false)` is a failed operation
/// (an error frame), `Err` a wrong answer.
fn check(known: &mut KnownAnswers, req: &Req, reply: Reply) -> Result<bool, String> {
    if reply == Reply::Error {
        return Ok(false);
    }
    let violations = known.violations(&req.question)?;
    let ok = match reply {
        Reply::Alarms { total, true_alarms } => {
            req.analyze && true_alarms == violations && total >= true_alarms
        }
        Reply::Verdict { proved } => !req.analyze && proved == (violations == 0),
        Reply::Error => false,
    };
    if ok {
        Ok(true)
    } else {
        Err(format!(
            "request `{}`: reply {reply:?} disagrees with the concrete semantics ({violations} violating stores)",
            req.text
        ))
    }
}

/// A running server; stopped and drained on drop.
struct Server(Option<RunningServer>);

impl Server {
    fn addr(&self) -> Result<SocketAddr, String> {
        self.0
            .as_ref()
            .and_then(RunningServer::addr)
            .ok_or_else(|| "server has no TCP address".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.stop();
            // Aborted jobs already answered with code-4 frames, which
            // the pass counted as failed operations.
            server.join();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    fn call(&mut self, text: &str) -> Result<String, String> {
        write_frame(&mut self.writer, text).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "connection closed".to_string())
    }
}

/// A started server with its table sets warm.
pub struct Warm {
    server: Server,
    stream: Vec<Req>,
    warmup: Vec<Req>,
    /// Each stream request's reply once the pass ran (`None`: dropped).
    replies: Vec<Option<String>>,
}

/// Drives the stream closed-loop over one connection per core. Each
/// client records its round-trips and, between a reply and its next
/// request, runs its probe once; a dropped connection fails the rest of
/// that client's requests.
fn drive(
    warm: &Warm,
    probes: &mut [Probe],
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<Vec<Option<String>>, String> {
    let addr = warm.server.addr()?;
    let clients = probes.len();
    let n = warm.stream.len();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .iter_mut()
            .enumerate()
            .map(|(c, probe)| {
                let mut rec = rec.fork();
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    for i in (c..n).step_by(clients) {
                        let t0 = Instant::now();
                        let reply = client
                            .as_mut()
                            .and_then(|cl| cl.call(&warm.stream[i].text).ok());
                        let t1 = Instant::now();
                        rec.record("serve.rtt", i as u64, t0, t1);
                        if reply.is_none() {
                            client = None;
                        }
                        let ms = (t1 - t0).as_secs_f64() * 1e3;
                        rows.push((i, ms, reply, probe.sample()));
                    }
                    (rows, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    let mut rows = Vec::with_capacity(n);
    for (r, spans) in results {
        rows.extend(r);
        rec.absorb(spans);
    }
    rows.sort_by_key(|r| r.0);
    Ok(rows
        .into_iter()
        .map(|(_, ms, reply, speed)| {
            pass.push(ms, reply.is_some());
            pass.speeds.push(speed);
            reply
        })
        .collect())
}

/// The five engine stages the server runs per request, in order.
const STAGES: &[(&str, &str)] = &[
    ("serve.decode", "serve.decode_ms"),
    ("serve.admit", "serve.admit_ms"),
    ("serve.handle", "serve.handle_ms"),
    ("serve.settle", "serve.settle_ms"),
    ("serve.encode", "serve.encode_ms"),
];

/// Replays warm-up and stream in-process through the engine the server
/// wraps (with the same metrics wiring), a span around each stage of
/// each measured request. Adds the engine's `stats` frame counts and the
/// responses' reuse and point counts to `counts`.
fn replay(
    warm: &Warm,
    rec: &mut Recorder,
    counts: &mut Counts,
    known: &mut KnownAnswers,
    out: &mut Outcome,
) -> Result<(), String> {
    let metrics = MetricsRegistry::new();
    let tracer = Tracer::disabled().tee(Arc::new(MetricsBridge::new(metrics.clone())));
    let engine = ServeEngine::with_metrics(None, tracer, metrics);
    let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0) += v;
    let warmups = warm.warmup.len();
    for (i, r) in warm.warmup.iter().chain(&warm.stream).enumerate() {
        let measured = i >= warmups;
        let op = i.saturating_sub(warmups) as u64;
        let span = |name, rec: &mut Recorder| if measured { rec.enter(name, op) } else { None };
        let root = span("serve.request", rec);
        let id = span("serve.decode", rec);
        let request = parse_request(&r.text);
        rec.exit(id);
        let Ok(Request::Job(job)) = request else {
            return Err(format!("replayed request is not a job: {}", r.text));
        };
        let id = span("serve.admit", rec);
        let admitted = engine.admit(&job);
        rec.exit(id);
        let response = match admitted {
            Ok(admitted) => {
                let id = span("serve.handle", rec);
                let response = engine.handle(&job, &admitted);
                rec.exit(id);
                let id = span("serve.settle", rec);
                engine.settle(&job, &admitted);
                rec.exit(id);
                response
            }
            Err(rejected) => rejected,
        };
        let id = span("serve.encode", rec);
        let text = response.to_json();
        rec.exit(id);
        rec.exit(root);
        if measured {
            match check(known, r, Reply::of(&response)) {
                Ok(true) => {}
                Ok(false) => return Err(format!("replayed request failed: {text}")),
                Err(e) => out.errors.push(e),
            }
        }
        if let Response::Verdict { points, reuse, .. } = &response {
            add("core.points_added", *points as u64);
            if let Some(reuse) = reuse {
                add("serve.reuse_program_nodes", reuse.program_nodes as u64);
                add("serve.reuse_fresh_nodes", reuse.fresh_nodes as u64);
            }
        }
    }
    let stats = json::parse(&engine.stats_json()).map_err(|e| format!("stats frame: {e}"))?;
    let num = |v: Option<&Value>| v.and_then(Value::as_num).unwrap_or(0.0) as u64;
    add("serve.served", num(stats.get("served")));
    add("serve.warm_hits", num(stats.get("warm_hits")));
    let tables = stats.get("tables").and_then(Value::as_arr).unwrap_or(&[]);
    add("serve.table_sets", tables.len() as u64);
    for t in tables {
        for (table, hits, misses) in [
            ("exec", "lang.exec_hits", "lang.exec_misses"),
            ("closure", "lattice.closure_hits", "lattice.closure_misses"),
        ] {
            add(hits, num(t.get(table).and_then(|e| e.get("hits"))));
            add(misses, num(t.get(table).and_then(|e| e.get("misses"))));
        }
    }
    Ok(())
}

/// The workload: its seeded stream and the known answers seen so far.
struct ServeEdit {
    seed: u64,
    requests: usize,
    known: KnownAnswers,
    checked: usize,
    /// One probe per client connection.
    probes: Vec<Probe>,
}

impl Workload for ServeEdit {
    type State = Warm;

    fn rounds(&self) -> usize {
        ROUNDS
    }

    fn setup(&mut self, round: usize) -> Result<Warm, String> {
        let (warmup, stream) = stream(self.seed, round, self.requests)?;
        for r in warmup.iter().chain(&stream) {
            parse_request(&r.text)
                .map_err(|e| format!("generated request is malformed: {}", e.message))?;
        }
        let config = ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            workers: parallelism(),
            ..ServeConfig::default()
        };
        let server = Server(Some(start(config, Tracer::disabled())?));
        let mut client = Client::connect(server.addr()?)?;
        for r in &warmup {
            let reply = client.call(&r.text)?;
            if Reply::parse(&reply) == Reply::Error {
                return Err(format!("warm-up request failed: {reply}"));
            }
        }
        Ok(Warm {
            server,
            stream,
            warmup,
            replies: Vec::new(),
        })
    }

    fn pass(
        &mut self,
        warm: &mut Warm,
        rec: &mut Recorder,
        pass: &mut Pass,
        _counts: &mut Counts,
        _out: &mut Outcome,
    ) -> Result<(), String> {
        pass.probe_threads = self.probes.len();
        warm.replies = drive(warm, &mut self.probes, rec, pass)?;
        Ok(())
    }

    fn check(&mut self, warm: &mut Warm, pass: &mut Pass, out: &mut Outcome) {
        self.checked += warm.replies.len();
        for (i, reply) in warm.replies.iter().enumerate() {
            let Some(text) = reply else { continue };
            match check(&mut self.known, &warm.stream[i], Reply::parse(text)) {
                Ok(true) => {}
                Ok(false) => {
                    pass.fail(i);
                    out.notes.push(format!("request {i} failed: {text}"));
                }
                Err(e) => out.errors.push(e),
            }
        }
    }

    fn after_traced(
        &mut self,
        warm: &mut Warm,
        rec: &mut Recorder,
        counts: &mut Counts,
        out: &mut Outcome,
    ) -> Result<(), String> {
        replay(warm, rec, counts, &mut self.known, out)
    }

    fn layers(&self, rec: &Recorder, counts: &Counts, ops: u64, out: &mut Outcome) {
        out.layer_times(rec, ops, STAGES);
        let stage_ms: f64 = STAGES.iter().map(|(_, m)| out.metrics[*m]).sum();
        let rtt_ms = out.span_ms(rec, "serve.rtt", ops);
        out.set("serve.transport_queue_ms", rtt_ms - stage_ms);
        out.notes.push(format!(
            "mean round-trip {rtt_ms:.4} ms: {stage_ms:.4} ms in the five engine stages, the rest transport and queueing"
        ));
        let c = |k: &str| counts.get(k).copied().unwrap_or(0);
        out.ratio(
            "lang.exec_lookups",
            "lang.exec_hit_ratio",
            c("lang.exec_hits"),
            c("lang.exec_misses"),
        );
        out.ratio(
            "lattice.closure_lookups",
            "lattice.closure_hit_ratio",
            c("lattice.closure_hits"),
            c("lattice.closure_misses"),
        );
        out.set("core.points_added", c("core.points_added") as f64);
        out.set("serve.served", c("serve.served") as f64);
        out.set(
            "serve.warm_hit_ratio",
            c("serve.warm_hits") as f64 / c("serve.served").max(1) as f64,
        );
        out.set("serve.table_sets", c("serve.table_sets") as f64);
        let nodes = c("serve.reuse_program_nodes");
        out.set("serve.reuse_nodes", nodes as f64);
        out.set(
            "serve.reuse_ratio",
            nodes.saturating_sub(c("serve.reuse_fresh_nodes")) as f64 / nodes.max(1) as f64,
        );
    }

    fn finish(&self, out: &mut Outcome) {
        let (questions, _) = self.known.tally();
        let n = parallelism();
        out.notes.push(format!(
            "{} responses checked against the concrete semantics, {questions} distinct questions; {n} client connections, {n} workers",
            self.checked
        ));
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let requests =
        ((cfg.seconds as f64 * REQUESTS_PER_SECOND / ROUNDS as f64).round() as usize).max(1);
    harness::run(
        cfg,
        ServeEdit {
            seed: cfg.seed,
            requests,
            known: KnownAnswers::default(),
            checked: 0,
            probes: (0..parallelism()).map(|_| Probe::new()).collect(),
        },
    )
}
