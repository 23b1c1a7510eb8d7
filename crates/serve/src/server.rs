//! The `air serve` transports: a stdio reader, a TCP acceptor, and the
//! supervised worker pool draining the admission queue.
//!
//! Threading model: one reader thread per transport/connection does the
//! cheap work inline (framing, parsing, admission, control-plane
//! requests), engine jobs go through the priority [`JobQueue`] to the
//! [`WorkerPool`]. A panicking job is retried per the supervisor's
//! policy and, once retries are exhausted, surfaces to the client as a
//! code-4 error response — the worker thread itself survives, so one
//! poisoned request cannot take the daemon down.
//!
//! Shutdown is drain-based: a `shutdown` frame (or stdio EOF, or
//! [`RunningServer::stop`]) stops intake and closes the queue; workers
//! finish every already-admitted job before retiring, so no admitted
//! request is ever dropped without a response.

use crate::admission::JobQueue;
use crate::engine::{Admitted, ServeEngine};
use crate::protocol::{read_frame, write_frame, JobRequest, Request, Response};
use air_lattice::Governor;
use air_metrics::MetricsRegistry;
use air_resilience::{PoolStats, Supervisor, TaskFailure, WorkerPool};
use air_trace::{EventKind, MetricsBridge, Tracer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard from a poisoned lock. The
/// daemon's shared mutexes guard plain data (a response writer, the
/// in-flight governor map) whose invariants hold between statements, so
/// a panic on another thread — already contained by the worker pool's
/// supervisor — must not cascade into panics on every thread that
/// touches the same lock afterwards. This is the serve-side arm of the
/// panic-elimination policy: I/O and lock failures degrade to error
/// responses or recovered guards, never to a daemon abort.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a server run is configured (the CLI's `air serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Serve length-prefixed frames on stdin/stdout.
    pub stdio: bool,
    /// Bind address for the TCP transport (e.g. `"127.0.0.1:4777"`,
    /// port 0 for ephemeral).
    pub tcp: Option<String>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Per-tenant lifetime fuel allowance (`None` = unlimited).
    pub quota: Option<u64>,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Bind address for the Prometheus text exposition listener
    /// (`None` = no listener; the `metrics` wire job still works).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            stdio: false,
            tcp: None,
            workers: 2,
            quota: None,
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            metrics_addr: None,
        }
    }
}

/// Final counters reported when the server drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Engine jobs completed (any status).
    pub served: u64,
    /// Jobs that found their table set already warm.
    pub warm_hits: u64,
    /// Jobs lost to panics after exhausting retries (the smoke test
    /// asserts this stays zero).
    pub aborts: u64,
}

/// A response writer shared between the reader that owns the connection
/// and the workers completing its jobs.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// An admitted job travelling from a reader to a worker.
struct Job {
    request: JobRequest,
    admitted: Admitted,
    out: SharedWriter,
    received: Instant,
}

/// In-flight registry key: `(tenant, request id)`. Tenant-scoping means
/// one tenant's `cancel` can never reach another tenant's job, and two
/// tenants may use the same request id without colliding.
type InflightKey = (String, String);

fn inflight_key(request: &JobRequest) -> InflightKey {
    (request.tenant.clone(), request.id.clone())
}

/// State shared by readers, workers and the [`RunningServer`] handle.
struct Shared {
    engine: ServeEngine,
    queue: JobQueue<Job>,
    /// Governors of admitted-but-unfinished requests, keyed by
    /// `(tenant, request id)`, so `cancel` frames can reach them from
    /// any connection declaring the same tenant.
    inflight: Mutex<HashMap<InflightKey, Governor>>,
    shutdown: AtomicBool,
    max_frame: usize,
    /// The pool's live utilization counters, filled in right after the
    /// pool starts (the pool's closures need `Shared` first).
    pool_stats: OnceLock<Arc<PoolStats>>,
    /// Worker threads configured, for the `air_serve_workers` gauge.
    workers: usize,
}

impl Shared {
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn write_response(&self, out: &SharedWriter, resp: &Response) {
        // A vanished client is not a server error: the job already ran
        // and was charged; there is simply nobody left to tell.
        let _ = write_frame(&mut *lock_clean(out), &resp.to_json());
    }

    /// Refreshes every sampled-at-scrape gauge, then snapshots. Both the
    /// `metrics` wire job and the exposition listener go through here,
    /// so the two views always agree on what "current" means.
    fn metrics_snapshot(&self) -> air_metrics::Snapshot {
        let metrics = self.engine.metrics();
        self.engine.refresh_gauges();
        metrics.set_gauge("air_serve_queue_depth", &[], self.queue.len() as i64);
        metrics.set_gauge("air_serve_workers", &[], self.workers as i64);
        if let Some(stats) = self.pool_stats.get() {
            metrics.set_gauge("air_serve_workers_busy", &[], stats.busy() as i64);
            metrics.set_gauge("air_serve_jobs_completed", &[], stats.completed() as i64);
            metrics.set_gauge("air_serve_jobs_failed", &[], stats.failed() as i64);
        }
        metrics.snapshot()
    }

    /// Completes a request that never entered the in-flight registry
    /// (quota and duplicate-id rejections): response out,
    /// `request_completed` emitted. Deliberately does NOT touch the
    /// registry — removing here could evict the live entry of another
    /// request that legitimately owns the same key.
    fn reject(&self, id: &str, received: Instant, out: &SharedWriter, resp: &Response) {
        self.write_response(out, resp);
        self.emit_completed(id, received, resp);
    }

    /// Completes a registered job: response out, in-flight registry
    /// entry freed, `request_completed` emitted with the
    /// admission-to-response span.
    fn finish(&self, key: &InflightKey, received: Instant, out: &SharedWriter, resp: &Response) {
        self.write_response(out, resp);
        lock_clean(&self.inflight).remove(key);
        self.emit_completed(&key.1, received, resp);
    }

    fn emit_completed(&self, id: &str, received: Instant, resp: &Response) {
        let status = completion_status(resp);
        self.engine
            .tracer()
            .emit_detail_with(|| EventKind::RequestCompleted {
                id: id.to_string(),
                status: status.to_string(),
                duration_ns: received.elapsed().as_nanos() as u64,
            });
    }
}

/// Maps a response onto the `request_completed` status taxonomy (the
/// same taxonomy the metrics plane uses for its `status` label).
fn completion_status(resp: &Response) -> &'static str {
    resp.status_name()
}

/// One reader loop: frames in, control-plane answers and job admissions
/// out. Returns when the stream ends, desyncs, or a shutdown lands.
fn serve_reader(shared: &Arc<Shared>, reader: &mut impl BufRead, out: &SharedWriter) {
    loop {
        let text = match read_frame(reader, shared.max_frame) {
            Ok(Some(text)) => text,
            Ok(None) => return,
            Err(e) => {
                // Framing is lost after a bad length line; answer once
                // and drop the connection rather than guess at resync.
                shared.write_response(
                    out,
                    &Response::Error {
                        id: String::new(),
                        code: 2,
                        message: e.to_string(),
                        phase: None,
                        spent: None,
                        reason: None,
                    },
                );
                return;
            }
        };
        if !handle_frame(shared, &text, out) {
            return;
        }
    }
}

/// Handles one frame; `false` means stop reading this connection.
fn handle_frame(shared: &Arc<Shared>, text: &str, out: &SharedWriter) -> bool {
    let req = match crate::protocol::parse_request(text) {
        Ok(req) => req,
        Err(e) => {
            shared.write_response(
                out,
                &Response::Error {
                    id: String::new(),
                    code: e.code,
                    message: e.message,
                    phase: None,
                    spent: None,
                    reason: None,
                },
            );
            return true;
        }
    };
    match req {
        Request::Ping { id } => {
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail: "pong".into(),
                    stats: None,
                },
            );
        }
        Request::Stats { id } => {
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail: "stats".into(),
                    stats: Some(shared.engine.stats_json()),
                },
            );
        }
        Request::Metrics { id } => {
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail: "metrics".into(),
                    stats: Some(shared.metrics_snapshot().to_json()),
                },
            );
        }
        Request::Flush { id } => {
            let flushed = shared.engine.flush();
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail: format!("flushed {flushed} table set(s)"),
                    stats: None,
                },
            );
        }
        Request::Cancel { id, tenant, target } => {
            // Cancellation is tenant-scoped: the cancel frame must
            // declare the victim's tenant, so one tenant guessing
            // another's request ids cannot cancel their jobs.
            let key = (tenant, target);
            let found = lock_clean(&shared.inflight).get(&key).cloned();
            let (tenant, target) = key;
            let detail = match found {
                Some(governor) => {
                    governor.cancel();
                    format!("cancellation signalled to `{target}`")
                }
                None => format!("no in-flight request `{target}` for tenant `{tenant}`"),
            };
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail,
                    stats: None,
                },
            );
        }
        Request::Shutdown { id } => {
            shared.write_response(
                out,
                &Response::Ok {
                    id,
                    detail: "draining and shutting down".into(),
                    stats: None,
                },
            );
            shared.initiate_shutdown();
            return false;
        }
        Request::Job(job) => admit_job(shared, *job, out),
    }
    true
}

/// Admission path: quota check, in-flight registration, enqueue.
fn admit_job(shared: &Arc<Shared>, request: JobRequest, out: &SharedWriter) {
    let received = Instant::now();
    let admitted = match shared.engine.admit(&request) {
        Ok(admitted) => admitted,
        Err(resp) => {
            // Rejected requests still complete (they were received).
            shared.reject(&request.id, received, out, &resp);
            return;
        }
    };
    let key = inflight_key(&request);
    // Check-and-insert under one lock: a duplicate id would otherwise
    // overwrite the live governor, leaving the first request
    // uncancellable and the registry corrupted at removal time.
    {
        use std::collections::hash_map::Entry;
        let mut inflight = lock_clean(&shared.inflight);
        match inflight.entry(key.clone()) {
            Entry::Occupied(_) => {
                drop(inflight);
                shared.engine.settle(&request, &admitted);
                let resp = Response::Error {
                    id: request.id.clone(),
                    code: 2,
                    message: format!(
                        "request id `{}` is already in flight for tenant `{}`",
                        request.id, request.tenant
                    ),
                    phase: Some("serve.admit".into()),
                    spent: None,
                    reason: None,
                };
                shared.reject(&request.id, received, out, &resp);
                return;
            }
            Entry::Vacant(slot) => {
                slot.insert(admitted.governor().clone());
            }
        }
    }
    let priority = request.priority;
    let job = Job {
        request,
        admitted,
        out: Arc::clone(out),
        received,
    };
    if let Err(job) = shared.queue.push(job, priority) {
        // Admitted but never queued: release the quota reservation.
        shared.engine.settle(&job.request, &job.admitted);
        let resp = Response::Error {
            id: job.request.id.clone(),
            code: 4,
            message: "server is draining; request not admitted".into(),
            phase: Some("serve.admit".into()),
            spent: None,
            reason: None,
        };
        shared.finish(&key, job.received, &job.out, &resp);
    }
}

/// What a worker does with a claimed job.
fn run_job(shared: &Arc<Shared>, job: &Job) {
    let resp = if job.admitted.governor().is_cancelled() {
        // Cancelled while still queued: same wire shape as a
        // cancellation that trips mid-run, without paying for the run —
        // settle here since `handle` (which normally settles) never runs.
        shared.engine.settle(&job.request, &job.admitted);
        Response::Error {
            id: job.request.id.clone(),
            code: 3,
            message: "cancelled while queued".into(),
            phase: Some("serve.queue".into()),
            spent: Some(job.admitted.governor().spent()),
            reason: Some("cancelled".into()),
        }
    } else {
        shared.engine.handle(&job.request, &job.admitted)
    };
    shared.finish(&inflight_key(&job.request), job.received, &job.out, &resp);
}

/// Exhausted-retries path: the job keeps panicking; tell the client.
fn fail_job(shared: &Arc<Shared>, job: Job, failure: TaskFailure) {
    // Every attempt died inside `handle`, before its settle: bill the
    // fuel the aborted attempts burned and release the reservation.
    shared.engine.settle(&job.request, &job.admitted);
    let resp = Response::Error {
        id: job.request.id.clone(),
        code: 4,
        message: format!(
            "job aborted after {} attempt(s): {}",
            failure.attempts, failure.message
        ),
        phase: Some(failure.site.clone()),
        spent: Some(job.admitted.governor().spent()),
        reason: None,
    };
    shared.finish(&inflight_key(&job.request), job.received, &job.out, &resp);
}

/// Clonable shutdown trigger for a running server (see
/// [`RunningServer::stop_handle`]). Stopping is idempotent.
#[derive(Clone)]
pub struct StopHandle {
    shared: Arc<Shared>,
}

impl StopHandle {
    /// Signals shutdown, exactly like [`RunningServer::stop`].
    pub fn stop(&self) {
        self.shared.initiate_shutdown();
    }
}

/// Handle to a running server. Dropping it does *not* stop the daemon;
/// call [`RunningServer::stop`] then [`RunningServer::join`], or let a
/// `shutdown` frame / stdio EOF drain it.
pub struct RunningServer {
    addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    pool: WorkerPool,
    acceptor: Option<JoinHandle<()>>,
    metrics_acceptor: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound TCP address, when the TCP transport is enabled.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The bound Prometheus exposition address, when `--metrics-addr`
    /// is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Signals shutdown: intake stops, queued jobs still drain.
    pub fn stop(&self) {
        self.shared.initiate_shutdown();
    }

    /// A shutdown trigger detached from the server's lifetime, so a
    /// signal-watcher thread can stop the daemon while the main thread
    /// blocks in [`RunningServer::join`].
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the server drains (shutdown frame, stdio EOF or
    /// [`RunningServer::stop`]), then reports final counters.
    pub fn join(self) -> ServeReport {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        // Belt and braces: stop() and the shutdown frame already closed
        // the queue, but a stdio EOF path reaches here first.
        self.shared.queue.close();
        if let Some(acceptor) = self.acceptor {
            let _ = acceptor.join();
        }
        if let Some(acceptor) = self.metrics_acceptor {
            let _ = acceptor.join();
        }
        let pool_stats = self.pool.stats();
        self.pool.join();
        ServeReport {
            served: self.shared.engine.served(),
            warm_hits: self.shared.engine.warm_hits(),
            aborts: pool_stats.failed(),
        }
    }
}

/// Boots the daemon: binds the TCP transport (if configured), spawns
/// the reader threads and the worker pool, prints the readiness banner
/// to stderr (stdout is reserved for stdio frames) and returns the
/// handle.
///
/// # Errors
///
/// A human-readable message when no transport is enabled or the TCP
/// bind fails.
pub fn start(config: ServeConfig, tracer: Tracer) -> Result<RunningServer, String> {
    if !config.stdio && config.tcp.is_none() {
        return Err("no transport enabled: pass --stdio and/or --tcp ADDR".into());
    }
    let metrics = MetricsRegistry::new();
    // Engine-phase telemetry (span durations, cache events, budget
    // exhaustions) arrives via the trace stream: a bridge sink rides
    // next to whatever sink the operator configured, folding events
    // into the same registry the serve-layer metrics land in.
    let tracer = tracer.tee(Arc::new(MetricsBridge::new(metrics.clone())));
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        engine: ServeEngine::with_metrics(config.quota, tracer, metrics),
        queue: JobQueue::new(),
        inflight: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        max_frame: config.max_frame,
        pool_stats: OnceLock::new(),
        workers,
    });
    let pool = {
        let s_next = Arc::clone(&shared);
        let s_run = Arc::clone(&shared);
        let s_fail = Arc::clone(&shared);
        WorkerPool::start(
            workers,
            Supervisor::default(),
            move || s_next.queue.pop(),
            |job: &Job| format!("serve.job.{}", job.request.id),
            move |job| run_job(&s_run, job),
            move |job, failure| fail_job(&s_fail, job, failure),
        )
    };
    let _ = shared.pool_stats.set(pool.stats());
    let mut metrics_addr = None;
    let mut metrics_acceptor = None;
    if let Some(bind) = &config.metrics_addr {
        let listener = TcpListener::bind(bind)
            .map_err(|e| format!("cannot bind metrics listener `{bind}`: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure metrics listener: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound metrics address: {e}"))?;
        metrics_addr = Some(bound);
        let shared = Arc::clone(&shared);
        metrics_acceptor = Some(
            std::thread::Builder::new()
                .name("air-serve-metrics".into())
                .spawn(move || metrics_accept_loop(&shared, &listener))
                .map_err(|e| format!("cannot spawn metrics acceptor: {e}"))?,
        );
    }
    let mut addr = None;
    let mut acceptor = None;
    if let Some(bind) = &config.tcp {
        let listener =
            TcpListener::bind(bind).map_err(|e| format!("cannot bind tcp `{bind}`: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure tcp listener: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        addr = Some(bound);
        let shared = Arc::clone(&shared);
        acceptor = Some(
            std::thread::Builder::new()
                .name("air-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?,
        );
    }
    if config.stdio {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("air-serve-stdio".into())
            .spawn(move || {
                let out: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
                let mut reader = BufReader::new(std::io::stdin());
                serve_reader(&shared, &mut reader, &out);
                // EOF on stdin means the operator's session ended.
                shared.initiate_shutdown();
            })
            .map_err(|e| format!("cannot spawn stdio reader: {e}"))?;
    }
    let transports = match (config.stdio, addr) {
        (true, Some(a)) => format!("stdio tcp={a}"),
        (true, None) => "stdio".to_string(),
        (false, Some(a)) => format!("tcp={a}"),
        (false, None) => unreachable!("transport checked above"),
    };
    match metrics_addr {
        Some(m) => eprintln!("air-serve listening {transports} workers={workers} metrics={m}"),
        None => eprintln!("air-serve listening {transports} workers={workers}"),
    }
    Ok(RunningServer {
        addr,
        metrics_addr,
        shared,
        pool,
        acceptor,
        metrics_acceptor,
    })
}

/// Accept loop of the Prometheus exposition listener. Every connection
/// gets one scrape answered inline — exposition traffic is rare (one
/// request per scrape interval) and the render is cheap, so there is no
/// per-connection thread.
fn metrics_accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => answer_scrape(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Answers one scrape connection with a Prometheus text-format page.
///
/// The request side is deliberately forgiving: the listener reads until
/// a blank line (the end of an HTTP request head), EOF, or a short
/// timeout, then answers regardless of what arrived — so `curl`, a real
/// Prometheus scraper, and a bare `nc HOST PORT < /dev/null` all get
/// the page. Failures just drop the connection; a lost scrape must
/// never disturb the daemon.
fn answer_scrape(shared: &Arc<Shared>, mut stream: std::net::TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut buf = [0u8; 512];
    let mut head: Vec<u8> = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                    || head.len() > 8192
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = shared.metrics_snapshot().to_prometheus();
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.flush();
}

/// Non-blocking accept loop polling the shutdown flag between attempts;
/// each connection gets a detached reader thread.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conn = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn += 1;
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Frames are small and latency-bound; Nagle batching
                // would add tens of milliseconds per round trip.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name(format!("air-serve-conn-{conn}"))
                    .spawn(move || {
                        let out: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
                        let mut reader = BufReader::new(stream);
                        serve_reader(&shared, &mut reader, &out);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
    use air_trace::json::{self, Value};
    use std::io::BufReader;
    use std::net::TcpStream;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let writer = stream.try_clone().expect("clone");
            Client {
                reader: BufReader::new(stream),
                writer,
            }
        }

        fn send(&mut self, payload: &str) {
            write_frame(&mut self.writer, payload).expect("send");
        }

        fn recv(&mut self) -> Value {
            let text = read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
                .expect("frame")
                .expect("response");
            json::parse(&text).expect("response JSON")
        }

        fn roundtrip(&mut self, payload: &str) -> Value {
            self.send(payload);
            self.recv()
        }
    }

    fn boot(quota: Option<u64>) -> RunningServer {
        start(
            ServeConfig {
                tcp: Some("127.0.0.1:0".into()),
                quota,
                ..ServeConfig::default()
            },
            Tracer::disabled(),
        )
        .expect("server boots")
    }

    fn status(doc: &Value) -> String {
        doc.get("status")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn tcp_round_trip_ping_job_stats_shutdown() {
        let server = boot(None);
        let mut client = Client::connect(server.addr().unwrap());
        assert_eq!(
            status(&client.roundtrip(r#"{"id":"p1","job":"ping"}"#)),
            "ok"
        );
        let verdict = client.roundtrip(
            r#"{"id":"v1","job":"verify","vars":"x:-8..8",
               "code":"if (x >= 0) then { skip } else { x := 0 - x }",
               "pre":"x != 0","spec":"x != 0"}"#,
        );
        assert_eq!(status(&verdict), "proved");
        assert_eq!(verdict.get("warm").and_then(Value::as_bool), Some(false));
        let warm = client.roundtrip(
            r#"{"id":"v2","job":"verify","vars":"x:-8..8",
               "code":"if (x >= 0) then { skip } else { x := 0 - x }",
               "pre":"x != 0","spec":"x != 0"}"#,
        );
        assert_eq!(warm.get("warm").and_then(Value::as_bool), Some(true));
        let stats = client.roundtrip(r#"{"id":"s1","job":"stats"}"#);
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("served"))
                .and_then(Value::as_num),
            Some(2.0)
        );
        let bye = client.roundtrip(r#"{"id":"q","job":"shutdown"}"#);
        assert_eq!(status(&bye), "ok");
        let report = server.join();
        assert_eq!(report.served, 2);
        assert_eq!(report.warm_hits, 1);
        assert_eq!(report.aborts, 0);
    }

    #[test]
    fn malformed_and_unparseable_frames_answer_code_2() {
        let server = boot(None);
        let mut client = Client::connect(server.addr().unwrap());
        // Parse errors keep the connection alive...
        let doc = client.roundtrip("this is not json");
        assert_eq!(status(&doc), "error");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_num),
            Some(2.0)
        );
        // ...framing errors answer once and hang up.
        self::write_raw(&mut client.writer, b"not-a-length\n");
        let doc = client.recv();
        assert_eq!(status(&doc), "error");
        server.stop();
        server.join();
    }

    fn write_raw(w: &mut impl std::io::Write, bytes: &[u8]) {
        w.write_all(bytes).unwrap();
        w.flush().unwrap();
    }

    #[test]
    fn stop_drains_queued_jobs_before_retiring() {
        let server = boot(None);
        let mut client = Client::connect(server.addr().unwrap());
        for i in 0..8 {
            client.send(&format!(
                r#"{{"id":"j{i}","job":"verify","vars":"x:-4..4",
                   "code":"x := x + 1","pre":"x = 0","spec":"x = 1"}}"#
            ));
        }
        let mut seen = 0;
        while seen < 8 {
            let doc = client.recv();
            assert_eq!(status(&doc), "proved");
            seen += 1;
        }
        server.stop();
        let report = server.join();
        assert_eq!(report.served, 8);
        assert_eq!(report.aborts, 0);
    }

    #[test]
    fn quota_rejection_over_the_wire() {
        let server = boot(Some(10));
        let mut client = Client::connect(server.addr().unwrap());
        let doc = client.roundtrip(
            r#"{"id":"q1","job":"verify","tenant":"t","fuel":11,
               "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#,
        );
        assert_eq!(status(&doc), "error");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("reason"))
                .and_then(Value::as_str),
            Some("quota")
        );
        server.stop();
        server.join();
    }

    #[test]
    fn metrics_job_agrees_with_stats_over_the_wire() {
        let server = boot(None);
        let mut client = Client::connect(server.addr().unwrap());
        for i in 0..3 {
            let doc = client.roundtrip(&format!(
                r#"{{"id":"w{i}","job":"verify","vars":"x:-4..4",
                   "code":"x := x + 1","pre":"x = 0","spec":"x = 1"}}"#
            ));
            assert_eq!(status(&doc), "proved");
        }
        let stats = client.roundtrip(r#"{"id":"s","job":"stats"}"#);
        let served = stats
            .get("stats")
            .and_then(|s| s.get("served"))
            .and_then(Value::as_num)
            .unwrap();
        let warm_hits = stats
            .get("stats")
            .and_then(|s| s.get("warm_hits"))
            .and_then(Value::as_num)
            .unwrap();
        let doc = client.roundtrip(r#"{"id":"m","job":"metrics"}"#);
        assert_eq!(status(&doc), "ok");
        let snap = doc.get("stats").expect("metrics payload");
        assert_eq!(
            snap.get("schema").and_then(Value::as_str),
            Some(air_metrics::SCHEMA_ID)
        );
        assert_eq!((served, warm_hits), (3.0, 2.0));
        // The wire snapshot carries the same counts.
        let counters = snap.get("counters").and_then(Value::as_arr).unwrap();
        let sum_where = |name: &str, key: &str, val: &str| -> f64 {
            counters
                .iter()
                .filter(|c| {
                    c.get("name").and_then(Value::as_str) == Some(name)
                        && (key.is_empty()
                            || c.get("labels")
                                .and_then(|l| l.get(key))
                                .and_then(Value::as_str)
                                == Some(val))
                })
                .filter_map(|c| c.get("value").and_then(Value::as_num))
                .sum()
        };
        assert_eq!(sum_where("air_serve_requests_total", "", ""), served);
        assert_eq!(
            sum_where("air_serve_warm_lookups_total", "result", "hit"),
            warm_hits
        );
        // The sampled gauges are present and sane.
        let gauges = snap.get("gauges").and_then(Value::as_arr).unwrap();
        let gauge = |name: &str| -> Option<f64> {
            gauges
                .iter()
                .find(|g| g.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|g| g.get("value").and_then(Value::as_num))
        };
        assert_eq!(gauge("air_serve_warm_tables"), Some(1.0));
        assert_eq!(gauge("air_serve_workers"), Some(2.0));
        assert_eq!(gauge("air_serve_queue_depth"), Some(0.0));
        // Engine-phase histograms arrived through the trace bridge.
        let histograms = snap.get("histograms").and_then(Value::as_arr).unwrap();
        assert!(
            histograms.iter().any(|h| {
                h.get("name").and_then(Value::as_str) == Some("air_phase_duration_ns")
            }),
            "bridge must fold span exits into phase histograms"
        );
        server.stop();
        server.join();
    }

    #[test]
    fn exposition_listener_answers_prometheus_text() {
        let server = start(
            ServeConfig {
                tcp: Some("127.0.0.1:0".into()),
                metrics_addr: Some("127.0.0.1:0".into()),
                ..ServeConfig::default()
            },
            Tracer::disabled(),
        )
        .expect("server boots");
        let mut client = Client::connect(server.addr().unwrap());
        let doc = client.roundtrip(
            r#"{"id":"v","job":"verify","vars":"x:-4..4",
               "code":"x := x + 1","pre":"x = 0","spec":"x = 1"}"#,
        );
        assert_eq!(status(&doc), "proved");
        let scrape = |with_request: bool| -> String {
            let mut s = TcpStream::connect(server.metrics_addr().unwrap()).expect("scrape");
            if with_request {
                s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            } else {
                // A bare `nc`-style probe: half-close the write side.
                s.shutdown(std::net::Shutdown::Write).unwrap();
            }
            let mut page = String::new();
            s.read_to_string(&mut page).expect("page");
            page
        };
        for page in [scrape(true), scrape(false)] {
            assert!(page.starts_with("HTTP/1.0 200 OK"), "{page}");
            assert!(page.contains("text/plain; version=0.0.4"), "{page}");
            assert!(
                page.contains("# TYPE air_serve_requests_total counter"),
                "{page}"
            );
            assert!(
                page.contains("air_serve_request_duration_ns_bucket"),
                "{page}"
            );
            assert!(page.contains("le=\"+Inf\""), "{page}");
            assert!(page.contains("air_serve_warm_tables 1"), "{page}");
        }
        server.stop();
        server.join();
    }

    #[test]
    fn no_transport_is_a_startup_error() {
        let Err(err) = start(ServeConfig::default(), Tracer::disabled()) else {
            panic!("expected startup error");
        };
        assert!(err.contains("no transport"), "{err}");
    }
}
