//! The `air serve` daemon under load, end to end, through the built
//! binaries.
//!
//! One daemon (`air serve --tcp 127.0.0.1:0 --metrics-addr 127.0.0.1:0
//! --workers 4`) takes two loads of the same workload: every `corpus/`
//! and `corpus/fuzz/` question plus 24 generated fuzz cases, with the
//! jobs rotating verify → repair → analyze. A load is [`ROUNDS`]
//! sequential rounds on one connection, then [`CLIENTS`] connections
//! that each pipeline the whole workload before reading a response. The
//! test checks:
//!
//! - every response frame passes `schemas/serve-response.schema.json`;
//! - the first load's warm pass (the median later round) is at least 2x
//!   faster than its cold first round; this timing bar is asserted in
//!   optimized builds only, so the debug test suite asserts no timing;
//! - `air_serve_requests_total` counts at least every job sent;
//! - the Prometheus scrape carries the series the docs promise;
//! - `air top --iterations 1 --plain` renders a `requests` screen;
//! - both metrics snapshots pass `schema_check`, the second with `--prev`
//!   the first and `--require-warm-hits`;
//! - a `shutdown` frame drains the daemon, which exits 0 with `aborts=0`
//!   and a `served=` count of at least every job sent over both loads.
//!
//! Every socket read and write, the daemon's start-up and drain, and each
//! child command run under [`DEADLINE`]; the daemon is killed on every
//! exit path, so a failure neither hangs nor leaves a process behind.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use air_core::question::{clause, corpus_files, corpus_header, render_vars};
use air_fuzz::FuzzCase;
use air_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use air_trace::json::{self, str_lit, Value};

/// Sequential rounds per load; the first is the cold pass.
const ROUNDS: usize = 6;
/// Pipelining clients per load.
const CLIENTS: usize = 10;
/// Generated fuzz cases appended to the corpus questions.
const FUZZ_CASES: u64 = 24;
/// The bound on every wait for the daemon or a child command.
const DEADLINE: Duration = Duration::from_secs(120);

/// The Prometheus lines the scrape must start, one per promised series.
const SCRAPE_SERIES: [&str; 5] = [
    "# TYPE air_serve_requests_total counter",
    "air_serve_requests_total{",
    "air_phase_duration_ns_bucket{",
    "air_cache_events_total{",
    "air_serve_warm_tables ",
];

fn repo_path(sub: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(sub);
    p
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("serve_load.{name}"))
}

/// A running daemon; dropping it kills the process and joins the thread
/// that reads its stderr.
struct Daemon {
    child: Child,
    stderr: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Boots the daemon and returns it with its request and metrics
    /// addresses, read from the `air-serve listening` line.
    fn start() -> (Daemon, SocketAddr, SocketAddr) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_air"))
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(["--metrics-addr", "127.0.0.1:0", "--workers", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn air serve");
        let pipe = child.stderr.take().expect("piped stderr");
        let (tx, stderr) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let daemon = Daemon {
            child,
            stderr,
            reader: Some(reader),
        };
        let line = daemon.wait_line("air-serve listening");
        let addr = |key: &str| -> SocketAddr {
            line.split_whitespace()
                .find_map(|field| field.strip_prefix(key))
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| panic!("no {key} address in `{line}`"))
        };
        let (tcp, metrics) = (addr("tcp="), addr("metrics="));
        (daemon, tcp, metrics)
    }

    /// The next stderr line containing `needle`, within [`DEADLINE`].
    fn wait_line(&self, needle: &str) -> String {
        let until = Instant::now() + DEADLINE;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            match self.stderr.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return line,
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => panic!("no `{needle}` line within {DEADLINE:?}"),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("daemon closed stderr before printing `{needle}`")
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Polls `child` until it exits; kills it and panics past [`DEADLINE`].
fn wait_within(child: &mut Child, what: &str) -> ExitStatus {
    let until = Instant::now() + DEADLINE;
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() >= until {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `cmd` within [`DEADLINE`] and returns its status and stdout.
fn run(cmd: &mut Command, what: &str) -> (ExitStatus, String) {
    let out = scratch(&format!("{what}.out"));
    let file = std::fs::File::create(&out).expect("create stdout file");
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(file)
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {what}: {e}"));
    let status = wait_within(&mut child, what);
    (status, std::fs::read_to_string(&out).expect("read stdout"))
}

/// `schema_check SCHEMA FILE EXTRA...` must pass.
fn schema_check(schema: &str, file: &Path, extra: &[&str]) {
    let schema = repo_path(&format!("schemas/{schema}.schema.json"));
    let (status, stdout) = run(
        Command::new(env!("CARGO_BIN_EXE_schema_check"))
            .arg(schema)
            .arg(file)
            .args(extra),
        "schema_check",
    );
    assert!(
        status.success(),
        "{} fails its schema: {stdout}",
        file.display()
    );
}

/// One connection speaking length-prefixed frames.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect_timeout(&addr, DEADLINE).expect("connect to the daemon");
        stream
            .set_read_timeout(Some(DEADLINE))
            .expect("read timeout");
        stream
            .set_write_timeout(Some(DEADLINE))
            .expect("write timeout");
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, payload: &str) {
        write_frame(&mut self.writer, payload).expect("send frame");
    }

    fn recv(&mut self) -> String {
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
            .expect("read frame")
            .expect("daemon closed the connection")
    }

    fn roundtrip(&mut self, payload: &str) -> String {
        self.send(payload);
        self.recv()
    }
}

/// Every `corpus/` and `corpus/fuzz/` program (each carries a header
/// with `vars`, `pre` and `spec`), then [`FUZZ_CASES`] generated cases,
/// each as the request fields after `id`.
fn workload() -> Vec<String> {
    let root = repo_path("corpus").display().to_string();
    let mut files: Vec<PathBuf> = [root.clone(), format!("{root}/fuzz")]
        .iter()
        .flat_map(|dir| corpus_files(dir).expect("corpus dir lists"))
        .collect();
    files.sort();
    let mut items = Vec::new();
    for (idx, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        // The sweep's `# Verified with: vars "x:-8..8", ...` header or the
        // fuzz corpus's `# fuzz: domain "int" vars "x=-4..4" ...` one.
        let header = corpus_header(&text)
            .or_else(|| text.lines().find(|l| l.contains("# fuzz:")))
            .unwrap_or_else(|| panic!("{} has no header", path.display()));
        let get = |key: &str| clause(header, key);
        let (Some(vars), Some(pre), Some(spec)) = (get("vars"), get("pre"), get("spec")) else {
            panic!("{} has an incomplete header", path.display());
        };
        let job = ["verify", "repair", "analyze"][idx % 3];
        let mut body = format!(
            r#""job":"{job}","vars":{},"code":{},"pre":{},"spec":{}"#,
            str_lit(&vars.replace('=', ":")),
            str_lit(&text),
            str_lit(pre),
            str_lit(spec),
        );
        if let Some(domain) = get("domain") {
            body.push_str(&format!(r#","domain":{}"#, str_lit(domain)));
        }
        items.push(body);
    }
    for seed in 0..FUZZ_CASES {
        let case = FuzzCase::generate(seed);
        let job = ["verify", "repair", "analyze"][(seed % 3) as usize];
        let body = format!(
            r#""job":"{job}","vars":{},"domain":{},"code":{},"pre":{},"spec":{}"#,
            str_lit(&render_vars(&case.decls)),
            str_lit(&case.domain),
            str_lit(&case.program.to_source()),
            str_lit(&case.pre.to_string()),
            str_lit(&case.spec.to_string()),
        );
        items.push(body);
    }
    items
}

/// One load: the sequential rounds, then the pipelining clients. Appends
/// every response to `transcript` and returns the wall time of each
/// round.
fn load(
    addr: SocketAddr,
    tag: &str,
    work: &[String],
    transcript: &mut Vec<String>,
) -> Vec<Duration> {
    let mut client = Client::connect(addr);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let begun = Instant::now();
        for (idx, body) in work.iter().enumerate() {
            let payload = format!(r#"{{"id":"{tag}-{round}-{idx}",{body}}}"#);
            transcript.push(client.roundtrip(&payload));
        }
        rounds.push(begun.elapsed());
    }
    // Each client writes its whole list before reading, so up to
    // CLIENTS × work.len() requests are in flight at once.
    let responses: Vec<Vec<String>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    for (idx, body) in work.iter().enumerate() {
                        client.send(&format!(r#"{{"id":"{tag}-tp-{c}-{idx}",{body}}}"#));
                    }
                    (0..work.len()).map(|_| client.recv()).collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    transcript.extend(responses.into_iter().flatten());
    rounds
}

/// The cold round's wall time over the median warm round's.
fn pass_speedup(rounds: &[Duration]) -> f64 {
    let mut warm = rounds[1..].to_vec();
    warm.sort_unstable();
    let median = warm[(warm.len() - 1) / 2];
    rounds[0].as_secs_f64() / median.as_secs_f64().max(1e-9)
}

/// Asks for a metrics snapshot, writes its payload to `file` and returns
/// the sum of `air_serve_requests_total` over every label set.
fn snapshot(client: &mut Client, transcript: &mut Vec<String>, file: &Path) -> u64 {
    let line = client.roundtrip(r#"{"id":"load-metrics","job":"metrics"}"#);
    // The rendered snapshot is the frame's last field.
    let marker = r#","stats":"#;
    let start = line
        .find(marker)
        .expect("metrics frame has a stats payload")
        + marker.len();
    let payload = &line[start..line.len() - 1];
    std::fs::write(file, format!("{payload}\n")).expect("write snapshot");
    let doc = json::parse(payload).expect("snapshot is JSON");
    let requests = doc
        .get("counters")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|row| row.get("name").and_then(Value::as_str) == Some("air_serve_requests_total"))
        .filter_map(|row| row.get("value").and_then(Value::as_num))
        .sum::<f64>();
    transcript.push(line);
    requests as u64
}

/// One plain-HTTP scrape of the exposition listener.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect_timeout(&addr, DEADLINE).expect("connect to metrics");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send scrape");
    let mut page = String::new();
    stream.read_to_string(&mut page).expect("read scrape");
    page
}

#[test]
fn daemon_serves_two_loads_scrapes_and_drains() {
    let work = workload();
    let (mut daemon, addr, metrics_addr) = Daemon::start();
    let mut transcript = Vec::new();
    let jobs_per_load = (ROUNDS + CLIENTS) * work.len();

    let rounds = load(addr, "a", &work, &mut transcript);
    let speedup = pass_speedup(&rounds);
    eprintln!(
        "cold round {:?}, warm rounds {:?}: {speedup:.2}x",
        rounds[0],
        &rounds[1..]
    );
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= 2.0,
            "warm pass only {speedup:.2}x faster than cold"
        );
    }
    let mut probe = Client::connect(addr);
    let first = scratch("m1.json");
    let counted = snapshot(&mut probe, &mut transcript, &first);
    assert!(
        counted >= jobs_per_load as u64,
        "air_serve_requests_total = {counted} < {jobs_per_load} jobs sent"
    );

    let page = scrape(metrics_addr);
    for series in SCRAPE_SERIES {
        assert!(
            page.lines().any(|l| l.starts_with(series)),
            "scrape lacks `{series}`:\n{page}"
        );
    }
    let (status, top) = run(
        Command::new(env!("CARGO_BIN_EXE_air"))
            .args(["top", "--connect", &addr.to_string()])
            .args(["--iterations", "1", "--plain"]),
        "top",
    );
    assert!(
        status.success() && top.contains("requests"),
        "air top: {top}"
    );

    load(addr, "b", &work, &mut transcript);
    let second = scratch("m2.json");
    let counted = snapshot(&mut probe, &mut transcript, &second);
    assert!(
        counted >= 2 * jobs_per_load as u64,
        "air_serve_requests_total = {counted} < {} jobs sent",
        2 * jobs_per_load
    );
    transcript.push(probe.roundtrip(r#"{"id":"load-shutdown","job":"shutdown"}"#));
    drop(probe);

    let status = wait_within(&mut daemon.child, "air serve");
    let drained = daemon.wait_line("air-serve drained");
    assert!(status.success(), "daemon exited {status}");
    assert!(drained.contains("aborts=0"), "{drained}");
    let served: u64 = drained
        .split_whitespace()
        .find_map(|field| field.strip_prefix("served="))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no served= count in `{drained}`"));
    assert!(
        served >= 2 * jobs_per_load as u64,
        "drain line served={served} < {} jobs sent",
        2 * jobs_per_load
    );

    let responses = scratch("responses.jsonl");
    std::fs::write(&responses, transcript.join("\n") + "\n").expect("write transcript");
    schema_check("serve-response", &responses, &[]);
    schema_check("metrics-snapshot", &first, &[]);
    let prev = first.display().to_string();
    schema_check(
        "metrics-snapshot",
        &second,
        &["--prev", &prev, "--require-warm-hits"],
    );
}
