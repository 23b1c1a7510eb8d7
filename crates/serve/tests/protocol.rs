//! Wire-contract tests against a live in-process server: malformed
//! frames, oversized payloads, zero-fuel requests, mid-request
//! cancellation, and the differential guarantee that a served repair
//! verdict is byte-identical to the one-shot CLI path. Every request a
//! test sends that `parse_request` accepts, and every response it
//! receives, must pass the checked-in wire schema.

use air_serve::protocol::{parse_request, read_frame, write_frame, DEFAULT_MAX_FRAME};
use air_serve::{start, RunningServer, ServeConfig};
use air_trace::json::{self, Value};
use air_trace::{Schema, Tracer};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};

const REQUEST_SCHEMA: &str = include_str!("../../../schemas/serve-request.schema.json");
const RESPONSE_SCHEMA: &str = include_str!("../../../schemas/serve-response.schema.json");

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, payload: &str) {
        if parse_request(payload).is_ok() {
            conforms(REQUEST_SCHEMA, &json::parse(payload).unwrap());
        }
        write_frame(&mut self.writer, payload).expect("send frame");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.writer.write_all(bytes).expect("send raw");
        self.writer.flush().expect("flush raw");
    }

    fn recv(&mut self) -> Value {
        let text = read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
            .expect("read frame")
            .expect("server response");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("bad response JSON `{text}`: {e}"));
        conforms(RESPONSE_SCHEMA, &doc);
        doc
    }

    fn roundtrip(&mut self, payload: &str) -> Value {
        self.send(payload);
        self.recv()
    }
}

/// Panics unless `doc` passes the checked-in `schema`.
fn conforms(schema: &str, doc: &Value) {
    if let Err(e) = Schema::parse(schema).unwrap().check(doc) {
        panic!("{doc:?}: {e}");
    }
}

fn boot(config: ServeConfig) -> RunningServer {
    start(
        ServeConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..config
        },
        Tracer::disabled(),
    )
    .expect("server boots")
}

/// A verify job that holds a worker for as long as a test needs: the
/// enumerative engine on `corpus/large/countdown-cube.imp`'s
/// 1,030,301-store universe, tens of seconds of 10^6-bit set sweeps,
/// against microseconds for the probes around it. A test that relies on
/// a job still being in flight uses this instead of a "heavy enough" job,
/// which a faster engine finishes first. Tests cancel it at teardown.
/// `fields` is spliced into the frame (id, tenant, fuel).
fn holder(fields: &str) -> String {
    format!(
        r#"{{{fields},"job":"verify","vars":"x:0..100,y:0..100,z:0..100",
           "code":"while (y >= 1) do {{ x := x + 1; y := y - 1 }}",
           "pre":"x = 0 && y = 100","spec":"x = 100 && y = 0"}}"#
    )
}

fn id_of(doc: &Value) -> &str {
    doc.get("id").and_then(Value::as_str).unwrap_or("")
}

/// Asserts `doc` is the code-3 response of a cancelled job.
fn assert_cancelled(doc: &Value) {
    assert_eq!(status(doc), "error", "{doc:?}");
    assert_eq!(error_code(doc), Some(3.0), "{doc:?}");
    assert_eq!(error_reason(doc), Some("cancelled"), "{doc:?}");
}

fn status(doc: &Value) -> &str {
    doc.get("status").and_then(Value::as_str).unwrap_or("")
}

fn error_code(doc: &Value) -> Option<f64> {
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_num)
}

fn error_reason(doc: &Value) -> Option<&str> {
    doc.get("error")
        .and_then(|e| e.get("reason"))
        .and_then(Value::as_str)
}

#[test]
fn malformed_payloads_answer_code_2_and_keep_the_connection() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    for bad in [
        "definitely not json",
        "[1,2,3]",
        r#"{"job":"ping"}"#,
        r#"{"id":"x","job":"transmogrify"}"#,
        r#"{"id":"x","job":"verify","vars":"x:0..1","code":"skip","spec":"true","fuel":-1}"#,
    ] {
        let doc = client.roundtrip(bad);
        assert_eq!(status(&doc), "error", "{bad}");
        assert_eq!(error_code(&doc), Some(2.0), "{bad}");
    }
    // The connection survived all five rejections.
    assert_eq!(
        status(&client.roundtrip(r#"{"id":"p","job":"ping"}"#)),
        "ok"
    );
    server.stop();
    server.join();
}

#[test]
fn deeply_nested_frame_answers_code_2_and_the_daemon_keeps_serving() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    // 600 KB, under the frame cap: this used to overflow the stack.
    let bomb = format!("{}{}", "[".repeat(300_000), "]".repeat(300_000));
    let doc = client.roundtrip(&bomb);
    assert_eq!(status(&doc), "error", "{doc:?}");
    assert_eq!(error_code(&doc), Some(2.0), "{doc:?}");
    assert_eq!(
        status(&client.roundtrip(r#"{"id":"p","job":"ping"}"#)),
        "ok"
    );
    server.stop();
    server.join();
}

#[test]
fn mistyped_optional_fields_answer_code_2_instead_of_defaulting() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    for (bad, field) in [
        // Would otherwise cancel as tenant `anon`.
        (
            r#"{"id":"c","job":"cancel","target":"nobody","tenant":5}"#,
            "tenant",
        ),
        // Would otherwise prove under `int` with `pre = true`.
        (
            r#"{"id":"v","job":"verify","vars":"x:-8..8","code":"skip","spec":"x > 0","domain":7,"pre":false}"#,
            "domain",
        ),
    ] {
        let doc = client.roundtrip(bad);
        assert_eq!(status(&doc), "error", "{bad}: {doc:?}");
        assert_eq!(error_code(&doc), Some(2.0), "{bad}: {doc:?}");
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("");
        assert_eq!(msg, format!("`{field}` must be a string"), "{bad}");
        // The schema rejects the same frame.
        assert!(Schema::parse(REQUEST_SCHEMA)
            .unwrap()
            .check(&json::parse(bad).unwrap())
            .is_err());
    }
    // The daemon keeps serving.
    assert_eq!(
        status(&client.roundtrip(r#"{"id":"p","job":"ping"}"#)),
        "ok"
    );
    server.stop();
    server.join();
}

/// The request schema and `parse_request` agree on every checked-in
/// request fixture: `serve-request.valid.jsonl` passes both, every other
/// `serve-request.*.jsonl` line fails both.
#[test]
fn request_fixtures_pass_the_schema_exactly_when_the_parser_accepts_them() {
    let schema = Schema::parse(REQUEST_SCHEMA).unwrap();
    let dir = "../../schemas/fixtures";
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("serve-request."))
        .collect();
    files.sort();
    assert!(files.len() > 1, "{files:?}");
    for name in files {
        let valid = name == "serve-request.valid.jsonl";
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let by_schema = schema.check(&json::parse(line).unwrap()).is_ok();
            let by_parser = parse_request(line).is_ok();
            assert_eq!((by_schema, by_parser), (valid, valid), "{name}: {line}");
        }
    }
}

#[test]
fn oversized_payload_is_rejected_before_allocation() {
    let server = boot(ServeConfig {
        max_frame: 64,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr().unwrap());
    // Declare a huge frame; the server must answer without reading it.
    client.send_raw(b"999999999\n");
    let doc = client.recv();
    assert_eq!(status(&doc), "error");
    assert_eq!(error_code(&doc), Some(2.0));
    let msg = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(msg.contains("exceeds"), "{msg}");
    server.stop();
    server.join();
}

#[test]
fn zero_fuel_request_exhausts_with_code_3() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    let doc = client.roundtrip(
        r#"{"id":"z","job":"verify","vars":"x:0..7","fuel":0,
           "code":"while (x < 7) do { x := x + 1 }","pre":"x = 0","spec":"x = 7"}"#,
    );
    assert_eq!(status(&doc), "error");
    assert_eq!(error_code(&doc), Some(3.0));
    assert_eq!(error_reason(&doc), Some("fuel"));
    server.stop();
    server.join();
}

#[test]
fn cancellation_reaches_a_request_from_another_connection() {
    // One worker, held by a job no speed-up finishes while this test
    // runs, so the victim behind it stays queued: cancelling a *queued*
    // request is deterministic.
    let server = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr().unwrap();
    let mut submitter = Client::connect(addr);
    submitter.send(&holder(r#""id":"head""#));
    submitter.send(
        r#"{"id":"victim","job":"verify","vars":"x:0..7",
           "code":"while (x < 7) do { x := x + 1 }","pre":"x = 0","spec":"x = 7"}"#,
    );
    let mut canceller = Client::connect(addr);
    // Retry until the victim is registered in-flight (admission happens
    // on the reader thread, racing this connection).
    let mut cancelled = false;
    for _ in 0..500 {
        let doc = canceller.roundtrip(r#"{"id":"c","job":"cancel","target":"victim"}"#);
        let detail = doc.get("detail").and_then(Value::as_str).unwrap_or("");
        if detail.contains("signalled") {
            cancelled = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(cancelled, "victim never became cancellable");
    // Release the worker. The holder dies mid-run; the worker then pops
    // the victim and answers it without running it.
    let doc = canceller.roundtrip(r#"{"id":"c2","job":"cancel","target":"head"}"#);
    let detail = doc.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("signalled"), "{detail}");
    let mut saw_victim = false;
    for _ in 0..2 {
        let doc = submitter.recv();
        assert_cancelled(&doc);
        if id_of(&doc) == "victim" {
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str),
                Some("cancelled while queued"),
                "{doc:?}"
            );
            saw_victim = true;
        }
    }
    assert!(saw_victim, "victim response missing");
    server.stop();
    server.join();
}

#[test]
fn newline_free_stream_is_cut_off_at_the_length_line_cap() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    // No newline ever arrives: the server must answer a code-2 error at
    // its length-line cap instead of buffering the stream without bound.
    client.send_raw(&[b'7'; 4096]);
    let doc = client.recv();
    assert_eq!(status(&doc), "error");
    assert_eq!(error_code(&doc), Some(2.0));
    server.stop();
    server.join();
}

#[test]
fn cancel_is_tenant_scoped_and_duplicate_ids_are_rejected() {
    let server = boot(ServeConfig::default());
    let addr = server.addr().unwrap();
    let mut submitter = Client::connect(addr);
    // The victim is a holder job: it is still in flight while every
    // probe below lands, however fast the engine, and only the
    // cancellation at the end stops it.
    let victim = holder(r#""id":"victim","tenant":"alice""#);
    submitter.send(&victim);
    // The reader thread admits frames in order, so a pong proves the
    // victim is registered in flight before we probe it.
    submitter.send(r#"{"id":"barrier","job":"ping"}"#);
    let doc = submitter.recv();
    assert_eq!(id_of(&doc), "barrier");
    // Reusing an in-flight (tenant, id) is a usage error — it must not
    // overwrite the live registration.
    let doc = {
        submitter.send(&victim);
        submitter.recv()
    };
    assert_eq!(id_of(&doc), "victim");
    assert_eq!(error_code(&doc), Some(2.0));
    let msg = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(msg.contains("already in flight"), "{msg}");
    // A different tenant may reuse the id freely: namespaces are per
    // tenant, so this (light) job is admitted and runs alongside alice's.
    // Its verdict runs on a worker and may beat the ping's pong, so read
    // up to the pong, noting carol's verdict if it came first.
    submitter.send(
        r#"{"id":"victim","job":"verify","tenant":"carol","vars":"x:0..7",
           "code":"while (x < 7) do { x := x + 1 }","pre":"x = 0","spec":"x = 7"}"#,
    );
    submitter.send(r#"{"id":"barrier2","job":"ping"}"#);
    let mut saw_carol = false;
    loop {
        let doc = submitter.recv();
        match id_of(&doc) {
            "barrier2" => break,
            "victim" => {
                assert_eq!(status(&doc), "proved", "only carol's verdict can land here");
                assert!(!saw_carol, "carol's verdict arrives once");
                saw_carol = true;
            }
            other => panic!("unexpected frame `{other}` before the pong"),
        }
    }
    // Another tenant cannot cancel alice's job, even knowing its id.
    let mut canceller = Client::connect(addr);
    let doc =
        canceller.roundtrip(r#"{"id":"c1","job":"cancel","tenant":"mallory","target":"victim"}"#);
    let detail = doc.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("no in-flight"), "{detail}");
    // The owning tenant can.
    let doc =
        canceller.roundtrip(r#"{"id":"c2","job":"cancel","tenant":"alice","target":"victim"}"#);
    let detail = doc.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("signalled"), "{detail}");
    // Alice's victim dies cancelled; carol's same-id job is untouched
    // and proves normally.
    let mut saw_cancelled = false;
    while !(saw_cancelled && saw_carol) {
        let doc = submitter.recv();
        if id_of(&doc) != "victim" {
            continue;
        }
        if status(&doc) == "error" {
            assert_cancelled(&doc);
            saw_cancelled = true;
        } else {
            assert_eq!(status(&doc), "proved");
            assert!(!saw_carol, "carol's verdict arrives once");
            saw_carol = true;
        }
    }
    server.stop();
    server.join();
}

#[test]
fn quota_reservations_bound_concurrent_admissions() {
    // Lifetime allowance 10M: while a 600k-fuel request is in flight its
    // fuel is reserved, so a concurrent 9.5M ask from the same tenant
    // must be rejected at admission — requests may never each be
    // admitted against the same remainder. The head job is a holder, so
    // it is in flight when the probe, admitted microseconds later by the
    // same reader thread, hits the quota check, and it settles only when
    // cancelled. Margins are wide on purpose: head can spend at most its
    // declared 600k, so probe2's 9M always fits afterwards and only a
    // still-held reservation could reject the 9.5M probe.
    let server = boot(ServeConfig {
        workers: 1,
        quota: Some(10_000_000),
        ..ServeConfig::default()
    });
    let addr = server.addr().unwrap();
    let mut client = Client::connect(addr);
    client.send(&holder(r#""id":"head","tenant":"t0","fuel":600000"#));
    let doc = client.roundtrip(
        r#"{"id":"probe","job":"verify","tenant":"t0","fuel":9500000,
           "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#,
    );
    assert_eq!(error_code(&doc), Some(3.0), "{doc:?}");
    assert_eq!(error_reason(&doc), Some("quota"));
    // Once head settles, its reservation is released and only actual
    // spend is charged — 9M now fits.
    let doc = Client::connect(addr)
        .roundtrip(r#"{"id":"c","job":"cancel","tenant":"t0","target":"head"}"#);
    let detail = doc.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("signalled"), "{detail}");
    let doc = client.recv();
    assert_eq!(id_of(&doc), "head");
    assert_cancelled(&doc);
    let doc = client.roundtrip(
        r#"{"id":"probe2","job":"verify","tenant":"t0","fuel":9000000,
           "vars":"x:0..1","code":"skip","pre":"true","spec":"true"}"#,
    );
    assert_eq!(status(&doc), "proved", "{doc:?}");
    server.stop();
    server.join();
}

#[test]
fn served_repair_verdict_is_byte_identical_to_the_cli_path() {
    use air_core::{EnumDomain, Verifier};
    use air_domains::OctagonDomain;
    use air_lang::{parse_bexp, parse_program, Concrete, Universe};

    let code = "if (x >= 0) then { skip } else { x := 0 - x }";
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    let doc = client.roundtrip(&format!(
        r#"{{"id":"d1","job":"repair","vars":"x:-8..8","domain":"oct",
           "code":"{code}","pre":"x != 0","spec":"x != 0"}}"#
    ));
    assert_eq!(status(&doc), "proved");
    let served_report = doc
        .get("report")
        .and_then(Value::as_str)
        .expect("report field");

    // The one-shot path: fresh universe, fresh caches, same inputs —
    // exactly what `air verify` prints.
    let u = Universe::new(&[("x", -8, 8)]).unwrap();
    let dom = EnumDomain::from_abstraction(&u, OctagonDomain::new(&u));
    let prog = parse_program(code).unwrap();
    let conc = Concrete::new(&u);
    let pre = conc.sat(&parse_bexp("x != 0").unwrap()).unwrap();
    let spec = conc.sat(&parse_bexp("x != 0").unwrap()).unwrap();
    let verdict = Verifier::new(&u).backward(dom, &prog, &pre, &spec).unwrap();
    assert_eq!(served_report, verdict.report(&u));
    server.stop();
    server.join();
}

#[test]
fn flush_empties_warm_tables_over_the_wire() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.addr().unwrap());
    let req =
        r#"{"id":"w","job":"verify","vars":"x:-4..4","code":"skip","pre":"true","spec":"true"}"#;
    client.roundtrip(req);
    let doc = client.roundtrip(&req.replace("\"w\"", "\"w2\""));
    assert_eq!(doc.get("warm").and_then(Value::as_bool), Some(true));
    let doc = client.roundtrip(r#"{"id":"f","job":"flush"}"#);
    assert!(doc
        .get("detail")
        .and_then(Value::as_str)
        .unwrap_or("")
        .contains("flushed 1"));
    let doc = client.roundtrip(&req.replace("\"w\"", "\"w3\""));
    assert_eq!(doc.get("warm").and_then(Value::as_bool), Some(false));
    server.stop();
    server.join();
}
