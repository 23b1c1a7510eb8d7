//! Check a JSONL file of wire documents against a schema under
//! `schemas/`.
//!
//! ```text
//! schema_check SCHEMA FILE [--prev FILE] [--require-warm-hits]
//! ```
//!
//! FILE holds one JSON document per non-empty line: a trace, a dist
//! frame log, a serve transcript, a fuzz report line or a metrics
//! snapshot. Each document must pass SCHEMA (the dialect of
//! [`air_trace::schema`]) and then the semantic hook that the schema's
//! `$id` selects, for what a shape cannot say:
//!
//! - `fuzz-report`: oracle names and theorems against the `air_fuzz`
//!   registry, and the counter sums;
//! - `metrics-snapshot`: integral counters, buckets that ascend and sum
//!   to the row's count; with `--prev FILE`, no counter series or
//!   histogram count below FILE's last snapshot; with
//!   `--require-warm-hits`, a warm request-latency sample and a
//!   warm-table hit in every snapshot;
//! - `dist-frame`: each frame flows in its direction.
//!
//! Exit code 0 when every document passes, 1 at the first violation,
//! 2 on a usage error.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use air_trace::json::{self, Value};
use air_trace::Schema;

const USAGE: &str = "usage: schema_check SCHEMA FILE [--prev FILE] [--require-warm-hits]";

/// Frames the coordinator sends; it receives every other frame.
const SENT_BY_COORDINATOR: &[&str] = &["lease", "truncate", "shutdown"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            // A closed pipe (`| head`) must not turn a pass into a panic.
            let _ = writeln!(std::io::stdout(), "{report}");
            ExitCode::SUCCESS
        }
        Err((code, e)) => {
            eprintln!("schema_check: {e}");
            if code == 2 {
                eprintln!("{USAGE}");
            }
            ExitCode::from(code)
        }
    }
}

/// Checks what `args` names; an error carries its exit code.
fn run(args: &[String]) -> Result<String, (u8, String)> {
    let usage = |e: String| (2, e);
    let invalid = |e: String| (1, e);
    let (mut paths, mut prev, mut require_warm_hits) = (Vec::new(), None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prev" => prev = Some(it.next().ok_or(usage("--prev needs a FILE".into()))?),
            "--require-warm-hits" => require_warm_hits = true,
            flag if flag.starts_with("--") => return Err(usage(format!("unknown flag {flag:?}"))),
            path => paths.push(path),
        }
    }
    let [schema_path, path] = paths[..] else {
        return Err(usage("expected SCHEMA and FILE".into()));
    };
    let schema = Schema::parse(&read(schema_path).map_err(invalid)?)
        .map_err(|e| invalid(format!("{schema_path}: {e}")))?;
    if (prev.is_some() || require_warm_hits) && schema.id() != "metrics-snapshot" {
        let id = schema.id();
        return Err(usage(format!(
            "--prev and --require-warm-hits need metrics-snapshot, not {id}"
        )));
    }
    let mut counts = BTreeMap::new();
    let docs = check_file(&schema, path, &mut counts).map_err(invalid)?;
    let mut report = format!("{path}: {} {} document(s) valid", docs.len(), schema.id());
    for (variant, n) in &counts {
        report.push_str(&format!("\n  {variant:<20} {n}"));
    }
    if let Some(prev_path) = prev {
        let before = check_file(&schema, prev_path, &mut BTreeMap::new()).map_err(invalid)?;
        for doc in &docs {
            monotone(&before[before.len() - 1], doc)
                .map_err(|e| invalid(format!("{path} vs {prev_path}: {e}")))?;
        }
        report.push_str(&format!("\n  monotone over {prev_path}"));
    }
    if require_warm_hits {
        for doc in &docs {
            warm_hits(doc).map_err(|e| invalid(format!("{path}: {e}")))?;
        }
        report.push_str("\n  warm activity present");
    }
    Ok(report)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Parses and checks every document of `path`, counting variants.
fn check_file<'s>(
    schema: &'s Schema,
    path: &str,
    counts: &mut BTreeMap<&'s str, usize>,
) -> Result<Vec<Value>, String> {
    let mut docs = Vec::new();
    for (idx, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", idx + 1);
        let doc = json::parse(line).map_err(|e| at(format!("malformed JSON: {e}")))?;
        if let Some(variant) = schema.check(&doc).map_err(at)? {
            *counts.entry(variant).or_default() += 1;
        }
        hook(schema.id(), &doc).map_err(at)?;
        docs.push(doc);
    }
    if docs.is_empty() {
        return Err(format!("{path}: no documents"));
    }
    Ok(docs)
}

/// The per-document checks a schema cannot state. The document has
/// passed its schema, so every field read here exists with its type.
fn hook(id: &str, doc: &Value) -> Result<(), String> {
    match id {
        "fuzz-report" => fuzz_counters(doc),
        "metrics-snapshot" => metrics_rows(doc),
        "dist-frame" => {
            let dir = text(doc, "dir");
            let tag = doc.get("frame").map_or("", |frame| text(frame, "frame"));
            if SENT_BY_COORDINATOR.contains(&tag) != (dir == "send") {
                return Err(format!("frame {tag:?} cannot flow in direction {dir:?}"));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn text<'a>(v: &'a Value, field: &str) -> &'a str {
    v.get(field).and_then(Value::as_str).unwrap_or_default()
}

fn num(v: &Value, field: &str) -> f64 {
    v.get(field).and_then(Value::as_num).unwrap_or_default()
}

fn rows<'a>(v: &'a Value, field: &str) -> &'a [Value] {
    v.get(field).and_then(Value::as_arr).unwrap_or_default()
}

fn fuzz_counters(doc: &Value) -> Result<(), String> {
    let registry = air_fuzz::oracles::registry();
    let oracles = rows(doc, "oracles");
    if oracles.is_empty() {
        return Err("\"oracles\" is empty: even a restricted campaign has one row".into());
    }
    let built = num(doc, "built");
    for (i, row) in oracles.iter().enumerate() {
        let (name, theorem) = (text(row, "name"), text(row, "theorem"));
        match registry.iter().find(|(n, _)| *n == name) {
            None => return Err(format!("oracles[{i}]: unknown oracle {name:?}")),
            Some((_, known)) if *known != theorem => {
                return Err(format!(
                    "oracles[{i}]: theorem {theorem:?} drifted from {known:?}"
                ))
            }
            Some(_) => {}
        }
        let ran = num(row, "runs") + num(row, "skips");
        if ran > built {
            return Err(format!(
                "oracles[{i}]: runs + skips = {ran} exceeds built = {built}"
            ));
        }
    }
    // An unrestricted campaign (more than one row) has exactly the
    // registry's rows: a missing oracle means silent drift.
    if oracles.len() > 1 && oracles.len() != registry.len() {
        let (rows, oracles) = (oracles.len(), registry.len());
        return Err(format!(
            "report has {rows} oracle rows; the registry has {oracles}"
        ));
    }
    if built + num(doc, "build_skips") != num(doc, "cases") {
        return Err("built + build_skips != cases".into());
    }
    if num(doc, "violations") < oracles.iter().map(|row| num(row, "violations")).sum() {
        return Err("total violations below the per-oracle sum".into());
    }
    Ok(())
}

/// `row.field` as a non-negative integer.
fn uint(row: &Value, field: &str, at: &str) -> Result<u64, String> {
    let n = num(row, field);
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{at}.{field} = {n} is not a non-negative integer"));
    }
    Ok(n as u64)
}

fn metrics_rows(doc: &Value) -> Result<(), String> {
    for (i, row) in rows(doc, "counters").iter().enumerate() {
        uint(row, "value", &format!("counters[{i}]"))?;
    }
    for (i, row) in rows(doc, "gauges").iter().enumerate() {
        // Gauges may be negative but are integral.
        if num(row, "value").fract() != 0.0 {
            return Err(format!("gauges[{i}].value is not an integer"));
        }
    }
    for (i, row) in rows(doc, "histograms").iter().enumerate() {
        let at = format!("histograms[{i}]");
        for field in ["sum", "p50", "p90", "p99"] {
            uint(row, field, &at)?;
        }
        // Snapshots are taken at quiescence, so the sum is exact.
        let (count, mut total, mut last_le) = (uint(row, "count", &at)?, 0, None);
        for (j, bucket) in rows(row, "buckets").iter().enumerate() {
            let at = format!("{at}.buckets[{j}]");
            let le = uint(bucket, "le", &at)?;
            if let Some(prev) = last_le.filter(|prev| le <= *prev) {
                return Err(format!("{at}: le {le} not above previous {prev}"));
            }
            last_le = Some(le);
            total += uint(bucket, "count", &at)?;
        }
        if total != count {
            return Err(format!(
                "{at}: bucket counts sum to {total} but count is {count}"
            ));
        }
    }
    Ok(())
}

/// `name{k=v,...}`: the identity of one series across snapshots.
fn series_key(row: &Value) -> String {
    let labels = row
        .get("labels")
        .and_then(Value::as_obj)
        .into_iter()
        .flatten();
    let labels: Vec<String> = labels
        .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
        .collect();
    format!("{}{{{}}}", text(row, "name"), labels.join(","))
}

/// Every counter series and histogram count in `prev` still exists in
/// `cur` and is no smaller: both snapshots come from one daemon
/// lifetime, and these numbers only go up.
fn monotone(prev: &Value, cur: &Value) -> Result<(), String> {
    for (section, field) in [("counters", "value"), ("histograms", "count")] {
        let now: BTreeMap<String, f64> = rows(cur, section)
            .iter()
            .map(|row| (series_key(row), num(row, field)))
            .collect();
        for row in rows(prev, section) {
            let (key, was) = (series_key(row), num(row, field));
            match now.get(&key) {
                None => return Err(format!("{section} series {key} disappeared")),
                Some(now) if *now < was => {
                    return Err(format!(
                        "{section} series {key} went backwards: {was} -> {now}"
                    ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// The CI smoke run replays identical programs, so the warm path must
/// have fired: a warm request-latency sample and a warm-table lookup hit.
fn warm_hits(doc: &Value) -> Result<(), String> {
    for (section, name, (label, value), field, absent) in [
        (
            "histograms",
            "air_serve_request_duration_ns",
            ("temp", "warm"),
            "count",
            "no warm request-latency samples (temp=\"warm\" histogram empty)",
        ),
        (
            "counters",
            "air_serve_warm_lookups_total",
            ("result", "hit"),
            "value",
            "no warm-table lookup hits (air_serve_warm_lookups_total result=\"hit\")",
        ),
    ] {
        let labelled = |row: &Value| row.get("labels").is_some_and(|l| text(l, label) == value);
        let mut rows = rows(doc, section).iter();
        if !rows.any(|row| text(row, "name") == name && labelled(row) && num(row, field) > 0.0) {
            return Err(absent.into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` on `args`. Tests run in `crates/bench`, two levels below
    /// the repository root.
    fn check(args: &[&str]) -> Result<String, (u8, String)> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// The valid snapshot the `--prev` fixtures are checked against.
    const BASE: &str = "../../schemas/fixtures/metrics-snapshot.base.jsonl";

    /// One frame of every kind, each in its direction.
    const FRAME_LOG: &str = "../../schemas/fixtures/dist-frame.valid.jsonl";

    /// One request of every job, with every typed field in range.
    const REQUESTS: &str = "../../schemas/fixtures/serve-request.valid.jsonl";

    /// Every other file `SCHEMA.CASE.jsonl` under `schemas/fixtures/`,
    /// and the reason the checker must reject it for against `SCHEMA`.
    const FIXTURES: &str = r#"
        trace-event.unknown-kind           unknown kind "mystery"
        trace-event.missing-field          missing field "table"
        trace-event.extra-field            unexpected field "bonus"
        trace-event.mistyped-field         seq: expected number, found string
        dist-frame.wrong-direction         frame "lease" cannot flow in direction "recv"
        dist-frame.bad-dir                 dir: "up" is not "send" or "recv"
        dist-frame.unknown-frame           frame: unknown frame "warp"
        dist-frame.extra-field             frame: unexpected field "x"
        dist-frame.missing-field           frame: missing field "next"
        fuzz-report.unknown-oracle         oracles[0]: unknown oracle "telepathy"
        fuzz-report.drifted-theorem        theorem "Theorem 9.9" drifted
        fuzz-report.build-count            built + build_skips != cases
        metrics-snapshot.bad-header        schema: "air-metrics-snapshot/9" is not
        metrics-snapshot.extra-row-field   counters[0]: unexpected field "bonus"
        metrics-snapshot.bucket-sum        bucket counts sum to 2 but count is 3
        metrics-snapshot.unsorted-buckets  le 1 not above previous 3
        metrics-snapshot.regressed         c{t=a} went backwards: 5 -> 4
        metrics-snapshot.vanished          c{t=a} disappeared
        metrics-snapshot.cold-only         no warm request-latency samples
        serve-response.unknown-status      unknown status "victorious"
        serve-response.extra-field         unexpected field "bonus"
        serve-response.missing-field       missing field "detail"
        serve-response.bad-code            error.code: 7 is not 2 or 3 or 4
        serve-request.unknown-job          unknown job "transmogrify"
        serve-request.unknown-domain       domain: "intervals" is not "int"
        serve-request.mistyped-tenant      tenant: expected string, found number
        serve-request.mistyped-domain      domain: 7 is not "int"
        serve-request.negative-fuel        fuel: -3 is below the minimum 0
        serve-request.fractional-priority  priority: expected integer, found number
    "#;

    #[test]
    fn every_negative_fixture_is_rejected_for_its_reason() {
        let fixtures: Vec<(&str, &str)> = FIXTURES
            .lines()
            .filter_map(|line| line.trim().split_once(' '))
            .map(|(fixture, reason)| (fixture, reason.trim()))
            .collect();
        let mut on_disk: Vec<String> = std::fs::read_dir("../../schemas/fixtures")
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| {
                ![BASE, FRAME_LOG, REQUESTS]
                    .iter()
                    .any(|valid| valid.ends_with(name.as_str()))
            })
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = fixtures.iter().map(|(f, _)| format!("{f}.jsonl")).collect();
        listed.sort();
        assert_eq!(on_disk, listed, "every fixture has a reason and vice versa");
        for (fixture, reason) in fixtures {
            let (schema, _) = fixture.split_once('.').unwrap();
            let schema = format!("../../schemas/{schema}.schema.json");
            let file = format!("../../schemas/fixtures/{fixture}.jsonl");
            let flags: &[&str] = match fixture {
                "metrics-snapshot.regressed" | "metrics-snapshot.vanished" => &["--prev", BASE],
                "metrics-snapshot.cold-only" => &["--require-warm-hits"],
                _ => &[],
            };
            match check(&[&[schema.as_str(), file.as_str()], flags].concat()) {
                Err((1, e)) => assert!(e.contains(reason), "{fixture}: {e}"),
                other => panic!("{fixture}: expected a rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn real_documents_pass_every_hook() {
        let options = air_fuzz::FuzzOptions {
            cases: 3,
            ..Default::default()
        };
        // A frame of every kind in its direction; `air-dist` checks the
        // file holds exactly the frames its protocol renders.
        check(&["../../schemas/dist-frame.schema.json", FRAME_LOG]).unwrap();
        check(&["../../schemas/serve-request.schema.json", REQUESTS]).unwrap();
        let report = air_fuzz::run_campaign(&options).to_json();
        hook("fuzz-report", &json::parse(&report).unwrap()).unwrap();
        let metrics = air_metrics::MetricsRegistry::new();
        let hit = [("domain", "int"), ("result", "hit")];
        metrics.observe("air_serve_request_duration_ns", &[("temp", "warm")], 1500);
        metrics.inc("air_serve_warm_lookups_total", &hit);
        metrics.set_gauge("air_serve_queue_depth", &[], -1);
        let snapshot = || json::parse(&metrics.snapshot().to_json()).unwrap();
        let first = snapshot();
        hook("metrics-snapshot", &first).unwrap();
        warm_hits(&first).unwrap();
        // Growth and new series are monotone.
        metrics.inc("air_serve_warm_lookups_total", &hit);
        metrics.inc("air_serve_requests_total", &[("tenant", "anon")]);
        monotone(&first, &first).unwrap();
        monotone(&first, &snapshot()).unwrap();
    }

    #[test]
    fn usage_errors_exit_two() {
        let trace = "../../schemas/trace-event.schema.json";
        for args in [
            &[trace][..],
            &[trace, BASE, "--bogus"],
            &[trace, BASE, "--prev"],
            &[trace, BASE, "--require-warm-hits"],
        ] {
            assert!(matches!(check(args), Err((2, _))), "{args:?}");
        }
    }
}
