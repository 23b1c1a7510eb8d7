//! Exit-code and fail-soft contract tests against the built `air` binary.
//!
//! The contract: 0 = proved / no alarms, 1 = refuted / alarms, 2 = usage
//! error, 3 = budget exhausted, 4 = internal error. Budgeted runs must
//! stop promptly, report the cutoff, and still produce machine-readable
//! `--stats-json` output in corpus sweeps.

use std::path::PathBuf;
use std::process::{Command, Output};

fn air(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_air"))
        .args(args)
        .output()
        .expect("spawn air binary")
}

fn corpus_dir(sub: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(sub);
    p.display().to_string()
}

const ABSVAL: &[&str] = &[
    "--vars",
    "x:-8..8",
    "--code",
    "if (x >= 1) then { skip } else { x := 1 - x }",
    "--pre",
    "x != 0",
];

#[test]
fn proved_run_exits_zero() {
    let out = air(&[&["verify"], ABSVAL, &["--spec", "x >= 1"]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn refuted_run_exits_one() {
    let out = air(&[
        "verify",
        "--vars",
        "x:0..8",
        "--code",
        "x := x + 1",
        "--pre",
        "x <= 5",
        "--spec",
        "x <= 3",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn missing_spec_is_usage_exit_two() {
    // Regression: `verify` without `--spec` used to panic in run.rs.
    let out = air(&[&["verify"], ABSVAL].concat());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--spec"), "{stderr}");
}

#[test]
fn bad_flags_are_usage_exit_two() {
    let out = air(&["verify", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = air(&[&["verify"], ABSVAL, &["--spec", "x >= 1", "--fuel", "lots"]].concat());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn deeply_nested_programs_are_usage_exit_two() {
    // Each shape overflowed the stack (exit 134) before the parser
    // bounded nesting; each now fails as a parse error.
    let shapes = [
        (
            "parens",
            format!("x := {}x{}", "(".repeat(200_000), ")".repeat(200_000)),
        ),
        ("plus", format!("x := x{}", " + 0".repeat(50_000))),
        ("skips", format!("{}skip", "skip; ".repeat(50_000))),
    ];
    for (name, code) in shapes {
        let path = std::env::temp_dir().join(format!("air_cli_nesting_{name}.imp"));
        std::fs::write(&path, code).unwrap();
        let file = path.display().to_string();
        let out = air(&[
            "verify", "--file", &file, "--vars", "x:0..3", "--pre", "true", "--spec", "true",
        ]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("nesting deeper"), "{name}: {stderr}");
    }
}

#[test]
fn exhausted_fuel_exits_three_with_partial_report() {
    let out = air(&[
        "verify",
        "--vars",
        "x:0..120,y:0..120",
        "--code",
        "while (y >= 1) do { x := x + 1; y := y - 1 }",
        "--pre",
        "x = 0 && y = 120",
        "--spec",
        "x = 120 && y = 0",
        "--fuel",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BUDGET EXHAUSTED"), "{stdout}");
    assert!(stdout.contains("sound over-approximation"), "{stdout}");
}

#[test]
fn corpus_timeout_exits_three_and_stats_json_stays_valid() {
    let out = air(&[
        "corpus",
        "--dir",
        &corpus_dir("corpus/slow"),
        "--timeout-ms",
        "40",
        "--stats-json",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The fail-soft sweep still emits its JSON line, with the budget
    // status recorded per program.
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("stats json line");
    let doc = air_trace::json::parse(json_line).expect("valid stats json");
    let programs = doc
        .get("programs")
        .and_then(air_trace::json::Value::as_arr)
        .expect("programs array");
    assert!(!programs.is_empty());
    let status = programs[0]
        .get("status")
        .and_then(air_trace::json::Value::as_str)
        .expect("status field");
    assert_eq!(status, "budget", "{json_line}");
    assert!(programs[0].get("phase").is_some(), "{json_line}");
}

#[test]
fn default_corpus_sweep_still_proves_everything() {
    let out = air(&["corpus", "--dir", &corpus_dir("corpus"), "--stats-json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("stats json line");
    let doc = air_trace::json::parse(json_line).expect("valid stats json");
    let programs = doc
        .get("programs")
        .and_then(air_trace::json::Value::as_arr)
        .expect("programs array");
    assert!(programs.len() >= 6);
    for p in programs {
        assert_eq!(
            p.get("status").and_then(air_trace::json::Value::as_str),
            Some("proved")
        );
    }
}

#[test]
fn trace_file_records_budget_exhaustion_event() {
    let path = std::env::temp_dir().join("air_cli_bin_budget_trace.jsonl");
    let out = air(&[
        "verify",
        "--vars",
        "x:0..40",
        "--code",
        "while (x < 40) do { x := x + 1 }",
        "--pre",
        "x = 0",
        "--spec",
        "x = 40",
        "--fuel",
        "3",
        "--trace",
        &path.display().to_string(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"kind\":\"budget_exhausted\""), "{text}");
    let _ = std::fs::remove_file(&path);
}

fn json_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("stats json line")
        .to_string()
}

#[test]
fn chaos_sweep_is_deterministic_and_clean() {
    let dir = corpus_dir("corpus");
    let args = [
        "chaos",
        "--dir",
        &dir,
        "--plans",
        "12",
        "--seed",
        "7",
        "--stats-json",
    ];
    let first = air(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let second = air(&args);
    assert_eq!(second.status.code(), Some(0), "{second:?}");
    let (a, b) = (json_line(&first), json_line(&second));
    // Same seeds, same fault schedules, byte-identical report.
    assert_eq!(a, b);
    assert!(a.contains("\"aborts\":0"), "{a}");
    assert!(a.contains("\"soundness_violations\":0"), "{a}");
    // The sweep is not vacuous: faults actually fired.
    let doc = air_trace::json::parse(&a).expect("valid chaos json");
    let injected = doc
        .get("injected")
        .and_then(air_trace::json::Value::as_num)
        .expect("injected field");
    assert!(injected > 0.0, "{a}");
}

#[test]
fn fuzz_checkpoint_halt_and_resume_matches_uninterrupted() {
    let tmp = std::env::temp_dir().join("air_cli_fuzz_halt_resume");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let corpus_a = tmp.join("a").display().to_string();
    let corpus_b = tmp.join("b").display().to_string();
    let cp = tmp.join("cp.json");
    let cp_s = cp.display().to_string();
    let reference = air(&[
        "fuzz",
        "run",
        "--seed",
        "11",
        "--cases",
        "12",
        "--stats-json",
        "--corpus-dir",
        &corpus_a,
    ]);
    let want = json_line(&reference);
    // Crash simulation: stop after 5 cases with the checkpoint written.
    let halted = air(&[
        "fuzz",
        "run",
        "--seed",
        "11",
        "--cases",
        "12",
        "--corpus-dir",
        &corpus_b,
        "--checkpoint",
        &cp_s,
        "--halt-after",
        "5",
    ]);
    assert_eq!(halted.status.code(), Some(0), "{halted:?}");
    assert!(
        String::from_utf8_lossy(&halted.stdout).contains("halted after"),
        "{halted:?}"
    );
    assert!(cp.exists(), "checkpoint file missing after halt");
    let resumed = air(&[
        "fuzz",
        "run",
        "--seed",
        "11",
        "--cases",
        "12",
        "--stats-json",
        "--corpus-dir",
        &corpus_b,
        "--checkpoint",
        &cp_s,
        "--resume",
    ]);
    assert_eq!(json_line(&resumed), want);
    assert!(!cp.exists(), "checkpoint not removed after completion");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn fuzz_checkpoint_survives_sigkill() {
    let tmp = std::env::temp_dir().join("air_cli_fuzz_sigkill");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let corpus_a = tmp.join("a").display().to_string();
    let corpus_b = tmp.join("b").display().to_string();
    let cp = tmp.join("cp.json");
    let cp_s = cp.display().to_string();
    let reference = air(&[
        "fuzz",
        "run",
        "--seed",
        "5",
        "--cases",
        "600",
        "--stats-json",
        "--corpus-dir",
        &corpus_a,
    ]);
    let want = json_line(&reference);
    let mut child = Command::new(env!("CARGO_BIN_EXE_air"))
        .args([
            "fuzz",
            "run",
            "--seed",
            "5",
            "--cases",
            "600",
            "--corpus-dir",
            &corpus_b,
            "--checkpoint",
            &cp_s,
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn air binary");
    // Wait for the first periodic checkpoint, then SIGKILL mid-sweep.
    // If the campaign outruns the poll, the child already finished and
    // resume below degrades to a fresh (still equal) run.
    for _ in 0..2000 {
        if cp.exists() || child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();
    let resumed = air(&[
        "fuzz",
        "run",
        "--seed",
        "5",
        "--cases",
        "600",
        "--stats-json",
        "--corpus-dir",
        &corpus_b,
        "--checkpoint",
        &cp_s,
        "--resume",
    ]);
    assert_eq!(json_line(&resumed), want);
    assert!(!cp.exists(), "checkpoint not removed after completion");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn corpus_resume_restores_checkpointed_rows() {
    let dir = corpus_dir("corpus");
    let tmp = std::env::temp_dir().join("air_cli_corpus_resume");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let cp = tmp.join("cp.json");
    // A fabricated crash leftover: absval already done, with a point
    // count no real run produces — proof that the row was restored, not
    // re-verified.
    std::fs::write(
        &cp,
        format!(
            "{{\"schema\":\"air-corpus-checkpoint/1\",\"dir\":\"{dir}\",\"rows\":[{{\"name\":\"absval\",\"status\":\"proved\",\"points\":99}}]}}\n"
        ),
    )
    .unwrap();
    let out = air(&[
        "corpus",
        "--dir",
        &dir,
        "--checkpoint",
        &cp.display().to_string(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let absval_row = stdout
        .lines()
        .find(|l| l.contains("absval"))
        .expect("absval row");
    assert!(absval_row.contains("99 point(s)"), "{absval_row}");
    assert!(!cp.exists(), "checkpoint not removed after completion");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn serve_stdio_round_trip_warm_cache_and_clean_drain() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_air"))
        .args(["serve", "--stdio", "--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn air binary");
    let mut stdin = child.stdin.take().expect("stdin");
    let verify = r#"{"id":"VID","job":"verify","vars":"x:-8..8","code":"if (x >= 1) then { skip } else { x := 1 - x }","pre":"x != 0","spec":"x >= 1"}"#;
    let frames = [
        r#"{"id":"p1","job":"ping"}"#.to_string(),
        verify.replace("VID", "v1"),
        verify.replace("VID", "v2"),
        r#"{"id":"bye","job":"shutdown"}"#.to_string(),
    ];
    for payload in &frames {
        write!(stdin, "{}\n{}\n", payload.len(), payload).expect("write frame");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("drain");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(r#""detail":"pong""#), "{stdout}");
    assert!(stdout.contains(r#""status":"proved""#), "{stdout}");
    // Same (vars, domain) key: the second verify must hit the warm table.
    assert!(stdout.contains(r#""warm":true"#), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("air-serve listening stdio"), "{stderr}");
    assert!(stderr.contains("aborts=0"), "{stderr}");
}

#[test]
fn serve_without_transport_is_usage_exit_two() {
    let out = air(&["serve"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// Shared driver for the resume-correctness sweeps below: run an
/// uninterrupted reference campaign, then for every halt index kill
/// the campaign there (`--halt-after`), resume it, and require the
/// resumed stdout to be byte-identical to the reference. `extra` adds
/// the distribution flags for the sharded variant.
fn resume_sweep_matches(tag: &str, extra: &[&str]) {
    let tmp = std::env::temp_dir().join(format!("air_cli_resume_sweep_{tag}"));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let cases = "6";
    let base: Vec<&str> = [
        "fuzz",
        "run",
        "--seed",
        "11",
        "--cases",
        cases,
        "--stats-json",
    ]
    .into_iter()
    .chain(extra.iter().copied())
    .collect();
    let reference = air(&base);
    assert_eq!(reference.status.code(), Some(0), "{reference:?}");
    let want = String::from_utf8_lossy(&reference.stdout).to_string();
    for halt in 1..=5u64 {
        let cp = tmp.join(format!("cp{halt}.json"));
        let cp_s = cp.display().to_string();
        let halt_s = halt.to_string();
        let mut halted_args = base.clone();
        halted_args.extend(["--checkpoint", &cp_s, "--halt-after", &halt_s]);
        let halted = air(&halted_args);
        assert_eq!(halted.status.code(), Some(0), "halt {halt}: {halted:?}");
        if !cp.exists() {
            // The halt landed at campaign end (sharded leases can
            // overshoot the halt index); nothing to resume.
            assert_eq!(
                String::from_utf8_lossy(&halted.stdout),
                want,
                "halt {halt} completed but the report differs"
            );
            continue;
        }
        let mut resume_args = base.clone();
        resume_args.extend(["--checkpoint", &cp_s, "--resume"]);
        let resumed = air(&resume_args);
        assert_eq!(resumed.status.code(), Some(0), "resume {halt}: {resumed:?}");
        assert_eq!(
            String::from_utf8_lossy(&resumed.stdout),
            want,
            "resume after halt {halt} is not byte-identical"
        );
        assert!(!cp.exists(), "halt {halt}: checkpoint left behind");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn fuzz_resume_sweep_every_halt_index_matches_uninterrupted() {
    resume_sweep_matches("single", &[]);
}

#[test]
fn fuzz_sharded_resume_sweep_every_halt_index_matches_uninterrupted() {
    resume_sweep_matches("sharded", &["--shards", "2", "--lease", "2"]);
}

#[test]
fn fuzz_sharded_report_is_byte_identical_to_single_process() {
    let base = [
        "fuzz",
        "run",
        "--seed",
        "3",
        "--cases",
        "24",
        "--stats-json",
    ];
    let single = air(&base);
    assert_eq!(single.status.code(), Some(0), "{single:?}");
    for shards in ["1", "4"] {
        let mut args = base.to_vec();
        args.extend(["--shards", shards]);
        let sharded = air(&args);
        assert_eq!(
            sharded.status.code(),
            Some(0),
            "shards {shards}: {sharded:?}"
        );
        assert_eq!(
            String::from_utf8_lossy(&sharded.stdout),
            String::from_utf8_lossy(&single.stdout),
            "--shards {shards} report differs from single-process"
        );
    }
}

#[test]
fn fuzz_sharded_survives_chaos_worker_kills_byte_identically() {
    let base = [
        "fuzz",
        "run",
        "--seed",
        "3",
        "--cases",
        "24",
        "--stats-json",
    ];
    let single = air(&base);
    assert_eq!(single.status.code(), Some(0), "{single:?}");
    let mut args = base.to_vec();
    args.extend([
        "--shards",
        "4",
        "--lease",
        "2",
        "--kill-workers",
        "2",
        "--kill-seed",
        "7",
    ]);
    let killed = air(&args);
    assert_eq!(killed.status.code(), Some(0), "{killed:?}");
    assert_eq!(
        String::from_utf8_lossy(&killed.stdout),
        String::from_utf8_lossy(&single.stdout),
        "report under worker SIGKILLs differs from single-process"
    );
    let stderr = String::from_utf8_lossy(&killed.stderr);
    assert!(stderr.contains("killed"), "{stderr}");
}

#[test]
fn chaos_sharded_report_is_byte_identical_to_single_process() {
    let dir = corpus_dir("corpus");
    let base = ["chaos", "--dir", &dir, "--plans", "6", "--seed", "5"];
    let single = air(&base);
    assert_eq!(single.status.code(), Some(0), "{single:?}");
    let mut args = base.to_vec();
    args.extend(["--shards", "2"]);
    let sharded = air(&args);
    assert_eq!(sharded.status.code(), Some(0), "{sharded:?}");
    assert_eq!(
        String::from_utf8_lossy(&sharded.stdout),
        String::from_utf8_lossy(&single.stdout),
        "--shards 2 chaos report differs from single-process"
    );
}
