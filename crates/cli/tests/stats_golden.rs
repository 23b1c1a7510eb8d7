//! Byte-for-byte pins on every counter `air --stats-json` prints.
//!
//! Every `corpus/*.imp` header question runs through the built `air`
//! binary:
//!
//! - `air verify` under all seven domains × {backward, forward} ×
//!   {default, `--uncached`, `--engine symbolic`};
//! - `air analyze` and `air prove` under {int, oct, karr} × {default,
//!   `--uncached`, `--engine symbolic`}.
//!
//! Each case records a `## name domain strategy mode` line (the
//! strategy column is the subcommand for `analyze`/`prove`), the verdict
//! lines, the stats JSON without its `wall_ms` field and the exit code.
//! The semantic-cache, closure-cache and interner counters are
//! deterministic, so the text must equal `tests/golden/stats.txt`. The
//! `--engine symbolic` rows on `int` show zero exec/wlp lookups: those
//! repairs, analyses and derivations run on decision diagrams, which
//! memoize nothing.
//!
//! On a mismatch the test writes what it rendered to `stats.actual.txt`
//! under Cargo's per-target scratch directory and names the first
//! differing line; copy that file over the golden one only when a change
//! to the counters is intended.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use air_core::question::{load_corpus, render_vars};
use air_core::DomainKind;

const GOLDEN: &str = include_str!("../../../tests/golden/stats.txt");

/// The run modes of every question, with their extra flags.
const MODES: [(&str, &[&str]); 3] = [
    ("default", &[]),
    ("uncached", &["--uncached"]),
    ("symbolic", &["--engine", "symbolic"]),
];

/// Stdout lines that carry a verdict, by prefix.
const VERDICT_LINES: [&str; 7] = [
    "PROVED",
    "REFUTED",
    "SPEC VALID",
    "TRUE ALARM",
    "alarms:",
    "true alarms:",
    "false alarms:",
];

fn repo_path(sub: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(sub);
    p.display().to_string()
}

/// Runs `air` on one case and appends its record to `out`.
fn record(out: &mut String, head: &str, args: &[&str]) {
    let run = Command::new(env!("CARGO_BIN_EXE_air"))
        .args(args)
        .output()
        .expect("spawn air binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let _ = writeln!(out, "## {head}");
    for line in stdout.lines() {
        if VERDICT_LINES.iter().any(|p| line.starts_with(p)) {
            let _ = writeln!(out, "{line}");
        } else if line.starts_with("{\"label\"") {
            let _ = writeln!(out, "{}", strip_wall_ms(line));
        }
    }
    let _ = writeln!(out, "exit {}", run.status.code().unwrap_or(-1));
}

/// The stats line without its `"wall_ms":…,` field.
fn strip_wall_ms(line: &str) -> String {
    let Some(start) = line.find("\"wall_ms\":") else {
        return line.to_owned();
    };
    let end = line[start..]
        .find(',')
        .map_or(line.len(), |i| start + i + 1);
    format!("{}{}", &line[..start], &line[end..])
}

fn render_all() -> String {
    let dir = repo_path("corpus");
    let mut out = String::new();
    for (name, q) in load_corpus(&dir, DomainKind::Int).expect("corpus loads") {
        let file = format!("{dir}/{name}.imp");
        let vars = render_vars(&q.vars);
        let spec = q.spec.clone().expect("corpus questions carry a spec");
        let question = [
            "--file",
            file.as_str(),
            "--vars",
            vars.as_str(),
            "--pre",
            q.pre.as_str(),
            "--spec",
            spec.as_str(),
            "--stats-json",
        ];
        for domain in DomainKind::ALL {
            for strategy in ["backward", "forward"] {
                for (mode, extra) in MODES {
                    let mut args = vec!["verify", "--domain", domain.name()];
                    args.extend(["--strategy", strategy]);
                    args.extend(question);
                    args.extend(extra);
                    let head = format!("{name} {} {strategy} {mode}", domain.name());
                    record(&mut out, &head, &args);
                }
            }
        }
        for sub in ["analyze", "prove"] {
            for domain in [DomainKind::Int, DomainKind::Oct, DomainKind::Karr] {
                for (mode, extra) in MODES {
                    let mut args = vec![sub, "--domain", domain.name()];
                    args.extend(question);
                    args.extend(extra);
                    let head = format!("{name} {} {sub} {mode}", domain.name());
                    record(&mut out, &head, &args);
                }
            }
        }
    }
    out
}

#[test]
fn stats_counters_match_the_golden_file() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stats.actual.txt");
    std::fs::write(&path, &actual).expect("write the rendered stats");
    let (line, want, got) = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| (i + 1, w, g))
        .unwrap_or((
            GOLDEN.lines().count().min(actual.lines().count()) + 1,
            "<end or trailing difference>",
            "<end or trailing difference>",
        ));
    panic!(
        "stats differ from tests/golden/stats.txt at line {line}:\n  \
         golden: {want}\n  actual: {got}\nfull render: {}",
        path.display()
    );
}
