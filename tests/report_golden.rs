//! Byte-for-byte pins on the rendered verdict reports.
//!
//! Every `corpus/*.imp` question is decided under {int, oct, karr} ×
//! {backward, forward}, once with its header's precondition and once
//! with `pre "true"` (which refutes `absval`, `nondet_walk` and
//! `two_phase`, so the refutation lines are pinned too). Each case
//! renders what `air verify` prints from the box cover: the `input:`
//! line, the verdict report, and on a refutation the valid and invalid
//! inputs. The text must equal `tests/golden/reports.txt`.
//!
//! On a mismatch the test writes what it rendered to
//! `reports.actual.txt` under Cargo's per-target scratch directory and
//! names the first differing line; copy that file over the golden one
//! only when a change to the rendering is intended.

use std::fmt::Write as _;

use air::core::question::load_corpus;
use air::core::summarize::display_set;
use air::core::{DomainKind, Strategy, Verifier};

const GOLDEN: &str = include_str!("golden/reports.txt");

fn render_all() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = String::new();
    for (name, question) in load_corpus(dir, DomainKind::Int).expect("corpus loads") {
        for pre in [question.pre.clone(), "true".to_owned()] {
            for domain in [DomainKind::Int, DomainKind::Oct, DomainKind::Karr] {
                for strategy in [Strategy::Backward, Strategy::Forward] {
                    let mut q = question.clone();
                    q.pre = pre.clone();
                    q.domain = domain;
                    let b = q.build().expect("corpus question builds");
                    let u = &b.universe;
                    let verdict = Verifier::new(u)
                        .verify(strategy, b.domain, &b.program, &b.pre, &b.spec)
                        .expect("corpus question decides");
                    let _ = writeln!(
                        out,
                        "## {name} {} {} pre \"{pre}\"",
                        domain.name(),
                        strategy.name()
                    );
                    let _ = writeln!(out, "input:     {}", display_set(u, &b.pre));
                    out.push_str(&verdict.report(u));
                    if !verdict.is_proved() {
                        let valid = verdict.valid_input().intersection(&b.pre);
                        let _ = writeln!(out, "valid inputs: {}", display_set(u, &valid));
                        let invalid = b.pre.difference(&valid);
                        let _ = writeln!(out, "invalid inputs: {}", display_set(u, &invalid));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn corpus_reports_match_the_golden_file() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("reports.actual.txt");
    std::fs::write(&path, &actual).expect("write the rendered reports");
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
        "rendered reports differ from tests/golden/reports.txt at line {line}:\n  \
         golden: {want}\n  actual: {got}\nfull render: {}",
        path.display()
    );
}
