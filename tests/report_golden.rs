//! Byte-for-byte pins on the rendered verdict reports.
//!
//! Every `corpus/*.imp` question is decided under {int, oct, karr} ×
//! {backward, forward}, once with its header's precondition and once
//! with `pre "true"` (which refutes `absval`, `nondet_walk` and
//! `two_phase`, so the refutation lines are pinned too). Each case
//! renders what `air verify` prints from the box cover: the `input:`
//! line, the verdict report, and on a refutation the valid and invalid
//! inputs. A second section decides each question through `LCL_A`
//! ([`Lcl::prove_spec`]) under {int, oct, karr} with the header's
//! precondition and renders the verdict, the derivation's size, how
//! many lines of its rendered tree each rule concludes, its
//! postcondition, and the repaired domain's points (the full trees of
//! `division` and `two_phase` alone would add half a megabyte). The text must equal
//! `tests/golden/reports.txt`.
//!
//! On a mismatch the test writes what it rendered to
//! `reports.actual.txt` under Cargo's per-target scratch directory and
//! names the first differing line; copy that file over the golden one
//! only when a change to the rendering is intended.

use std::fmt::Write as _;

use air::core::question::load_corpus;
use air::core::summarize::display_set;
use air::core::{DomainKind, Engine, Lcl, SpecVerdict, Strategy, Verifier};

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
    render_lcl(dir, &mut out);
    out
}

/// The `LCL_A` section: the verdict line `air prove` prints for each
/// corpus header question, the derivation's size and post, and every
/// repaired point.
fn render_lcl(dir: &str, out: &mut String) {
    for (name, question) in load_corpus(dir, DomainKind::Int).expect("corpus loads") {
        for domain in [DomainKind::Int, DomainKind::Oct, DomainKind::Karr] {
            let mut q = question.clone();
            q.domain = domain;
            let b = q.build().expect("corpus question builds");
            let u = &b.universe;
            let verdict = Lcl::new(u)
                .prove_spec(b.domain, &b.pre, &b.program, &b.spec)
                .expect("corpus question decides through LCL");
            let _ = writeln!(out, "## {name} {} lcl pre \"{}\"", domain.name(), q.pre);
            let (derivation, repaired) = match &verdict {
                SpecVerdict::Valid { derivation, domain } => {
                    out.push_str("SPEC VALID\n");
                    (derivation, domain)
                }
                SpecVerdict::TrueAlarm {
                    derivation,
                    domain,
                    witness,
                } => {
                    let store = u.display_store(&u.store_at(*witness));
                    let _ = writeln!(out, "TRUE ALARM: reachable store {store} violates the spec");
                    (derivation, domain)
                }
            };
            let _ = writeln!(out, "derivation: {} rule applications", derivation.size());
            let _ = writeln!(out, "{}", rule_counts(&derivation.render(u)));
            let _ = writeln!(out, "post: {}", display_set(u, &derivation.triple().post));
            let _ = writeln!(out, "points added: {}", repaired.num_points());
            for point in repaired.points() {
                let _ = writeln!(out, "  {}", display_set(u, point));
            }
        }
    }
}

/// How often each rule concludes a line of the rendered tree, read from
/// the trailing `(rule)` token of every line, so the count depends on the
/// rendering alone and not on how the tree is stored.
fn rule_counts(rendered: &str) -> String {
    let rules = ["transfer", "seq", "join", "rec", "iterate"];
    let mut counts = [0usize; 5];
    for line in rendered.lines() {
        let token = line.rsplit(' ').next().unwrap_or("");
        let rule = token.trim_start_matches('(').trim_end_matches(')');
        let i = rules
            .iter()
            .position(|r| *r == rule)
            .unwrap_or_else(|| panic!("unexpected rule in `{line}`"));
        counts[i] += 1;
    }
    let fields: Vec<String> = rules
        .iter()
        .zip(counts)
        .map(|(rule, n)| format!("{rule} {n}"))
        .collect();
    format!("rules: {}", fields.join(", "))
}

/// On every corpus header question under `int`, what `air prove` and
/// `air analyze` print is the same on both engines: the LCL_A verdict,
/// the derivation's size, its whole rendered tree and post, the repaired
/// points, and the unrepaired analysis's alarm counts.
#[test]
fn corpus_lcl_and_alarms_agree_across_engines() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    for (name, mut question) in load_corpus(dir, DomainKind::Int).expect("corpus loads") {
        question.domain = DomainKind::Int;
        let b = question.build().expect("corpus question builds");
        let u = &b.universe;
        let answer = |engine| {
            let lcl = Lcl::new(u).engine(engine);
            let verdict = lcl.prove_spec(b.domain.clone(), &b.pre, &b.program, &b.spec);
            let (witness, derivation, domain) = match verdict.expect("decides through LCL") {
                SpecVerdict::Valid { derivation, domain } => (None, derivation, domain),
                SpecVerdict::TrueAlarm {
                    derivation,
                    domain,
                    witness,
                } => (Some(witness), derivation, domain),
            };
            let alarms = Verifier::new(u)
                .engine(engine)
                .alarm_counts(&b.domain, &b.program, &b.pre, &b.spec)
                .expect("analyzes");
            let tree = (derivation.size(), derivation.render(u));
            let post = display_set(u, &derivation.triple().post);
            (witness, tree, post, domain.points().to_vec(), alarms)
        };
        assert_eq!(
            answer(Engine::Enumerative),
            answer(Engine::Symbolic),
            "{name}"
        );
    }
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
