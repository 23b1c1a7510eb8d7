//! Fuzz regression corpus: every seed file checked in under
//! `corpus/fuzz/` must parse, build and replay clean through all ten
//! theorem oracles *and* the differential configuration sweep.
//!
//! The corpus is append-only by workflow: when `air fuzz run` finds a
//! violation it writes the shrunk case here, the bug gets fixed, and the
//! seed stays behind as a permanent regression test (see FUZZING.md).

use air::fuzz::{replay_case, seed};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/fuzz");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus/fuzz must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_seed_replays_clean() {
    let files = corpus_files();
    assert!(files.len() >= 3, "corpus/fuzz lost its seeds: {files:?}");
    for path in files {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let case = seed::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let outcome = replay_case(&case, None);
        assert!(
            outcome.case_skip.is_none(),
            "{name}: checked-in seed must be evaluable, got skip {:?}",
            outcome.case_skip
        );
        assert!(
            outcome.violations.is_empty(),
            "{name}: oracle violations: {:?}",
            outcome.violations
        );
        assert!(
            outcome.disagreements.is_empty(),
            "{name}: configuration disagreements: {:?}",
            outcome.disagreements
        );
    }
}

#[test]
fn every_seed_agrees_across_engine_backends() {
    // The explicit form of differential axis 9: on each checked-in seed
    // the diagram set kernel must reproduce the bitset kernel's
    // `⟦r⟧pre` and `wlp(r, spec)`, errors included, and on `int` seeds
    // (where a symbolic cache runs the symbolic algebra) both strategies'
    // verdict reports must match the enumerative ones byte for byte.
    // `symbolic-star.imp` is the dedicated regression for this axis (a
    // star over a product universe); the rest of the corpus rides along.
    use air::core::{Strategy, Verifier};
    use air::lang::{SemCache, SetKernel, SymEngine};
    let files = corpus_files();
    assert!(
        files.iter().any(|p| p.ends_with("symbolic-star.imp")),
        "the axis-9 regression seed is missing: {files:?}"
    );
    for path in files {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let case = seed::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let built = case.build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let (u, r) = (&built.universe, &case.program);
        let eng = SymEngine::new(u);
        assert_eq!(
            eng.exec(false, r, &eng.from_set(&built.pre))
                .map(|s| eng.to_set(&s)),
            u.exec(false, r, &built.pre),
            "{name}: the kernels disagree on exec"
        );
        assert_eq!(
            eng.wlp(r, &eng.from_set(&built.spec))
                .map(|s| eng.to_set(&s)),
            u.wlp(r, &built.spec),
            "{name}: the kernels disagree on wlp"
        );
        if case.domain == "int" {
            for strategy in [Strategy::Backward, Strategy::Forward] {
                let verify = |cache| {
                    Verifier::with_cache(u, cache)
                        .verify(strategy, built.domain.clone(), r, &built.pre, &built.spec)
                        .map(|v| v.report(u))
                        .map_err(|e| e.to_string())
                };
                assert_eq!(
                    verify(SemCache::new()),
                    verify(SemCache::symbolic()),
                    "{name}: {strategy:?} reports diverge across engines"
                );
            }
        }
    }
}

#[test]
fn corpus_seeds_round_trip_through_the_renderer() {
    for path in corpus_files() {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let case = seed::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = seed::render(&case, None, None);
        let back = seed::parse(&rendered).unwrap_or_else(|e| panic!("{name}: re-parse: {e}"));
        assert_eq!(
            case, back,
            "{name}: render/parse round-trip changed the case"
        );
    }
}
