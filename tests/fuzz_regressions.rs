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
    // The explicit form of differential axis 9: each checked-in seed's
    // ten oracle verdicts must be identical whether the engines run the
    // enumerative or the symbolic backend. `symbolic-star.imp` is the
    // dedicated regression for this axis (a star over a product
    // universe); the rest of the corpus rides along for free. On `int`
    // seeds the verifier's forward repair runs in the symbolic algebra,
    // so its reports must match the enumerative ones byte for byte.
    use air::core::Verifier;
    use air::fuzz::oracles::{registry, run_with_cache};
    use air::lang::SemCache;
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
        for (oracle, _) in registry() {
            let enumerative = run_with_cache(oracle, &built, SemCache::new()).expect("registered");
            let symbolic =
                run_with_cache(oracle, &built, SemCache::symbolic()).expect("registered");
            match (enumerative, symbolic) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: {oracle} verdicts diverge"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{name}: {oracle} skip asymmetry: {a:?} vs {b:?}"),
            }
        }
        if case.domain == "int" {
            let u = &built.universe;
            let forward = |cache| {
                Verifier::with_cache(u, cache)
                    .forward(built.domain.clone(), &case.program, &built.pre, &built.spec)
                    .map(|v| v.report(u))
                    .map_err(|e| e.to_string())
            };
            assert_eq!(
                forward(SemCache::new()),
                forward(SemCache::symbolic()),
                "{name}: forward reports diverge across backends"
            );
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
