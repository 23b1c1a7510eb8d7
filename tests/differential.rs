//! Differential tests for the memoized + parallel repair engine.
//!
//! The tentpole claim is *bitwise determinism*: enabling the semantic
//! caches, the hash-consed closure memo, or the parallel fan-out must not
//! change a single bit of any verdict. These tests compare the cached
//! engines against the uncached reference path and parallel sweeps
//! against sequential ones, over the whole `corpus/` suite and over
//! randomly generated programs and domains.

use std::sync::Arc;

use air::cegar::driver::{Cegar, Heuristic};
use air::cegar::partition::Partition;
use air::cegar::ts::TransitionSystem;
use air::core::{EnumDomain, Lcl, RepairSession, Verdict, Verifier};
use air::domains::IntervalEnv;
use air::lang::gen::{GenConfig, ProgramGen, XorShift};
use air::lang::{parse_bexp, parse_program, Concrete, Reg, SemCache, StateSet, Universe, Wlp};
use air::lattice::{par_map, par_map_indexed, BitVecSet};
use air::trace::{EventKind, MemorySink, Tracer};
use proptest::prelude::*;

/// (name, variable declarations, precondition, spec) for every corpus
/// program — the same workloads as `tests/corpus.rs` and `air corpus`.
type Case = (
    &'static str,
    Vec<(&'static str, i64, i64)>,
    &'static str,
    &'static str,
);

fn corpus_cases() -> Vec<Case> {
    vec![
        ("absval", vec![("x", -8, 8)], "x != 0", "x >= 1"),
        (
            "division",
            vec![("x", 0, 15), ("q", 0, 6), ("r", 0, 15)],
            "x >= 0",
            "x = 3 * q + r && r <= 2",
        ),
        ("gauss", vec![("i", 0, 8), ("j", 0, 24)], "true", "j <= 15"),
        (
            "nondet_walk",
            vec![("x", -4, 4), ("s", -1, 1)],
            "x = 0",
            "x >= -2 && x <= 2",
        ),
        (
            "parity_flip",
            vec![("x", 0, 9), ("b", 0, 1)],
            "b = 0",
            "b = 0 || b = 1",
        ),
        (
            "two_phase",
            vec![("n", 0, 5), ("i", 0, 6), ("j", 0, 6)],
            "i = 0 && j = 0 && n >= 0",
            "j = n",
        ),
    ]
}

fn load(name: &str) -> Reg {
    let path = format!("{}/corpus/{name}.imp", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn sat(u: &Universe, b: &str) -> StateSet {
    Concrete::new(u).sat(&parse_bexp(b).unwrap()).unwrap()
}

/// Every observable field of two verdicts must coincide.
fn assert_verdict_eq(name: &str, a: &Verdict, b: &Verdict) {
    assert_eq!(a.is_proved(), b.is_proved(), "{name}: verdict kind");
    assert_eq!(a.valid_input(), b.valid_input(), "{name}: valid input");
    assert_eq!(a.added_points(), b.added_points(), "{name}: added points");
    assert_eq!(
        a.domain().points(),
        b.domain().points(),
        "{name}: domain points"
    );
    if let (Verdict::Refuted { witness: wa, .. }, Verdict::Refuted { witness: wb, .. }) = (a, b) {
        assert_eq!(wa, wb, "{name}: witness");
    }
}

/// Cached and uncached verifiers agree bitwise on every corpus program,
/// with both repair strategies.
#[test]
fn cached_matches_uncached_over_corpus() {
    for (name, decls, pre, spec) in corpus_cases() {
        let u = Universe::new(&decls).unwrap();
        let prog = load(name);
        let pre = sat(&u, pre);
        let spec = sat(&u, spec);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        for strategy in ["backward", "forward"] {
            let run = |verifier: &Verifier| match strategy {
                "backward" => verifier.backward(dom.clone(), &prog, &pre, &spec).unwrap(),
                _ => verifier.forward(dom.clone(), &prog, &pre, &spec).unwrap(),
            };
            let cached = run(&Verifier::new(&u));
            let uncached = run(&Verifier::uncached(&u));
            assert_verdict_eq(&format!("{name}/{strategy}"), &cached, &uncached);
        }
    }
}

/// A parallel corpus sweep returns the same verdicts in the same order as
/// a sequential one, for every jobs count.
#[test]
fn parallel_sweep_matches_sequential() {
    let cases = corpus_cases();
    let sweep = |jobs: usize| -> Vec<(bool, StateSet, Vec<StateSet>)> {
        par_map(jobs, &cases, |(name, decls, pre, spec)| {
            let u = Universe::new(decls).unwrap();
            let prog = load(name);
            let pre = sat(&u, pre);
            let spec = sat(&u, spec);
            let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
            let v = Verifier::new(&u).backward(dom, &prog, &pre, &spec).unwrap();
            (
                v.is_proved(),
                v.valid_input().clone(),
                v.added_points().to_vec(),
            )
        })
    };
    let sequential = sweep(1);
    for jobs in [2, 4, 8] {
        assert_eq!(sweep(jobs), sequential, "jobs = {jobs}");
    }
}

/// The LCL_A proof system derives identical derivations with and without
/// the semantic cache.
#[test]
fn lcl_cached_matches_uncached() {
    for (name, decls, pre, _) in corpus_cases() {
        let u = Universe::new(&decls).unwrap();
        let prog = load(name);
        let pre = sat(&u, pre);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let (da, ra) = Lcl::new(&u)
            .derive_with_repair(dom.clone(), &pre, &prog)
            .unwrap();
        let (db, rb) = Lcl::uncached(&u)
            .derive_with_repair(dom, &pre, &prog)
            .unwrap();
        assert_eq!(da.triple().post, db.triple().post, "{name}: post");
        assert_eq!(da.size(), db.size(), "{name}: derivation size");
        assert_eq!(ra.points(), rb.points(), "{name}: repaired points");
    }
}

/// `par_map_indexed` preserves input order regardless of scheduling.
#[test]
fn par_map_is_order_preserving_on_large_inputs() {
    let items: Vec<usize> = (0..997).collect();
    let expected: Vec<usize> = items.iter().map(|i| i * i).collect();
    for jobs in [1, 3, 8] {
        assert_eq!(par_map_indexed(jobs, &items, |_, &i| i * i), expected);
    }
}

/// The trace stream of a run, normalized for comparison across cache and
/// scheduling configurations: timestamps (`seq`, `t_ns`, span durations)
/// are dropped, and so are the cache telemetry events (`cache_hit` /
/// `cache_miss` / `cache_bypass`) — those *describe* the memo tables and
/// legitimately differ; everything else must not.
fn normalized_stream(sink: &MemorySink) -> Vec<String> {
    sink.drain()
        .into_iter()
        .filter(|e| !e.kind.is_cache_telemetry())
        .map(|e| match e.kind {
            EventKind::SpanExit { phase, .. } => format!("span_exit {phase}"),
            kind => format!("{kind:?}"),
        })
        .collect()
}

/// Tracing is a pure observer of the pipeline: the event stream (modulo
/// timestamps and cache telemetry) is identical whether the semantic
/// caches are on or off, on every corpus program and both strategies.
#[test]
fn trace_stream_cached_matches_uncached() {
    for (name, decls, pre, spec) in corpus_cases() {
        let u = Universe::new(&decls).unwrap();
        let prog = load(name);
        let pre = sat(&u, pre);
        let spec = sat(&u, spec);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        for strategy in ["backward", "forward"] {
            let traced = |verifier: Verifier| {
                let sink = Arc::new(MemorySink::new());
                let verifier = verifier.tracer(Tracer::new(sink.clone()));
                match strategy {
                    "backward" => verifier.backward(dom.clone(), &prog, &pre, &spec).unwrap(),
                    _ => verifier.forward(dom.clone(), &prog, &pre, &spec).unwrap(),
                };
                normalized_stream(&sink)
            };
            let cached = traced(Verifier::new(&u));
            let uncached = traced(Verifier::uncached(&u));
            assert!(!cached.is_empty(), "{name}/{strategy}: no events");
            assert_eq!(cached, uncached, "{name}/{strategy}: event stream");
        }
    }
}

/// The CEGAR driver's trace stream is independent of its worker count:
/// `jobs = 1` and parallel runs produce the same iterations, refinements,
/// splits and verdict events in the same order.
#[test]
fn trace_stream_parallel_cegar_matches_sequential() {
    // The two-lane family from `tests/cegar.rs`: lane A safe, lane B bad,
    // initially paired blocks forcing real refinement work.
    let n = 5;
    let states = 2 * n + 1;
    let mut ts = TransitionSystem::new(states);
    for i in 0..n - 1 {
        ts.add_edge(2 * i, 2 * (i + 1));
        ts.add_edge(2 * i + 1, 2 * (i + 1) + 1);
    }
    ts.add_edge(2 * (n - 1) + 1, 2 * n);
    let init = BitVecSet::from_indices(states, [0]);
    let bad = BitVecSet::from_indices(states, [2 * n]);
    let pairs = Partition::from_key(states, |s| s / 2);

    for heuristic in Heuristic::ALL {
        let traced = |jobs: usize| {
            let sink = Arc::new(MemorySink::new());
            let res = Cegar::new(&ts, &init, &bad, heuristic)
                .initial_partition(pairs.clone())
                .jobs(jobs)
                .tracer(Tracer::new(sink.clone()))
                .run()
                .unwrap();
            assert!(res.is_safe(), "{}", heuristic.label());
            normalized_stream(&sink)
        };
        let sequential = traced(1);
        for expected in ["CegarIteration", "CegarRefinement", "CegarSplit", "Verdict"] {
            assert!(
                sequential.iter().any(|e| e.starts_with(expected)),
                "{}: no {expected} traced",
                heuristic.label()
            );
        }
        for jobs in [2, 4, 8] {
            assert_eq!(
                traced(jobs),
                sequential,
                "{} with jobs = {jobs}",
                heuristic.label()
            );
        }
    }
}

/// All single-statement edits of `r`: for each basic command, one
/// variant with that command replaced by `skip`.
fn single_statement_edits(r: &Reg) -> Vec<Reg> {
    fn count(r: &Reg) -> usize {
        match r {
            Reg::Basic(_) => 1,
            Reg::Seq(a, b) | Reg::Choice(a, b) => count(a) + count(b),
            Reg::Star(body) => count(body),
        }
    }
    fn replace(r: &Reg, target: usize, next: &mut usize) -> Reg {
        match r {
            Reg::Basic(e) => {
                let here = *next;
                *next += 1;
                if here == target {
                    Reg::Basic(air::lang::Exp::Skip)
                } else {
                    Reg::Basic(e.clone())
                }
            }
            Reg::Seq(a, b) => Reg::Seq(
                Box::new(replace(a, target, next)),
                Box::new(replace(b, target, next)),
            ),
            Reg::Choice(a, b) => Reg::Choice(
                Box::new(replace(a, target, next)),
                Box::new(replace(b, target, next)),
            ),
            Reg::Star(body) => Reg::Star(Box::new(replace(body, target, next))),
        }
    }
    (0..count(r))
        .map(|target| {
            let mut next = 0;
            replace(r, target, &mut next)
        })
        .collect()
}

/// Incremental re-repair is invisible in the answer: for every corpus
/// program and every single-statement edit of it, a warm
/// [`RepairSession`] (which verified the base program first) produces a
/// verdict byte-identical to a from-scratch run of the edited program —
/// report text included. The warm path must only be faster, never
/// different.
#[test]
fn edited_programs_reverify_byte_identical_to_scratch() {
    for (name, decls, pre, spec) in corpus_cases() {
        let u = Universe::new(&decls).unwrap();
        let prog = load(name);
        let pre = sat(&u, pre);
        let spec = sat(&u, spec);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let session = RepairSession::new(u.clone(), dom.clone());
        session.verify(&prog, &pre, &spec).unwrap();
        for (k, edited) in single_statement_edits(&prog).iter().enumerate() {
            let label = format!("{name} edit {k}");
            let warm = session.verify(edited, &pre, &spec).unwrap();
            assert!(
                warm.reuse.incremental && warm.reuse.reused_nodes() > 0,
                "{label}: the session reused nothing — the axis is vacuous"
            );
            let scratch = Verifier::new(&u)
                .backward(dom.clone_fresh_caches(), edited, &pre, &spec)
                .unwrap();
            assert_verdict_eq(&label, &warm.verdict, &scratch);
            assert_eq!(
                warm.verdict.report(&u),
                scratch.report(&u),
                "{label}: reports must be byte-identical"
            );
        }
        // Re-verifying the unchanged base at the end of the edit chain
        // still reproduces the from-scratch verdict with full node reuse.
        let back = session.verify(&prog, &pre, &spec).unwrap();
        assert_eq!(back.reuse.fresh_nodes, 0, "{name}: base fully interned");
        let scratch = Verifier::new(&u)
            .backward(dom.clone_fresh_caches(), &prog, &pre, &spec)
            .unwrap();
        assert_eq!(back.verdict.report(&u), scratch.report(&u), "{name}: base");
    }
}

/// The closure-memo idempotence fix, pinned (the small-universe
/// `parity_flip` residue): closing an already-closed set must hit the
/// memo, which lifts the program's cold closure hit rate above the
/// broken 25%, and a warm re-verification through the same domain must
/// add **zero** new closure misses — every set the repair closes is
/// already memoized.
#[test]
fn parity_flip_closure_hit_rate_regression() {
    let (name, decls, pre, spec) = corpus_cases().swap_remove(4);
    assert_eq!(name, "parity_flip");
    let u = Universe::new(&decls).unwrap();
    let prog = load(name);
    let pre = sat(&u, pre);
    let spec = sat(&u, spec);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let cold = Verifier::new(&u)
        .backward(dom.clone(), &prog, &pre, &spec)
        .unwrap();
    let stats = cold.domain().cache_stats();
    let rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    assert!(
        rate > 0.30,
        "closure hit rate regressed to {rate:.2} ({stats}) — idempotence seeding broken?"
    );
    // Warm re-verify over the shared memo: no new closure misses at all.
    let warm = Verifier::new(&u)
        .backward(dom.clone(), &prog, &pre, &spec)
        .unwrap();
    let warm_stats = warm.domain().cache_stats();
    assert_eq!(
        warm_stats.misses, stats.misses,
        "a warm re-verification recomputed closures the memo already holds"
    );
    assert!(warm_stats.hits > stats.hits, "warm run produced no hits");
}

proptest! {
    /// The semantic cache is transparent on random programs: `exec`, `wlp`
    /// and repair all agree with the uncached path, even when the same
    /// cache is reused across many programs of one universe.
    #[test]
    fn random_programs_cached_matches_uncached(seed in 0u64..48) {
        let u = Universe::new(&[("x", -5, 5), ("y", -5, 5)]).unwrap();
        let sem = Concrete::new(&u);
        let wlp = Wlp::new(&u);
        let cache = SemCache::new();
        let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9) + 1);
        for round in 0..4u64 {
            let prog = ProgramGen::new(
                seed * 16 + round,
                GenConfig {
                    vars: vec!["x".into(), "y".into()],
                    const_bound: 2,
                    max_depth: 3,
                    allow_star: true,
                },
            )
            .reg();
            let mut input = u.empty();
            for i in 0..u.size() {
                if rng.chance(1, 3) {
                    input.insert(i);
                }
            }
            let spec = sem.exec(&prog, &input).unwrap();
            // Concrete semantics through the shared cache.
            prop_assert_eq!(cache.exec(&sem, &prog, &input).unwrap(), spec.clone());
            // wlp through the shared cache.
            prop_assert_eq!(
                cache.wlp_reg(&wlp, &prog, &spec).unwrap(),
                wlp.reg(&prog, &spec).unwrap()
            );
            // Full repair, cached vs uncached, on a randomly pointed domain.
            let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u))
                .with_point(input.clone());
            let cached = Verifier::new(&u)
                .backward(dom.clone(), &prog, &input, &spec)
                .unwrap();
            let uncached = Verifier::uncached(&u)
                .backward(dom, &prog, &input, &spec)
                .unwrap();
            prop_assert_eq!(cached.is_proved(), uncached.is_proved());
            prop_assert_eq!(cached.valid_input(), uncached.valid_input());
            prop_assert_eq!(cached.added_points(), uncached.added_points());
        }
    }

    /// Memo-table consistency under random domains: repeated closures
    /// through one memoized domain always equal a fresh domain's closure
    /// (entries never go stale), and closing is idempotent.
    #[test]
    fn closure_memo_never_staleness(seed in 0u64..64) {
        let u = Universe::new(&[("x", -6, 6)]).unwrap();
        let mut rng = XorShift::new(seed + 7);
        let mut point = u.empty();
        for i in 0..u.size() {
            if rng.chance(1, 4) {
                point.insert(i);
            }
        }
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u))
            .with_point(point);
        for probe_seed in 0..8u64 {
            let mut probe_rng = XorShift::new(seed * 131 + probe_seed + 1);
            let mut probe = u.empty();
            for i in 0..u.size() {
                if probe_rng.chance(1, 3) {
                    probe.insert(i);
                }
            }
            let fresh = dom.clone_fresh_caches();
            let c = dom.close(&probe);
            prop_assert_eq!(&c, &fresh.close(&probe));
            prop_assert_eq!(&dom.close(&c), &c); // idempotent through the memo
            prop_assert_eq!(&c, &dom.close(&probe)); // repeat lookup is stable
        }
    }
}
