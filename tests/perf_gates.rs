//! The two speed bars of the memoized engines, over the `corpus/`
//! questions with the interval base domain.
//!
//! - **Edit loop**: every single-statement edit of every program
//!   (`skip_one_statement`, one per basic command), re-verified through one
//!   warm [`RepairSession`] against verified from scratch with fresh
//!   caches, best of five runs each. Warm must beat scratch on the corpus
//!   total; per-program times are too small to gate singly.
//! - **Warm sweep**: three passes over the corpus, each program verified
//!   backward on a fresh uncached engine, one after another, against three
//!   passes on `available_jobs()` threads whose semantic caches and domains
//!   persist across passes (the regime of a long-lived `air serve` daemon).
//!   Each side is timed as the best of three repeats, every repeat from
//!   fresh caches and domains. The warm side must be at least 5x faster.
//!
//! Both are timing bars, so they run only in optimized builds
//! (`cargo test --release --test perf_gates`). One test measures both,
//! edit loop first, so the two never share the cores.

use std::time::Instant;

use air::core::question::{load_corpus, Built};
use air::core::{DomainKind, EnumAlgebra, EnumDomain, RepairSession, Verifier};
use air::domains::IntervalEnv;
use air::fuzz::diff::skip_one_statement;
use air::lang::{Reg, SemCache, Universe};
use air::lattice::{available_jobs, par_map};

/// Full corpus passes per sweep side.
const SWEEP_PASSES: usize = 3;
/// Best-of repeats for each side of the edit loop.
const EDIT_RUNS: usize = 5;
/// Best-of repeats for each side of the warm sweep.
const SWEEP_RUNS: usize = 3;

/// Every `corpus/` question, named; each run takes a fresh
/// [`int_domain`] rather than the built domain, whose clones share caches.
fn corpus() -> Vec<(String, Built)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    load_corpus(dir, DomainKind::Int)
        .expect("corpus loads")
        .into_iter()
        .map(|(name, q)| (name, q.build().expect("corpus question builds")))
        .collect()
}

fn int_domain(u: &Universe) -> EnumDomain {
    EnumDomain::from_abstraction(u, IntervalEnv::new(u))
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Every single-statement edit of `prog`: `skip_one_statement(prog, k)`
/// skips the k-th basic command modulo the command count, so `k` runs
/// until the edits wrap around to the first one.
fn edits(prog: &Reg) -> Vec<Reg> {
    let first = skip_one_statement(prog, 0);
    let mut edits = vec![first.clone()];
    for k in 1.. {
        let edit = skip_one_statement(prog, k);
        if edit == first {
            break;
        }
        edits.push(edit);
    }
    edits
}

/// The corpus totals `(warm, scratch)` of the edit loop, in ms.
fn edit_loop(corpus: &[(String, Built)]) -> (f64, f64) {
    let (mut warm_total, mut scratch_total) = (0.0, 0.0);
    for (name, task) in corpus {
        let u = &task.universe;
        let edits = edits(&task.program);
        let session = RepairSession::new(u.clone(), int_domain(u));
        session
            .verify(&task.program, &task.pre, &task.spec)
            .expect("base verifies");
        let warm = (0..EDIT_RUNS)
            .map(|_| {
                timed_ms(|| {
                    for e in &edits {
                        session
                            .verify(e, &task.pre, &task.spec)
                            .expect("edit verifies");
                    }
                })
            })
            .fold(f64::INFINITY, f64::min);
        let dom = int_domain(u);
        let scratch = (0..EDIT_RUNS)
            .map(|_| {
                timed_ms(|| {
                    for e in &edits {
                        Verifier::new(u)
                            .backward(dom.clone_fresh_caches(), e, &task.pre, &task.spec)
                            .expect("edit verifies");
                    }
                })
            })
            .fold(f64::INFINITY, f64::min);
        eprintln!(
            "{name}: {} edits, warm {warm:.3} ms, scratch {scratch:.3} ms",
            edits.len()
        );
        warm_total += warm;
        scratch_total += scratch;
    }
    eprintln!(
        "edit loop total: warm {warm_total:.3} ms vs scratch {scratch_total:.3} ms ({:.2}x)",
        scratch_total / warm_total.max(1e-9)
    );
    (warm_total, scratch_total)
}

/// The warm sweep's speedup over the uncached sequential one.
fn sweep(corpus: &[(String, Built)]) -> f64 {
    let jobs = available_jobs();
    let uncached_ms = (0..SWEEP_RUNS)
        .map(|_| uncached_passes(corpus))
        .fold(f64::INFINITY, f64::min);
    let cached_ms = (0..SWEEP_RUNS)
        .map(|_| cached_passes(corpus, jobs))
        .fold(f64::INFINITY, f64::min);
    let speedup = uncached_ms / cached_ms.max(1e-9);
    eprintln!(
        "corpus sweep ({SWEEP_PASSES} passes, {jobs} jobs, best of {SWEEP_RUNS}): sequential \
         uncached {uncached_ms:.3} ms, warm cached {cached_ms:.3} ms ({speedup:.2}x)"
    );
    speedup
}

/// One timing of [`SWEEP_PASSES`] sequential passes, each program on a
/// fresh uncached engine, in ms.
fn uncached_passes(corpus: &[(String, Built)]) -> f64 {
    timed_ms(|| {
        for _ in 0..SWEEP_PASSES {
            for (name, task) in corpus {
                let u = &task.universe;
                let v = Verifier::from_algebra(u, EnumAlgebra::uncached(u))
                    .backward(int_domain(u), &task.program, &task.pre, &task.spec)
                    .expect("corpus program verifies");
                assert!(v.is_proved(), "{name}");
            }
        }
    })
}

/// One timing of [`SWEEP_PASSES`] passes on `jobs` threads, starting
/// from fresh caches and domains, in ms.
fn cached_passes(corpus: &[(String, Built)], jobs: usize) -> f64 {
    // Clones share the cache and domain interiors, so every pass after
    // the first finds the tables the earlier passes filled.
    let caches: Vec<SemCache> = corpus.iter().map(|_| SemCache::new()).collect();
    let doms: Vec<EnumDomain> = corpus
        .iter()
        .map(|(_, t)| int_domain(&t.universe))
        .collect();
    let indices: Vec<usize> = (0..corpus.len()).collect();
    timed_ms(|| {
        for _ in 0..SWEEP_PASSES {
            let proved = par_map(jobs, &indices, |&i| {
                let task = &corpus[i].1;
                let u = &task.universe;
                Verifier::from_algebra(u, EnumAlgebra::with_cache(u, caches[i].clone()))
                    .backward(doms[i].clone(), &task.program, &task.pre, &task.spec)
                    .expect("corpus program verifies")
                    .is_proved()
            });
            assert!(proved.iter().all(|&p| p));
        }
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bars; run with --release")]
fn warm_edit_loop_beats_scratch_and_warm_sweep_is_five_times_faster() {
    let corpus = corpus();
    let (warm, scratch) = edit_loop(&corpus);
    let speedup = sweep(&corpus);
    assert!(
        warm < scratch && speedup >= 5.0,
        "warm edit loop {warm:.3} ms vs from scratch {scratch:.3} ms (must be lower); \
         warm sweep {speedup:.2}x faster than uncached sequential (must be at least 5x)"
    );
}
