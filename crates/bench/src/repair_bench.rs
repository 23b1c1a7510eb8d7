//! The measurement harness behind `BENCH_repair.json`.
//!
//! Both the deterministic `bench_tables` binary (tables T9/T10 of
//! EXPERIMENTS.md) and the focused `bench_repair` binary (the CI
//! `perf-smoke` gate) drive these functions, so the numbers they print
//! and the file they write always describe the same protocol:
//!
//! - **per program** ([`measure_programs`]): backward repair with the
//!   semantic caches disabled (the seed's sequential path) vs a *cold*
//!   cached run (caches built fresh, measures within-run reuse and the
//!   cold hit rates) vs a *steady-state* cached run (verifier and
//!   domain persist across runs, the repair-as-a-service regime). The
//!   recorded `speedup` is uncached / steady-state — the figure a warm
//!   daemon or edit loop actually observes; the cold time is kept
//!   alongside so the one-shot story stays honest.
//! - **corpus sweep** ([`measure_sweep`]): `passes` full passes over
//!   the corpus, sequential-uncached vs cached with warm tables kept
//!   across passes. This is the tentpole ≥ 5x gate.
//! - **edit loop** ([`measure_edit_loop`]): a [`RepairSession`] per
//!   program re-verifies every single-statement edit against warm
//!   tables, vs re-running each edit from scratch. Sublinearity bar:
//!   warm re-verification must beat from-scratch on the corpus total.
//! - **governor overhead** ([`measure_governor`]): a fuel + deadline
//!   budget generous enough never to trip must cost < 2%.

use std::sync::Arc;
use std::time::{Duration, Instant};

use air_core::{EnumAlgebra, RepairSession, Verifier};
use air_lang::{Reg, SemCache};
use air_lattice::{Budget, Governor};
use air_trace::{Profiler, Tracer};

use crate::{int_domain, table_row, verification_corpus, CorpusProgram};

/// Best-of runs for every per-program measurement.
pub const RUNS: usize = 7;
/// Full corpus passes per sweep side.
pub const SWEEP_PASSES: usize = 3;
/// Best-of repeats for the edit-loop measurement.
pub const EDIT_RUNS: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// One corpus program's timings and cold cache counters.
pub struct ProgramRow {
    pub name: String,
    pub proved: bool,
    pub points: usize,
    /// Best-of uncached (seed reference path) wall time.
    pub uncached_ms: f64,
    /// Best-of with caches built fresh each run.
    pub cold_ms: f64,
    /// Best-of with verifier + domain persisting across runs.
    pub steady_ms: f64,
    pub exec_hits: u64,
    pub exec_misses: u64,
    pub exec_bypasses: u64,
    pub closure_hits: u64,
    pub closure_misses: u64,
    /// Per-phase wall time from one traced run (phase name,
    /// milliseconds), measured outside the timed loops so tracing never
    /// pollutes them.
    pub phase_ms: Vec<(String, f64)>,
}

impl ProgramRow {
    /// The recorded speedup: what a warm engine pays vs the seed path.
    pub fn speedup(&self) -> f64 {
        self.uncached_ms / self.steady_ms.max(1e-9)
    }

    /// The one-shot (cold caches) speedup, kept for honesty.
    pub fn cold_speedup(&self) -> f64 {
        self.uncached_ms / self.cold_ms.max(1e-9)
    }
}

/// Per-program uncached vs cold-cached vs steady-state measurements.
pub fn measure_programs(corpus: &[CorpusProgram]) -> Vec<ProgramRow> {
    let mut rows = Vec::new();
    for task in corpus {
        let mut uncached_ms = f64::INFINITY;
        for _ in 0..RUNS {
            let dom = int_domain(&task.universe);
            let (v, ms) = timed(|| {
                Verifier::from_algebra(&task.universe, EnumAlgebra::uncached(&task.universe))
                    .backward(dom, &task.prog, &task.pre, &task.spec)
                    .expect("corpus program verifies")
            });
            assert!(v.is_proved(), "{}", task.name);
            uncached_ms = uncached_ms.min(ms);
        }

        // Cold: caches rebuilt every run; the counters of the last run
        // are the cold hit rates recorded in the JSON.
        let mut cold_ms = f64::INFINITY;
        let mut row = None;
        for _ in 0..RUNS {
            let dom = int_domain(&task.universe);
            let verifier = Verifier::new(&task.universe);
            let (v, ms) = timed(|| {
                verifier
                    .backward(dom, &task.prog, &task.pre, &task.spec)
                    .expect("corpus program verifies")
            });
            cold_ms = cold_ms.min(ms);
            let sem_cache = verifier.cache().expect("cached verifier");
            let exec = sem_cache.exec_stats();
            let closure = v.domain().cache_stats();
            row = Some(ProgramRow {
                name: task.name.clone(),
                proved: v.is_proved(),
                points: v.added_points().len(),
                uncached_ms,
                cold_ms: 0.0,
                steady_ms: 0.0,
                exec_hits: exec.hits,
                exec_misses: exec.misses,
                exec_bypasses: sem_cache.bypass_count(),
                closure_hits: closure.hits,
                closure_misses: closure.misses,
                phase_ms: Vec::new(),
            });
        }
        let mut row = row.expect("at least one run");
        row.cold_ms = cold_ms;

        // Steady state: one verifier, one domain; the first two runs
        // warm the tables and are discarded.
        let verifier = Verifier::new(&task.universe);
        let dom = int_domain(&task.universe);
        let mut steady_ms = f64::INFINITY;
        for i in 0..RUNS + 2 {
            let (v, ms) = timed(|| {
                verifier
                    .backward(dom.clone(), &task.prog, &task.pre, &task.spec)
                    .expect("corpus program verifies")
            });
            assert!(v.is_proved(), "{}", task.name);
            if i >= 2 {
                steady_ms = steady_ms.min(ms);
            }
        }
        row.steady_ms = steady_ms;

        // One extra traced run, after the timed ones, to attribute wall
        // time to pipeline phases (verify/repair/lcl spans).
        let profiler = Arc::new(Profiler::new());
        let dom = int_domain(&task.universe);
        let v = Verifier::new(&task.universe)
            .tracer(Tracer::new(profiler.clone()))
            .backward(dom, &task.prog, &task.pre, &task.spec)
            .expect("corpus program verifies");
        assert!(v.is_proved(), "{}", task.name);
        row.phase_ms = profiler.summary().phase_ms();
        rows.push(row);
    }
    rows
}

/// The whole-corpus sweep: totals over [`SWEEP_PASSES`] passes.
pub struct SweepResult {
    pub programs: usize,
    pub jobs: usize,
    pub passes: usize,
    /// Total sequential-uncached wall time across all passes.
    pub uncached_ms: f64,
    /// Total cached wall time with tables persisting across passes.
    pub cached_ms: f64,
}

impl SweepResult {
    pub fn speedup(&self) -> f64 {
        self.uncached_ms / self.cached_ms.max(1e-9)
    }
}

/// Sequential-uncached full recompute vs cached passes over warm tables.
pub fn measure_sweep(corpus: &[CorpusProgram]) -> SweepResult {
    let jobs = air_lattice::available_jobs();
    let (_, uncached_ms) = timed(|| {
        for _ in 0..SWEEP_PASSES {
            for task in corpus {
                let dom = int_domain(&task.universe);
                let v =
                    Verifier::from_algebra(&task.universe, EnumAlgebra::uncached(&task.universe))
                        .backward(dom, &task.prog, &task.pre, &task.spec)
                        .expect("corpus program verifies");
                assert!(v.is_proved());
            }
        }
    });
    // Warm side: one semantic cache and one domain per program, shared
    // across passes (clones share the interner/memo interior) — the
    // regime a long-lived `air serve` daemon or repeated `air corpus`
    // sweep actually runs in.
    let caches: Vec<SemCache> = corpus.iter().map(|_| SemCache::new()).collect();
    let doms: Vec<_> = corpus.iter().map(|t| int_domain(&t.universe)).collect();
    let indices: Vec<usize> = (0..corpus.len()).collect();
    let (_, cached_ms) = timed(|| {
        for _ in 0..SWEEP_PASSES {
            let results = air_lattice::par_map(jobs, &indices, |&i| {
                let task = &corpus[i];
                Verifier::from_algebra(
                    &task.universe,
                    EnumAlgebra::with_cache(&task.universe, caches[i].clone()),
                )
                .backward(doms[i].clone(), &task.prog, &task.pre, &task.spec)
                .expect("corpus program verifies")
                .is_proved()
            });
            assert!(results.iter().all(|&p| p));
        }
    });
    SweepResult {
        programs: corpus.len(),
        jobs,
        passes: SWEEP_PASSES,
        uncached_ms,
        cached_ms,
    }
}

/// One program's edit-loop measurement.
pub struct EditLoopRow {
    pub name: String,
    /// Number of single-statement edits exercised (one per basic
    /// command of the program).
    pub edits: usize,
    /// Best-of cold full verification of the base program.
    pub full_ms: f64,
    /// Best-of total for re-verifying every edit through one warm
    /// [`RepairSession`].
    pub warm_ms: f64,
    /// Best-of total for verifying every edit from scratch (fresh
    /// caches per edit — the non-incremental baseline).
    pub scratch_ms: f64,
    /// Mean fraction of program nodes the warm session reused per edit.
    pub reuse_ratio: f64,
}

impl EditLoopRow {
    pub fn speedup(&self) -> f64 {
        self.scratch_ms / self.warm_ms.max(1e-9)
    }
}

/// The verify → edit → re-verify loop: every single-statement edit of
/// every corpus program, warm session vs from-scratch.
pub fn measure_edit_loop(corpus: &[CorpusProgram]) -> Vec<EditLoopRow> {
    let mut rows = Vec::new();
    for task in corpus {
        let edits: Vec<Reg> = {
            let n = air_fuzz::diff::skip_one_statement(&task.prog, 0);
            // `skip_one_statement(r, k)` targets the k-th basic command
            // modulo the leaf count; enumerate each leaf exactly once.
            let mut count = 0u64;
            let mut seen = Vec::new();
            loop {
                let e = air_fuzz::diff::skip_one_statement(&task.prog, count);
                if count > 0 && e == n {
                    break;
                }
                seen.push(e);
                count += 1;
            }
            seen
        };

        let mut full_ms = f64::INFINITY;
        for _ in 0..EDIT_RUNS {
            let dom = int_domain(&task.universe);
            let (v, ms) = timed(|| {
                Verifier::new(&task.universe)
                    .backward(dom, &task.prog, &task.pre, &task.spec)
                    .expect("corpus program verifies")
            });
            assert!(v.is_proved(), "{}", task.name);
            full_ms = full_ms.min(ms);
        }

        // Warm: one session verifies the base once, then re-verifies
        // every edit against the accumulated tables.
        let session = RepairSession::new(task.universe.clone(), int_domain(&task.universe));
        session
            .verify(&task.prog, &task.pre, &task.spec)
            .expect("base verifies");
        let mut warm_ms = f64::INFINITY;
        let mut reuse_sum = 0.0;
        for i in 0..EDIT_RUNS {
            let (outcomes, ms) = timed(|| {
                edits
                    .iter()
                    .map(|e| {
                        session
                            .verify(e, &task.pre, &task.spec)
                            .expect("edit verifies")
                    })
                    .collect::<Vec<_>>()
            });
            warm_ms = warm_ms.min(ms);
            if i == 0 {
                reuse_sum = outcomes.iter().map(|o| o.reuse.reuse_ratio()).sum::<f64>();
            }
        }

        // Scratch: every edit pays a fresh engine and fresh caches.
        let dom = int_domain(&task.universe);
        let mut scratch_ms = f64::INFINITY;
        for _ in 0..EDIT_RUNS {
            let (_, ms) = timed(|| {
                for e in &edits {
                    Verifier::new(&task.universe)
                        .backward(dom.clone_fresh_caches(), e, &task.pre, &task.spec)
                        .expect("edit verifies");
                }
            });
            scratch_ms = scratch_ms.min(ms);
        }

        rows.push(EditLoopRow {
            name: task.name.clone(),
            edits: edits.len(),
            full_ms,
            warm_ms,
            scratch_ms,
            reuse_ratio: if edits.is_empty() {
                0.0
            } else {
                reuse_sum / edits.len() as f64
            },
        });
    }
    rows
}

/// Governor overhead over the corpus: ungoverned vs a generous budget.
pub struct GovernorResult {
    pub runs: usize,
    pub ungoverned_ms: f64,
    pub governed_ms: f64,
}

impl GovernorResult {
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.governed_ms / self.ungoverned_ms.max(1e-9) - 1.0)
    }
}

/// Best-of corpus verification, no governor vs fuel + deadline budgets
/// generous enough never to trip (every check site pays full cost).
pub fn measure_governor(corpus: &[CorpusProgram]) -> GovernorResult {
    const RUNS: usize = 9;
    let generous = || {
        Governor::new(Budget {
            fuel: Some(u64::MAX),
            timeout: Some(Duration::from_secs(3600)),
        })
    };
    let mut ungoverned_ms = f64::INFINITY;
    let mut governed_ms = f64::INFINITY;
    for _ in 0..RUNS {
        let (_, ms) = timed(|| {
            for task in corpus {
                let dom = int_domain(&task.universe);
                let v = Verifier::new(&task.universe)
                    .backward(dom, &task.prog, &task.pre, &task.spec)
                    .expect("corpus program verifies");
                assert!(v.is_proved(), "{}", task.name);
            }
        });
        ungoverned_ms = ungoverned_ms.min(ms);
        let (_, ms) = timed(|| {
            for task in corpus {
                let dom = int_domain(&task.universe);
                let v = Verifier::new(&task.universe)
                    .governor(generous())
                    .backward(dom, &task.prog, &task.pre, &task.spec)
                    .expect("a generous budget never trips");
                assert!(v.is_proved(), "{}", task.name);
            }
        });
        governed_ms = governed_ms.min(ms);
    }
    GovernorResult {
        runs: RUNS,
        ungoverned_ms,
        governed_ms,
    }
}

/// Everything `BENCH_repair.json` records.
pub struct RepairBench {
    pub programs: Vec<ProgramRow>,
    pub sweep: SweepResult,
    pub edit_loop: Vec<EditLoopRow>,
    pub governor: GovernorResult,
}

/// Runs the full suite over the repository corpus.
pub fn measure_all() -> RepairBench {
    let corpus = verification_corpus();
    RepairBench {
        programs: measure_programs(&corpus),
        sweep: measure_sweep(&corpus),
        edit_loop: measure_edit_loop(&corpus),
        governor: measure_governor(&corpus),
    }
}

/// Prints the per-program table (T9's first half).
pub fn print_programs(rows: &[ProgramRow]) {
    let widths = [14, 14, 12, 12, 10, 16, 16];
    println!(
        "{}",
        table_row(
            &[
                "program".into(),
                "uncached ms".into(),
                "cold ms".into(),
                "steady ms".into(),
                "speedup".into(),
                "exec hit rate".into(),
                "closure hit rate".into(),
            ],
            &widths
        )
    );
    for row in rows {
        println!(
            "{}",
            table_row(
                &[
                    row.name.clone(),
                    format!("{:.3}", row.uncached_ms),
                    format!("{:.3}", row.cold_ms),
                    format!("{:.3}", row.steady_ms),
                    format!("{:.2}x", row.speedup()),
                    if row.exec_hits + row.exec_misses == 0 && row.exec_bypasses > 0 {
                        format!("bypass ({})", row.exec_bypasses)
                    } else {
                        format!("{:.1}%", 100.0 * rate(row.exec_hits, row.exec_misses))
                    },
                    format!("{:.1}%", 100.0 * rate(row.closure_hits, row.closure_misses)),
                ],
                &widths
            )
        );
    }
}

/// Prints the sweep line (T9's second half).
pub fn print_sweep(sweep: &SweepResult) {
    println!(
        "corpus sweep ({} passes, {} jobs): sequential uncached {:.3} ms, \
         warm cached {:.3} ms ({:.2}x)",
        sweep.passes,
        sweep.jobs,
        sweep.uncached_ms,
        sweep.cached_ms,
        sweep.speedup()
    );
}

/// Prints the edit-loop table.
pub fn print_edit_loop(rows: &[EditLoopRow]) {
    let widths = [14, 7, 12, 14, 16, 10, 8];
    println!(
        "{}",
        table_row(
            &[
                "program".into(),
                "edits".into(),
                "full ms".into(),
                "warm total".into(),
                "scratch total".into(),
                "speedup".into(),
                "reuse".into(),
            ],
            &widths
        )
    );
    for row in rows {
        println!(
            "{}",
            table_row(
                &[
                    row.name.clone(),
                    row.edits.to_string(),
                    format!("{:.3}", row.full_ms),
                    format!("{:.3}", row.warm_ms),
                    format!("{:.3}", row.scratch_ms),
                    format!("{:.2}x", row.speedup()),
                    format!("{:.0}%", 100.0 * row.reuse_ratio),
                ],
                &widths
            )
        );
    }
    let warm: f64 = rows.iter().map(|r| r.warm_ms).sum();
    let scratch: f64 = rows.iter().map(|r| r.scratch_ms).sum();
    println!(
        "edit loop total: warm {:.3} ms vs scratch {:.3} ms ({:.2}x)",
        warm,
        scratch,
        scratch / warm.max(1e-9)
    );
}

/// Renders the whole `BENCH_repair.json` body. `prior` is the previous
/// file contents, if any — the T11 `fuzz_campaign` row (produced by
/// `air fuzz run`, recorded in EXPERIMENTS.md) is carried across
/// reruns.
pub fn render_json(bench: &RepairBench, prior: Option<&str>) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"repair\",\n");
    json.push_str(&format!("  \"cores\": {},\n", bench.sweep.jobs));
    json.push_str(&format!("  \"runs_per_measurement\": {RUNS},\n"));
    json.push_str("  \"programs\": [\n");
    for (i, row) in bench.programs.iter().enumerate() {
        let phase_ms = row
            .phase_ms
            .iter()
            .map(|(phase, ms)| format!("\"{phase}\": {ms:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"proved\": {}, \"points\": {}, \
             \"uncached_ms\": {:.3}, \"cold_cached_ms\": {:.3}, \"steady_state_ms\": {:.3}, \
             \"speedup\": {:.3}, \"cold_speedup\": {:.3}, \
             \"exec_cache\": {{\"hits\": {}, \"misses\": {}, \"bypasses\": {}, \"hit_rate\": {:.3}}}, \
             \"closure_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}}, \
             \"phase_ms\": {{{}}}}}{}\n",
            row.name,
            row.proved,
            row.points,
            row.uncached_ms,
            row.cold_ms,
            row.steady_ms,
            row.speedup(),
            row.cold_speedup(),
            row.exec_hits,
            row.exec_misses,
            row.exec_bypasses,
            rate(row.exec_hits, row.exec_misses),
            row.closure_hits,
            row.closure_misses,
            rate(row.closure_hits, row.closure_misses),
            phase_ms,
            if i + 1 < bench.programs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"corpus_sweep\": {{\"programs\": {}, \"jobs\": {}, \"passes\": {}, \
         \"sequential_uncached_ms\": {:.3}, \"warm_cached_ms\": {:.3}, \"speedup\": {:.3}}},\n",
        bench.sweep.programs,
        bench.sweep.jobs,
        bench.sweep.passes,
        bench.sweep.uncached_ms,
        bench.sweep.cached_ms,
        bench.sweep.speedup()
    ));
    json.push_str("  \"edit_loop\": [\n");
    for (i, row) in bench.edit_loop.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"edits\": {}, \"full_verify_ms\": {:.3}, \
             \"warm_total_ms\": {:.3}, \"scratch_total_ms\": {:.3}, \
             \"speedup\": {:.3}, \"mean_reuse_ratio\": {:.3}}}{}\n",
            row.name,
            row.edits,
            row.full_ms,
            row.warm_ms,
            row.scratch_ms,
            row.speedup(),
            row.reuse_ratio,
            if i + 1 < bench.edit_loop.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    let fuzz_row = prior.and_then(|old| {
        old.lines()
            .find(|l| l.trim_start().starts_with("\"fuzz_campaign\":"))
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
    });
    json.push_str(&format!(
        "  \"governor_overhead\": {{\"runs\": {}, \"ungoverned_ms\": {:.3}, \
         \"governed_ms\": {:.3}, \"overhead_pct\": {:.3}}}{}\n",
        bench.governor.runs,
        bench.governor.ungoverned_ms,
        bench.governor.governed_ms,
        bench.governor.overhead_pct(),
        if fuzz_row.is_some() { "," } else { "" }
    ));
    if let Some(row) = fuzz_row {
        json.push_str(&row);
        json.push('\n');
    }
    json.push_str("}\n");
    json
}

/// Writes `BENCH_repair.json`, carrying the fuzz-campaign row forward.
pub fn write_json(path: &str, bench: &RepairBench) {
    let prior = std::fs::read_to_string(path).ok();
    let json = render_json(bench, prior.as_deref());
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path} writes: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_loop_rows_cover_every_basic_statement() {
        let corpus = verification_corpus();
        let rows = measure_edit_loop(&corpus[..1]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].edits >= 2, "absval has at least two basic commands");
        assert!(rows[0].reuse_ratio > 0.0, "warm session must reuse nodes");
    }

    #[test]
    fn render_json_carries_fuzz_row_and_balances() {
        let bench = RepairBench {
            programs: vec![],
            sweep: SweepResult {
                programs: 0,
                jobs: 1,
                passes: SWEEP_PASSES,
                uncached_ms: 2.0,
                cached_ms: 1.0,
            },
            edit_loop: vec![],
            governor: GovernorResult {
                runs: 1,
                ungoverned_ms: 1.0,
                governed_ms: 1.0,
            },
        };
        let prior = "{\n  \"fuzz_campaign\": {\"cases\": 7},\n}\n";
        let json = render_json(&bench, Some(prior));
        assert!(json.contains("\"fuzz_campaign\": {\"cases\": 7}"));
        assert!(json.contains("\"corpus_sweep\""));
        assert!(json.contains("\"edit_loop\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
