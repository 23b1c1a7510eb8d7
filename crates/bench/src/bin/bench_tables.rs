//! Prints the measured tables T1–T10 of EXPERIMENTS.md deterministically
//! (counts and sizes; wall-clock distributions come from `cargo bench`).
//!
//! Run with `cargo run -p air-bench --bin bench_tables --release`.

use std::time::Instant;

use air_bench::{
    absval_program, alarm_corpus, branch_chain_program, branch_chain_workload, countdown_program,
    countdown_workload, int_domain, table_row, triangular_number, triangular_program,
    triangular_universe, two_lane,
};
use air_cegar::driver::{Cegar, Heuristic};
use air_core::{BackwardRepair, EnumDomain, ForwardRepair, Verifier};
use air_domains::BooleanPredicateDomain;
use air_lang::{parse_bexp, Universe};

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn t1_repair_strategies() {
    println!("\nT1 — repair strategy comparison (branch chains)");
    let widths = [4, 12, 14, 16, 12, 14, 12];
    println!(
        "{}",
        table_row(
            &[
                "n".into(),
                "fwd repairs".into(),
                "fwd restarts".into(),
                "fwd obligations".into(),
                "fwd ms".into(),
                "bwd calls".into(),
                "bwd ms".into(),
            ],
            &widths
        )
    );
    for n in [2usize, 4, 6, 8] {
        let (u, input, spec) = branch_chain_workload(n);
        let prog = branch_chain_program(n);
        let dom = int_domain(&u);
        let (fwd, fwd_ms) = timed(|| {
            ForwardRepair::new(&u)
                .repair(dom.clone(), &prog, &input)
                .expect("forward repair")
        });
        let (bwd, bwd_ms) = timed(|| {
            BackwardRepair::new(&u)
                .repair(&dom, &input, &prog, &spec)
                .expect("backward repair")
        });
        println!(
            "{}",
            table_row(
                &[
                    n.to_string(),
                    fwd.repairs.to_string(),
                    fwd.analysis_runs.to_string(),
                    fwd.obligations_checked.to_string(),
                    format!("{fwd_ms:.1}"),
                    bwd.calls.to_string(),
                    format!("{bwd_ms:.1}"),
                ],
                &widths
            )
        );
    }
}

fn t2_triangular_sweep() {
    println!("\nT2 — triangular sweep (Section 2), Spec = j <= T_K");
    let widths = [4, 6, 10, 12, 10, 10];
    println!(
        "{}",
        table_row(
            &[
                "K".into(),
                "T_K".into(),
                "universe".into(),
                "points".into(),
                "proved".into(),
                "ms".into(),
            ],
            &widths
        )
    );
    for k in [3i64, 4, 5, 6, 8, 10] {
        let u = triangular_universe(k);
        let prog = triangular_program(k);
        let spec = u.filter(|s| s[1] <= triangular_number(k));
        let dom = int_domain(&u);
        let (v, ms) = timed(|| {
            Verifier::new(&u)
                .backward(dom, &prog, &u.full(), &spec)
                .expect("verification")
        });
        println!(
            "{}",
            table_row(
                &[
                    k.to_string(),
                    triangular_number(k).to_string(),
                    u.size().to_string(),
                    v.added_points().len().to_string(),
                    v.is_proved().to_string(),
                    format!("{ms:.1}"),
                ],
                &widths
            )
        );
    }
}

fn t3_shell_growth() {
    println!("\nT3 — pointed shell vs global (Boolean) refinement growth");
    let u = Universe::new(&[("x", -8, 8)]).unwrap();
    let prog = absval_program();
    let odd = u.filter(|s| s[0] % 2 != 0);
    let spec = u.filter(|s| s[0] != 0);
    let base = int_domain(&u);
    let out = BackwardRepair::new(&u)
        .repair(&base, &odd, &prog, &spec)
        .expect("repair");
    let pointed = out.domain(&base);

    // Probe with all closures of random sets to estimate domain size
    // growth.
    let probes: Vec<_> = (0..512u64)
        .map(|seed| air_bench::random_state_set(&u, seed))
        .collect();
    let base_size = base.distinct_closures(probes.iter());
    let pointed_size = pointed.distinct_closures(probes.iter());

    let boolean = BooleanPredicateDomain::new(
        &u,
        vec![
            parse_bexp("x > 0").unwrap(),
            parse_bexp("x = 0").unwrap(),
            parse_bexp("x > 3").unwrap(),
            parse_bexp("x < 0 - 3").unwrap(),
        ],
    );
    let bool_dom = EnumDomain::from_abstraction(&u, boolean);
    let bool_size = bool_dom.distinct_closures(probes.iter());

    // The global complete shell of [33] for the same program, capped.
    let shell =
        air_core::global::complete_shell(&u, &base, &prog, 1 << 14).expect("shell computation");
    let shell_row = match shell.size() {
        Some(s) => format!("{s} (exact)"),
        None => "overflow".to_owned(),
    };

    let widths = [30, 14, 18];
    println!(
        "{}",
        table_row(
            &[
                "domain".into(),
                "added points".into(),
                "distinct closures".into()
            ],
            &widths
        )
    );
    for (name, points, size) in [
        ("Int (base)", "0".to_owned(), base_size.to_string()),
        (
            "Int ⊞ N (pointed shells)",
            out.points.len().to_string(),
            pointed_size.to_string(),
        ),
        (
            "Boolean completion (4 preds)",
            "16".to_owned(),
            bool_size.to_string(),
        ),
        ("complete shell of [33]", "(global)".to_owned(), shell_row),
    ] {
        println!("{}", table_row(&[name.into(), points, size], &widths));
    }
}

fn t4_cegar_heuristics() {
    println!("\nT4 — CEGAR heuristics on the two-lane family");
    let widths = [4, 14, 12, 13, 8, 14];
    println!(
        "{}",
        table_row(
            &[
                "n".into(),
                "heuristic".into(),
                "iterations".into(),
                "refinements".into(),
                "splits".into(),
                "final blocks".into(),
            ],
            &widths
        )
    );
    for n in [8usize, 16, 32] {
        for h in Heuristic::ALL {
            let (ts, init, bad, pairs) = two_lane(n);
            let res = Cegar::new(&ts, &init, &bad, h)
                .initial_partition(pairs)
                .run()
                .unwrap();
            assert!(res.is_safe());
            let s = res.stats();
            println!(
                "{}",
                table_row(
                    &[
                        n.to_string(),
                        h.label().into(),
                        s.iterations.to_string(),
                        s.refinements.to_string(),
                        s.splits.to_string(),
                        s.final_blocks.to_string(),
                    ],
                    &widths
                )
            );
        }
    }
}

fn t5_domain_sizes() {
    println!("\nT5 — enumerative engine scale (γ enumeration cost drivers)");
    let widths = [26, 12, 12];
    println!(
        "{}",
        table_row(
            &["workload".into(), "universe".into(), "ms".into()],
            &widths
        )
    );
    for k in [4i64, 6, 8] {
        let (u, pre, spec) = countdown_workload(k);
        let dom = int_domain(&u);
        let (_, ms) = timed(|| {
            BackwardRepair::new(&u)
                .repair(&dom, &pre, &countdown_program(), &spec)
                .expect("repair")
        });
        println!(
            "{}",
            table_row(
                &[
                    format!("countdown K={k}"),
                    u.size().to_string(),
                    format!("{ms:.1}"),
                ],
                &widths
            )
        );
    }
}

fn t6_alarm_removal() {
    println!("\nT6 — false alarms before vs after repair (Int base domain)");
    let widths = [12, 10, 12, 13, 12, 10];
    println!(
        "{}",
        table_row(
            &[
                "task".into(),
                "alarms".into(),
                "true alarms".into(),
                "false alarms".into(),
                "after repair".into(),
                "points".into(),
            ],
            &widths
        )
    );
    for (name, prog, u, input, spec) in alarm_corpus() {
        let dom = int_domain(&u);
        let verifier = Verifier::new(&u);
        let before = verifier
            .alarm_counts(&dom, &prog, &input, &spec)
            .expect("alarm counts");
        let v = verifier
            .backward(dom, &prog, &input, &spec)
            .expect("verification");
        let after = verifier
            .alarm_counts(v.domain(), &prog, &input, &spec)
            .expect("alarm counts");
        assert_eq!(after.false_alarms, 0);
        println!(
            "{}",
            table_row(
                &[
                    name.into(),
                    before.total.to_string(),
                    before.true_alarms.to_string(),
                    before.false_alarms.to_string(),
                    after.false_alarms.to_string(),
                    v.added_points().len().to_string(),
                ],
                &widths
            )
        );
    }
}

fn t7_ablations() {
    println!("\nT7 — ablations");
    // (a) star unroll strategy in bRepair.
    println!("  (a) bRepair unroll strategy on triangular(K):");
    let widths = [4, 20, 10, 12, 10];
    println!(
        "  {}",
        table_row(
            &[
                "K".into(),
                "strategy".into(),
                "calls".into(),
                "inv iters".into(),
                "points".into(),
            ],
            &widths
        )
    );
    for k in [4i64, 6] {
        let u = triangular_universe(k);
        let prog = triangular_program(k);
        let spec = u.filter(|s| s[1] <= triangular_number(k));
        let dom = int_domain(&u);
        for (label, strategy) in [
            ("join", air_core::UnrollStrategy::Join),
            (
                "pointed-widening",
                air_core::UnrollStrategy::PointedWidening,
            ),
        ] {
            let out = BackwardRepair::new(&u)
                .unroll_strategy(strategy)
                .repair(&dom, &u.full(), &prog, &spec)
                .expect("repair");
            println!(
                "  {}",
                table_row(
                    &[
                        k.to_string(),
                        label.into(),
                        out.calls.to_string(),
                        out.inv_iterations.to_string(),
                        out.points.len().to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    // (c) disjunctive width: closure precision on a holey set.
    println!("  (c) disjunctive completion width, closure of x ∈ {{-6,-2,2,6}}:");
    let u = Universe::new(&[("x", -16, 16)]).expect("valid");
    let probe = u.of_values([-6, -2, 2, 6]);
    for width in [1usize, 2, 4, 8] {
        let dom = air_domains::Disjunctive::new(air_domains::IntervalEnv::new(&u), width);
        let size = air_domains::Abstraction::closure_set(&dom, &u, &probe).len();
        println!("      width {width}: {size} stores in the closure");
    }
}

fn t8_random_corpus() {
    use air_lang::gen::{GenConfig, ProgramGen};
    println!("\nT8 — random program corpus (120 seeded programs, Int base)");
    let u = Universe::new(&[("x", -5, 5), ("y", -5, 5)]).expect("valid");
    let dom = int_domain(&u);
    let verifier = Verifier::new(&u);
    let sem = air_lang::Concrete::new(&u);
    let (mut with_alarms, mut repaired, mut total_points, mut max_points) = (0, 0, 0usize, 0usize);
    let mut proved = 0;
    let n = 120u64;
    for seed in 0..n {
        let prog = ProgramGen::new(
            seed,
            GenConfig {
                vars: vec!["x".into(), "y".into()],
                const_bound: 2,
                max_depth: 3,
                allow_star: true,
            },
        )
        .reg();
        let input = air_bench::random_state_set(&u, seed ^ 0x5A5A);
        // Spec = the exact concrete post: holds by construction, so every
        // abstract alarm is false.
        let spec = sem
            .exec(&prog, &input)
            .expect("restricted semantics is total");
        let before = verifier
            .alarm_counts(&dom, &prog, &input, &spec)
            .expect("analysis runs");
        if before.false_alarms > 0 {
            with_alarms += 1;
        }
        let v = verifier
            .backward(dom.clone(), &prog, &input, &spec)
            .expect("verification runs");
        if v.is_proved() {
            proved += 1;
        }
        let after = verifier
            .alarm_counts(v.domain(), &prog, &input, &spec)
            .expect("analysis runs");
        if after.false_alarms == 0 {
            repaired += 1;
        }
        total_points += v.added_points().len();
        max_points = max_points.max(v.added_points().len());
    }
    println!("  programs:                  {n}");
    println!("  with false alarms (Int):   {with_alarms}");
    println!("  proved by backward repair: {proved}");
    println!("  repaired to 0 alarms:      {repaired}");
    println!(
        "  points added mean/max:     {:.1} / {max_points}",
        total_points as f64 / n as f64
    );
    assert_eq!(proved, n as usize);
    assert_eq!(repaired, n as usize);
}

/// One corpus program's cached-vs-uncached measurement.
/// T9 — the memoization benchmark behind `BENCH_repair.json`, measured
/// by `air_bench::repair_bench` (shared with the `bench_repair` binary
/// and the CI `perf-smoke` gate): per-program uncached vs cold-cached vs
/// steady-state repair, the warm corpus sweep, and the incremental edit
/// loop through `RepairSession`.
fn t9_repair_benchmark() -> air_bench::repair_bench::RepairBench {
    println!("\nT9 — memoized repair vs the uncached baseline (corpus/)");
    let corpus = air_bench::verification_corpus();
    let programs = air_bench::repair_bench::measure_programs(&corpus);
    air_bench::repair_bench::print_programs(&programs);
    let sweep = air_bench::repair_bench::measure_sweep(&corpus);
    air_bench::repair_bench::print_sweep(&sweep);
    println!("\nincremental edit loop (warm RepairSession vs from-scratch):");
    let edit_loop = air_bench::repair_bench::measure_edit_loop(&corpus);
    air_bench::repair_bench::print_edit_loop(&edit_loop);
    let governor = air_bench::repair_bench::measure_governor(&corpus);
    air_bench::repair_bench::RepairBench {
        programs,
        sweep,
        edit_loop,
        governor,
    }
}

/// T10 — governor overhead: the whole corpus verified backward with no
/// governor vs a governor whose fuel *and* deadline budgets are active but
/// generous enough never to trip, so every loop-head check site pays its
/// full cost (atomic tick + fuel compare + strided clock sample). The
/// engines' contract is that a `--fuel`/`--timeout-ms` run you never
/// exhaust costs the same run you'd have had without the flags; this table
/// holds the regression bar (< 2% overhead). Writes `BENCH_repair.json`
/// with every measured section, carrying the fuzz-campaign row (T11,
/// produced by `air fuzz run`) across reruns.
fn t10_governor_overhead(bench: air_bench::repair_bench::RepairBench) {
    println!("\nT10 — governor overhead (ungoverned vs generous fuel + deadline)");
    println!(
        "corpus backward verify: ungoverned {:.3} ms, \
         governed {:.3} ms, overhead {:.2}%",
        bench.governor.ungoverned_ms,
        bench.governor.governed_ms,
        bench.governor.overhead_pct()
    );
    air_bench::repair_bench::write_json("BENCH_repair.json", &bench);
}

fn main() {
    println!("AIR reproduction — measured tables (see EXPERIMENTS.md)");
    t1_repair_strategies();
    t2_triangular_sweep();
    t3_shell_growth();
    t4_cegar_heuristics();
    t5_domain_sizes();
    t6_alarm_removal();
    t7_ablations();
    t8_random_corpus();
    let bench = t9_repair_benchmark();
    t10_governor_overhead(bench);
    println!("\nall tables generated.");
}
