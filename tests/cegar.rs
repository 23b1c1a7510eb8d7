//! Integration tests for Section 6: CEGAR as AIR (experiment row E9),
//! connecting the model checker with the repair machinery across crates.

use air::cegar::amc::AbstractTs;
use air::cegar::driver::{Cegar, CegarResult, Heuristic};
use air::cegar::partition::Partition;
use air::cegar::program_ts::ProgramTs;
use air::cegar::spurious::SpuriousAnalysis;
use air::cegar::ts::TransitionSystem;
use air::core::{EnumAlgebra, EnumDomain, LocalCompleteness, ShellResult};
use air::lang::{parse_program, Universe};
use air::lattice::BitVecSet;

/// A parameterized "two-lane" family: lane A (initial) never reaches the
/// bad sink, lane B does; blocks initially pair the lanes, forcing `n`
/// spurious refinement rounds for myopic heuristics.
fn two_lane(n: usize) -> (TransitionSystem, BitVecSet, BitVecSet, Partition) {
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
    (ts, init, bad, pairs)
}

/// Lemma 6.1 — a path is spurious iff some `post_{π_k}` is locally
/// incomplete on `S_k`, checked on the whole two-lane family.
#[test]
fn lemma_6_1_on_two_lane_family() {
    for n in 2..6 {
        let (ts, init, bad, mut p) = two_lane(n);
        p.split_by(&init);
        p.split_by(&bad);
        let abs = AbstractTs::build(&ts, &p);
        let path = abs
            .find_counterexample(&p.blocks_of_set(&init), &p.blocks_of_set(&bad))
            .expect("paired lanes make bad abstractly reachable");
        let analysis = SpuriousAnalysis::analyze(&ts, &p, &path);
        assert!(analysis.is_spurious());
        // Check the equivalence: spurious ⇔ ∃k locally incomplete.
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let dom = p.domain();
        let mut any_incomplete = false;
        let mut s_k = analysis.blocks[0].clone();
        for k in 0..path.len() - 1 {
            let post_k = ts.post_within(&analysis.blocks[k + 1]);
            if !lc.check(&dom, &post_k, &s_k).unwrap() {
                any_incomplete = true;
            }
            s_k = ts.post(&s_k).intersection(&analysis.blocks[k + 1]);
        }
        assert!(any_incomplete, "n = {n}");
    }
}

/// Theorem 6.2 — the forward-AIR refinement point is the pointed shell of
/// the partition domain for `post_{π_k}` on `S_k`, on the whole two-lane
/// family.
#[test]
fn theorem_6_2_forward_split_is_pointed_shell() {
    for n in 2..6 {
        let (ts, init, bad, mut p) = two_lane(n);
        p.split_by(&init);
        p.split_by(&bad);
        let abs = AbstractTs::build(&ts, &p);
        let path = abs
            .find_counterexample(&p.blocks_of_set(&init), &p.blocks_of_set(&bad))
            .unwrap();
        let analysis = SpuriousAnalysis::analyze(&ts, &p, &path);
        let k = analysis.failure_index.unwrap();
        let dead = analysis.dead(&ts).unwrap();
        let irr = analysis.irrelevant(&ts).unwrap();
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let post_k = ts.post_within(&analysis.blocks[k + 1]);
        let shell = lc
            .pointed_shell(&p.domain(), &post_k, &analysis.forward[k])
            .unwrap();
        assert_eq!(
            shell,
            ShellResult::Shell {
                point: dead.union(&irr)
            },
            "n = {n}"
        );
    }
}

/// Fig. 3 — backward repair leaves no residual spurious path along the
/// counterexample, for every family size.
#[test]
fn fig_3_backward_removes_all_residual_spurious_paths() {
    for n in 2..7 {
        let (ts, init, bad, pairs) = two_lane(n);
        let res = Cegar::new(&ts, &init, &bad, Heuristic::BackwardAir)
            .initial_partition(pairs)
            .run()
            .unwrap();
        assert!(res.is_safe());
        assert!(
            res.stats().iterations <= 2,
            "n = {n}: backward took {} iterations",
            res.stats().iterations
        );
    }
}

/// The heuristic ordering on the family: backward ≤ forward ≤ classic in
/// refinement iterations.
#[test]
fn heuristic_iteration_ordering() {
    for n in [3, 5, 7] {
        let (ts, init, bad, pairs) = two_lane(n);
        let iters = |h: Heuristic| {
            Cegar::new(&ts, &init, &bad, h)
                .initial_partition(pairs.clone())
                .run()
                .unwrap()
                .stats()
                .iterations
        };
        let (c, f, b) = (
            iters(Heuristic::Classic),
            iters(Heuristic::ForwardAir),
            iters(Heuristic::BackwardAir),
        );
        assert!(
            b <= f && f <= c,
            "n = {n}: classic {c}, forward {f}, backward {b}"
        );
    }
}

/// End-to-end program model checking: the AbsVal property again, checked
/// by CEGAR over the compiled transition system, all heuristics agreeing
/// with the AIR verifier's verdict.
#[test]
fn program_property_all_heuristics() {
    let u = Universe::new(&[("x", -5, 5)]).unwrap();
    let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
    let pts = ProgramTs::compile(&u, &prog).unwrap();
    let odd = u.filter(|s| s[0] % 2 != 0);
    let spec = u.filter(|s| s[0] != 0);
    let init = pts.init_states(&odd);
    let bad = pts.bad_states(&spec);
    let loc = Partition::from_key(pts.ts().num_states(), |s| pts.location_of(s));
    for h in Heuristic::ALL {
        let res = Cegar::new(pts.ts(), &init, &bad, h)
            .initial_partition(loc.clone())
            .run()
            .unwrap();
        assert!(res.is_safe(), "{}", h.label());
    }
    // And a violated spec is refuted with a concrete trace.
    let bad2 = pts.bad_states(&u.filter(|s| s[0] > 1)); // spec x > 1 is false for x = ±1
    let res = Cegar::new(pts.ts(), &init, &bad2, Heuristic::BackwardAir)
        .run()
        .unwrap();
    let CegarResult::Unsafe { path, .. } = res else {
        panic!("must be unsafe");
    };
    assert!(!path.is_empty());
}

/// Loops through the compiled TS: a bounded counter program, safe bound
/// proved, off-by-one bound refuted.
#[test]
fn looping_program_model_checked() {
    let u = Universe::new(&[("x", 0, 10)]).unwrap();
    let prog = parse_program("while (x < 7) do { x := x + 1 }").unwrap();
    let pts = ProgramTs::compile(&u, &prog).unwrap();
    let input = u.filter(|s| s[0] <= 3);
    let init = pts.init_states(&input);
    // Exit always has x = 7.
    let safe_spec = u.filter(|s| s[0] == 7);
    let res = Cegar::new(
        pts.ts(),
        &init,
        &pts.bad_states(&safe_spec),
        Heuristic::BackwardAir,
    )
    .run()
    .unwrap();
    assert!(res.is_safe());
    let wrong_spec = u.filter(|s| s[0] == 6);
    let res2 = Cegar::new(
        pts.ts(),
        &init,
        &pts.bad_states(&wrong_spec),
        Heuristic::BackwardAir,
    )
    .run()
    .unwrap();
    assert!(!res2.is_safe());
}

/// Cross-checker on random sparse systems: every CEGAR heuristic, the
/// Moore-family driver and direct reachability must agree on every
/// verdict, and unsafe verdicts must produce genuine paths.
#[test]
fn random_systems_all_engines_agree() {
    use air::cegar::moore::MooreCegar;
    use air::lang::gen::XorShift;
    for seed in 0..40u64 {
        let mut rng = XorShift::new(seed + 1);
        let n = 10 + rng.below(10);
        let mut ts = TransitionSystem::new(n);
        for _ in 0..(n + rng.below(2 * n)) {
            ts.add_edge(rng.below(n), rng.below(n));
        }
        let init = BitVecSet::from_indices(n, [rng.below(n)]);
        let bad = BitVecSet::from_indices(n, [rng.below(n), rng.below(n)]);
        let truth = ts.reachable(&init).is_disjoint(&bad);
        for h in Heuristic::ALL {
            let res = Cegar::new(&ts, &init, &bad, h).run().unwrap();
            assert_eq!(res.is_safe(), truth, "seed {seed}, {}", h.label());
            if let CegarResult::Unsafe { path, .. } = res {
                assert!(init.contains(path[0]));
                assert!(bad.contains(*path.last().unwrap()));
                for w in path.windows(2) {
                    assert!(ts.has_edge(w[0], w[1]), "seed {seed}: broken path");
                }
            }
        }
        let moore = MooreCegar::new(&ts, &init, &bad, EnumDomain::trivial(&ts.universe()))
            .run()
            .unwrap();
        assert_eq!(moore.is_safe(), truth, "seed {seed}, moore");
    }
}

/// Partitions only ever refine during a run (monotonicity certificate).
#[test]
fn final_partition_refines_initial() {
    let (ts, init, bad, pairs) = two_lane(5);
    let mut initial = pairs.clone();
    initial.split_by(&init);
    initial.split_by(&bad);
    let res = Cegar::new(&ts, &init, &bad, Heuristic::Classic)
        .initial_partition(pairs)
        .run()
        .unwrap();
    assert!(res.partition().refines(&initial));
}
