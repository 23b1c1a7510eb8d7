//! Integration tests for the Section 2 / Example 7.13 triangular-number
//! example and its generalizations (experiment rows E2, E3).

use air::core::{
    AbstractSemantics, BackwardRepair, EnumDomain, StarStrategy, UnrollStrategy, Verifier,
};
use air::domains::{IntervalEnv, OctagonDomain};
use air::lang::{parse_program, Concrete, Universe};

fn triangular(k: i64) -> i64 {
    k * (k + 1) / 2
}

fn program(k: i64) -> air::lang::Reg {
    parse_program(&format!(
        "i := 1; j := 0; while (i <= {k}) do {{ j := j + i; i := i + 1 }}"
    ))
    .unwrap()
}

/// E2 — the base instance: Spec = (j ≤ 15), proved on Int by backward
/// repair; the repaired invariant entails j ≤ T_{i−1} on the loop range.
#[test]
fn e2_base_instance_proved() {
    let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
    let prog = program(5);
    let spec = u.filter(|s| s[1] <= 15);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let v = Verifier::new(&u)
        .backward(dom, &prog, &u.full(), &spec)
        .unwrap();
    assert!(v.is_proved());

    // The paper's P̄ = i ∈ [1,6] ∧ j ∈ [0, T_{i−1}] must appear among the
    // added points, up to the finite-universe escape fringe: stores whose
    // remaining loop additions would push j past the universe top 24 have
    // no behaviour and are vacuously valid, i.e. j ≥ 10 + T_{i−1}.
    let loop_range = u.filter(|s| (1..=6).contains(&s[0]));
    let p_bar = u.filter(|s| (1..=6).contains(&s[0]) && s[1] <= triangular(s[0] - 1));
    let fringe = u.filter(|s| (1..=6).contains(&s[0]) && s[1] >= 10 + triangular(s[0] - 1));
    let expected = p_bar.union(&fringe);
    let found = v
        .added_points()
        .iter()
        .any(|p| p.intersection(&loop_range) == expected);
    assert!(found, "no added point matches P̄ ∪ fringe on the loop range");
}

/// E2 — neither Int nor Oct proves the spec without repair (§2's setup).
#[test]
fn e2_unrepaired_domains_fail() {
    let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
    let prog = program(5);
    let spec = u.filter(|s| s[1] <= 15);
    let asem = AbstractSemantics::new(&u);
    let int_dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let oct_dom = EnumDomain::from_abstraction(&u, OctagonDomain::new(&u));
    for dom in [int_dom, oct_dom] {
        let out = asem.exec(&dom, &prog, &u.full()).unwrap();
        assert!(
            !out.is_subset(&spec),
            "{} should not prove j ≤ 15 unrepaired",
            dom.base_name()
        );
    }
}

/// E2 — the widened star unroll (Example 7.13 / Definition 7.11) agrees
/// with the exact one on the verdict.
#[test]
fn e2_pointed_widening_variant() {
    let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
    let prog = program(5);
    let spec = u.filter(|s| s[1] <= 15);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let exact = BackwardRepair::new(&u)
        .repair(&dom, &u.full(), &prog, &spec)
        .unwrap();
    let widened = BackwardRepair::new(&u)
        .unroll_strategy(UnrollStrategy::PointedWidening)
        .repair(&dom, &u.full(), &prog, &spec)
        .unwrap();
    assert_eq!(exact.valid_input, u.full());
    assert_eq!(widened.valid_input, u.full());
}

/// E2 — the abstract star with pointed widening terminates and
/// over-approximates the exact star (Theorem 7.12 in action).
#[test]
fn e2_widened_abstract_star_sound() {
    let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
    let prog = program(5);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let exact = AbstractSemantics::new(&u)
        .exec(&dom, &prog, &u.full())
        .unwrap();
    let widened = AbstractSemantics::new(&u)
        .star_strategy(StarStrategy::PointedWidening)
        .exec(&dom, &prog, &u.full())
        .unwrap();
    assert!(exact.is_subset(&widened));
}

/// E3 — the sweep over constant boundaries K with Spec = (j ≤ T_K + D)
/// for slack D ∈ {0, 2}: always proved, with a *constant* number of added
/// points (the paper's five-ish, independent of K).
#[test]
fn e3_constant_boundary_sweep() {
    let mut point_counts = Vec::new();
    for k in 3..=7i64 {
        for slack in [0, 2] {
            let t = triangular(k) + slack;
            let u = Universe::new(&[("i", 0, k + 2), ("j", 0, 2 * triangular(k) + 2)]).unwrap();
            let prog = program(k);
            let spec = u.filter(|s| s[1] <= t);
            let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
            let v = Verifier::new(&u)
                .backward(dom, &prog, &u.full(), &spec)
                .unwrap();
            assert!(v.is_proved(), "K = {k}, slack = {slack}");
            if slack == 0 {
                point_counts.push(v.added_points().len());
            }
        }
    }
    let (min, max) = (
        point_counts.iter().min().unwrap(),
        point_counts.iter().max().unwrap(),
    );
    assert_eq!(
        min, max,
        "point count should be K-independent: {point_counts:?}"
    );
}

/// E3 — a spec below the true bound is refuted with a concrete witness.
#[test]
fn e3_too_tight_spec_refuted() {
    let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
    let prog = program(5);
    let spec = u.filter(|s| s[1] <= 14); // T_5 = 15 > 14
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let v = Verifier::new(&u)
        .backward(dom, &prog, &u.full(), &spec)
        .unwrap();
    assert!(!v.is_proved());
}

/// E3 — variable boundary n ∈ [K1, K2]: the repair introduces points
/// relating i, j *and* n, and proves Spec = (j ≤ T_{K2}).
#[test]
fn e3_variable_boundary() {
    let (k1, k2) = (1i64, 3i64);
    let u = Universe::new(&[("n", 0, 4), ("i", 0, 5), ("j", 0, 8)]).unwrap();
    let prog =
        parse_program("i := 1; j := 0; while (i <= n) do { j := j + i; i := i + 1 }").unwrap();
    let pre = u.filter(|s| (k1..=k2).contains(&s[0]));
    let spec = u.filter(|s| s[2] <= triangular(k2));
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let v = Verifier::new(&u).backward(dom, &prog, &pre, &spec).unwrap();
    assert!(v.is_proved());
    // Sanity: the concrete semantics agrees (j = T_n ≤ T_K2).
    let sem = Concrete::new(&u);
    let out = sem.exec(&prog, &pre).unwrap();
    assert!(out.is_subset(&spec));
    // At least one added point is genuinely relational in n (it must
    // distinguish stores by n, not only by i and j).
    let relational = v.added_points().iter().any(|p| {
        p.iter().any(|idx| {
            let s = u.store_at(idx);
            // same (i, j), different n, not in the point
            (0..=4).any(|n2| {
                n2 != s[0]
                    && u.store_index(&[n2, s[1], s[2]])
                        .map(|j| !p.contains(j))
                        .unwrap_or(false)
            })
        })
    });
    assert!(relational, "expected an n-relational point");
}
