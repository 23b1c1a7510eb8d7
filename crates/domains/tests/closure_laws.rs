//! The row kernels behind the enumerated closure `γ(α(S))` are invisible.
//! For every domain, on sampled sets of sampled universes:
//!
//! - `alpha_set` equals the plain join fold `alpha_fold` element for
//!   element (not just up to `γ`): neither the covered-store skip nor the
//!   first/last-of-row joins of row-convex domains change the result;
//! - `gamma_set` equals the per-store filter by `gamma_contains`, and every
//!   `gamma_row` equals the per-store scan `gamma_row_scan`, on `α`-images
//!   and on widened elements `widen(α(S), α(T))`;
//! - a domain that claims `convex_rows` (Int, Oct, Karr) answers every row
//!   with at most one run.

use air_domains::disjunctive::Disjunctive;
use air_domains::product::Product;
use air_domains::traits::{alpha_fold, gamma_row_scan};
use air_domains::{
    Abstraction, AffineDomain, BooleanPredicateDomain, CongruenceEnv, ConstantEnv, IntervalEnv,
    OctagonDomain, ParityEnv, PredicateDomain, SignEnv,
};
use air_lang::gen::XorShift;
use air_lang::{parse_bexp, StateSet, Universe};
use proptest::prelude::*;

/// A universe of one to three variables over small ranges around zero.
fn universe(rng: &mut XorShift) -> Universe {
    let names = ["x", "y", "z"];
    let n = 1 + rng.below(3);
    let decls: Vec<(&str, i64, i64)> = names[..n]
        .iter()
        .map(|&v| {
            let lo = -rng.range_i64(0, 6);
            let hi = rng.range_i64(0, 6);
            (v, lo, hi)
        })
        .collect();
    Universe::new(&decls).unwrap()
}

/// Sets of every density, from singletons to nearly full, plus one
/// structured set (a slab on the first variable).
fn sets(u: &Universe, rng: &mut XorShift) -> Vec<StateSet> {
    let mut out = vec![u.empty(), u.full()];
    for den in [1, 2, 4, 16] {
        let mut s = u.empty();
        for i in 0..u.size() {
            if rng.below(den) == 0 {
                s.insert(i);
            }
        }
        out.push(s);
    }
    let mut single = u.empty();
    single.insert(rng.below(u.size()));
    out.push(single);
    let cut = rng.range_i64(-3, 3);
    out.push(u.filter(|s| s[0] >= cut));
    out
}

/// `γ` as the per-store filter, the reference for `gamma_set`.
fn gamma_filter<A: Abstraction>(dom: &A, u: &Universe, e: &A::Elem) -> StateSet {
    u.filter(|s| dom.gamma_contains(e, s))
}

fn check<A: Abstraction>(dom: &A, u: &Universe, sets: &[StateSet]) -> Result<(), TestCaseError> {
    let mut elems = vec![dom.bottom(), dom.alpha_set(u, &u.full())];
    for s in sets {
        let a = dom.alpha_set(u, s);
        prop_assert_eq!(
            &a,
            &alpha_fold(dom, u, s),
            "alpha_set, domain {} on {:?}",
            dom.name(),
            s
        );
        elems.push(a);
    }
    // Widen each image by the next and the next by it: unstable bounds
    // jump, and the octagon's widened matrix stays unclosed.
    for i in 2..elems.len() - 1 {
        elems.push(dom.widen(&elems[i], &elems[i + 1]));
        elems.push(dom.widen(&elems[i + 1], &elems[i]));
    }
    let last = u.num_vars() - 1;
    let (lo, hi) = u.var_range(last);
    let (mut runs, mut scanned) = (Vec::new(), Vec::new());
    for e in &elems {
        prop_assert_eq!(
            dom.gamma_set(u, e),
            gamma_filter(dom, u, e),
            "gamma_set, domain {} on {:?}",
            dom.name(),
            e
        );
        for base in (0..u.size()).step_by(u.row_len()) {
            let mut store = u.store_at(base);
            dom.gamma_row(e, &mut store, lo, hi, &mut runs);
            gamma_row_scan(dom, e, &mut store, lo, hi, &mut scanned);
            prop_assert_eq!(
                &runs,
                &scanned,
                "gamma_row, domain {} on {:?} at row {}",
                dom.name(),
                e,
                base
            );
            prop_assert!(
                !dom.convex_rows(u) || runs.len() <= 1,
                "domain {} claims convex rows but answers {:?}",
                dom.name(),
                runs
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_kernels_match_the_per_store_reference(seed in 0u64..1_000_000) {
        let mut rng = XorShift::new(seed);
        let u = universe(&mut rng);
        let sets = sets(&u, &mut rng);
        check(&IntervalEnv::new(&u), &u, &sets)?;
        check(&SignEnv::new(&u), &u, &sets)?;
        check(&ParityEnv::new(&u), &u, &sets)?;
        check(&ConstantEnv::new(&u), &u, &sets)?;
        check(&CongruenceEnv::new(&u), &u, &sets)?;
        check(&OctagonDomain::new(&u), &u, &sets)?;
        check(&AffineDomain::new(&u), &u, &sets)?;
        let preds = vec![
            ("pos", parse_bexp("x > 0").unwrap()),
            // `y` is undeclared in one-variable universes: the predicate
            // then fails on every store.
            ("diag", parse_bexp("x = y").unwrap()),
            ("small", parse_bexp("x * x <= 4").unwrap()),
        ];
        check(&PredicateDomain::new(&u, preds.clone()), &u, &sets)?;
        check(
            &BooleanPredicateDomain::new(&u, preds.into_iter().map(|(_, p)| p).collect()),
            &u,
            &sets,
        )?;
        check(&Product::direct(IntervalEnv::new(&u), SignEnv::new(&u)), &u, &sets)?;
        check(
            &Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u)),
            &u,
            &sets,
        )?;
        check(
            &Product::reduced_interval(IntervalEnv::new(&u), CongruenceEnv::new(&u)),
            &u,
            &sets,
        )?;
        check(&Disjunctive::new(IntervalEnv::new(&u), 3), &u, &sets)?;
        check(&Disjunctive::new(OctagonDomain::new(&u), 2), &u, &sets)?;
    }
}

#[test]
fn the_closed_form_domains_have_convex_rows() {
    let u = Universe::new(&[("x", -2, 2), ("y", -3, 3)]).unwrap();
    assert!(IntervalEnv::new(&u).convex_rows(&u));
    assert!(OctagonDomain::new(&u).convex_rows(&u));
    assert!(AffineDomain::new(&u).convex_rows(&u));
    assert!(!SignEnv::new(&u).convex_rows(&u));
    assert!(!ParityEnv::new(&u).convex_rows(&u));
    assert!(!Product::direct(IntervalEnv::new(&u), SignEnv::new(&u)).convex_rows(&u));
    // Near `i64::MAX` the octagon's bounds `±x ± y` wrap: no closed form.
    let far = Universe::new(&[("x", i64::MAX - 6, i64::MAX)]).unwrap();
    assert!(!OctagonDomain::new(&far).convex_rows(&far));
    assert!(IntervalEnv::new(&far).convex_rows(&far));
}
