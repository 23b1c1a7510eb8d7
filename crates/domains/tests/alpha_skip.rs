//! The covered-store skip in `Abstraction::alpha_set` is invisible: for
//! every domain, `alpha_set` equals the plain join fold `alpha_fold`
//! element for element (not just up to `γ`), on sampled sets of sampled
//! universes.

use air_domains::disjunctive::Disjunctive;
use air_domains::product::Product;
use air_domains::traits::alpha_fold;
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

fn check<A: Abstraction>(dom: &A, u: &Universe, sets: &[StateSet]) -> Result<(), TestCaseError> {
    for s in sets {
        prop_assert_eq!(
            dom.alpha_set(u, s),
            alpha_fold(dom, u, s),
            "domain {} on {:?}",
            dom.name(),
            s
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alpha_set_equals_the_plain_join_fold(seed in 0u64..1_000_000) {
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
