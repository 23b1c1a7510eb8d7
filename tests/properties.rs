//! Property-based tests of the paper's theorems on random programs and
//! random input properties (proptest over seeded generators).

use air::core::{AbstractSemantics, BackwardRepair, EnumDomain, ForwardRepair, LocalCompleteness};
use air::domains::{IntervalEnv, SignEnv};
use air::lang::gen::{GenConfig, ProgramGen};
use air::lang::{Concrete, StateSet, Universe, Wlp};
use proptest::prelude::*;

fn universe() -> Universe {
    Universe::new(&[("x", -4, 4), ("y", -4, 4)]).unwrap()
}

fn random_set(u: &Universe, mask_seed: u64) -> StateSet {
    let mut rng = air::lang::gen::XorShift::new(mask_seed);
    let mut s = u.empty();
    for i in 0..u.size() {
        if rng.chance(1, 3) {
            s.insert(i);
        }
    }
    s
}

fn random_program(seed: u64, allow_star: bool) -> air::lang::Reg {
    let config = GenConfig {
        vars: vec!["x".to_owned(), "y".to_owned()],
        const_bound: 2,
        max_depth: 3,
        allow_star,
    };
    ProgramGen::new(seed, config).reg()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 7.1: fRepair's outputs satisfy its postconditions.
    #[test]
    fn forward_repair_postconditions(seed in 0u64..500, mask in 0u64..500) {
        let u = universe();
        let r = random_program(seed, true);
        let p = random_set(&u, mask);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let out = ForwardRepair::new(&u).max_repairs(2_000).repair(dom, &r, &p).unwrap();
        // Q = ⟦r⟧P exactly (the oracle is concrete).
        let sem = Concrete::new(&u);
        prop_assert_eq!(&out.under, &sem.exec(&r, &p).unwrap());
        // Local completeness of the repaired domain on P.
        let lc = LocalCompleteness::new(&u);
        prop_assert!(lc.check(&out.domain, &r, &p).unwrap());
        // A(Q) = A(⟦r⟧P) trivially; and the abstract analysis agrees.
        let asem = AbstractSemantics::new(&u);
        let abs = asem.exec(&out.domain, &r, &out.domain.close(&p)).unwrap();
        prop_assert_eq!(abs, out.domain.close(&out.under));
    }

    /// Theorem 7.6 + Corollary 7.7: bRepair returns the greatest valid
    /// input, expressible and abstractly certified.
    #[test]
    fn backward_repair_postconditions(seed in 0u64..500, mask in 0u64..500, spec_mask in 0u64..500) {
        let u = universe();
        let r = random_program(seed, true);
        let p = random_set(&u, mask);
        let spec = random_set(&u, spec_mask);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let out = BackwardRepair::new(&u).repair(&dom, &p, &r, &spec).unwrap();
        let repaired = out.domain(&dom);
        // (a) expressible
        prop_assert!(repaired.is_expressible(&out.valid_input));
        // (b) abstractly certified
        let asem = AbstractSemantics::new(&u);
        let abs = asem.exec(&repaired, &r, &repaired.close(&out.valid_input)).unwrap();
        prop_assert!(abs.is_subset(&spec));
        // (c) greatest valid input w.r.t. the closed precondition
        let wlp = Wlp::new(&u);
        let brute = wlp.valid_input(&dom.close(&p), &r, &spec).unwrap();
        prop_assert_eq!(&out.valid_input, &brute);
        // Corollary 7.7 on a random sub-input.
        let p_prime = random_set(&u, seed ^ 0xABCD).intersection(&dom.close(&p));
        let sem = Concrete::new(&u);
        let concrete_ok = sem.exec(&r, &p_prime).unwrap().is_subset(&spec);
        prop_assert_eq!(concrete_ok, p_prime.is_subset(&out.valid_input));
    }

    /// Abstract semantics soundness on random programs and domains —
    /// including the relational, product and disjunctive bases.
    #[test]
    fn abstract_semantics_sound(seed in 0u64..1000, mask in 0u64..1000) {
        use air::domains::disjunctive::Disjunctive;
        use air::domains::product::Product;
        use air::domains::{AffineDomain, OctagonDomain, ParityEnv};
        let u = universe();
        let r = random_program(seed, true);
        let p = random_set(&u, mask);
        let sem = Concrete::new(&u);
        let conc = sem.exec(&r, &p).unwrap();
        let asem = AbstractSemantics::new(&u);
        for dom in [
            EnumDomain::from_abstraction(&u, IntervalEnv::new(&u)),
            EnumDomain::from_abstraction(&u, SignEnv::new(&u)),
            EnumDomain::from_abstraction(&u, OctagonDomain::new(&u)),
            EnumDomain::from_abstraction(&u, AffineDomain::new(&u)),
            EnumDomain::from_abstraction(
                &u,
                Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u)),
            ),
            EnumDomain::from_abstraction(&u, Disjunctive::new(IntervalEnv::new(&u), 4)),
            EnumDomain::trivial(&u),
        ] {
            let abs = asem.exec(&dom, &r, &dom.close(&p)).unwrap();
            prop_assert!(conc.is_subset(&abs), "unsound for {}", dom.base_name());
        }
    }

    /// Local-completeness convexity (remark after Definition 4.1): if
    /// C^A_c(f) then C^A_x(f) for every c ≤ x ≤ A(c).
    #[test]
    fn local_completeness_convexity(seed in 0u64..400, mask in 0u64..400, grow in 0u64..400) {
        let u = universe();
        let r = random_program(seed, false);
        let c = random_set(&u, mask);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let lc = LocalCompleteness::new(&u);
        if lc.check(&dom, &r, &c).unwrap() {
            // Grow c by random elements of A(c) ∖ c.
            let closure = dom.close(&c);
            let extra = random_set(&u, grow).intersection(&closure.difference(&c));
            let x = c.union(&extra);
            prop_assert!(lc.check(&dom, &r, &x).unwrap());
        }
    }

    /// Theorem 4.11: the guard shell restores local completeness for both
    /// b? and ¬b? on random guards and inputs.
    #[test]
    fn guard_shell_restores_completeness(seed in 0u64..400, mask in 0u64..400) {
        let u = universe();
        let config = GenConfig {
            vars: vec!["x".to_owned(), "y".to_owned()],
            const_bound: 3,
            max_depth: 2,
            allow_star: false,
        };
        let b = ProgramGen::new(seed, config).bexp(2);
        let p = random_set(&u, mask);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let lc = LocalCompleteness::new(&u);
        let shell = lc.guard_shell(&dom, &b, &p).unwrap();
        let refined = dom.with_point(shell);
        let pos = air::lang::Reg::assume(b.clone());
        let neg = air::lang::Reg::assume(b.negate());
        prop_assert!(lc.check(&refined, &pos, &p).unwrap());
        prop_assert!(lc.check(&refined, &neg, &p).unwrap());
    }

    /// Definition 7.10 / Theorem 7.12: the pointed widening is an upper
    /// bound and stabilizes increasing chains.
    #[test]
    fn pointed_widening_is_a_widening(mask1 in 0u64..300, mask2 in 0u64..300, pmask in 0u64..300) {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u))
            .with_point(random_set(&u, pmask));
        let x = random_set(&u, mask1);
        let y = random_set(&u, mask2);
        let w = dom.pointed_widen(&x, &y);
        prop_assert!(x.is_subset(&w) && y.is_subset(&w), "not an upper bound");
        // Chain stabilization: widen against growing randoms.
        let mut acc = x;
        let mut stable = 0;
        for k in 0..64 {
            let next = dom.pointed_widen(&acc, &acc.union(&random_set(&u, mask2.wrapping_add(k))));
            if next == acc {
                stable += 1;
                if stable > 2 { break; }
            } else {
                stable = 0;
            }
            acc = next;
        }
        prop_assert!(stable > 2, "widening chain did not stabilize");
    }

    /// LCL spec decisions agree with the concrete semantics on random
    /// programs, inputs and specs.
    #[test]
    fn lcl_prove_spec_agrees_with_concrete(seed in 0u64..300, mask in 0u64..300, smask in 0u64..300) {
        use air::core::Lcl;
        let u = universe();
        let r = random_program(seed, true);
        let p = random_set(&u, mask);
        let spec = random_set(&u, smask);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let lcl = Lcl::new(&u);
        let verdict = lcl.prove_spec(dom, &p, &r, &spec).unwrap();
        let sem = Concrete::new(&u);
        let truth = sem.exec(&r, &p).unwrap().is_subset(&spec);
        prop_assert_eq!(verdict.is_valid(), truth);
    }

    /// EnumDomain closure laws survive arbitrary pointed refinements.
    #[test]
    fn enum_domain_closure_laws(p1 in 0u64..300, p2 in 0u64..300, c1 in 0u64..300, c2 in 0u64..300) {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, SignEnv::new(&u))
            .with_points([random_set(&u, p1), random_set(&u, p2)]);
        let a = random_set(&u, c1);
        let b = random_set(&u, c2);
        let ca = dom.close(&a);
        prop_assert!(a.is_subset(&ca));
        prop_assert_eq!(dom.close(&ca).clone(), ca.clone());
        if a.is_subset(&b) {
            prop_assert!(ca.is_subset(&dom.close(&b)));
        }
        // Join is the closed union and is an upper bound.
        let j = dom.join(&a, &b);
        prop_assert!(a.is_subset(&j) && b.is_subset(&j));
    }

    /// An explicit Moore family — `from_family` generators plus
    /// `with_points` points — closes like an upper closure operator: its
    /// closure is extensive, idempotent and monotone, every meet of
    /// generators is expressible, and `A(c)` is the least member above `c`.
    #[test]
    fn moore_family_laws(
        gens in proptest::collection::vec(proptest::collection::vec(0usize..96, 0..24), 1..4),
        points in proptest::collection::vec(proptest::collection::vec(0usize..96, 0..24), 0..3),
        probes in proptest::collection::vec(proptest::collection::vec(0usize..96, 0..24), 1..6),
    ) {
        let u = Universe::new(&[("s", 0, 95)]).unwrap();
        let set = |v: &Vec<usize>| StateSet::from_indices(96, v.iter().copied());
        let gens: Vec<StateSet> = gens.iter().chain(&points).map(set).collect();
        let (base, added) = gens.split_at(gens.len() - points.len());
        let dom = EnumDomain::from_family(&u, "Moore", base.to_vec()).with_points(added.to_vec());
        // Every meet of a subset of the generators (the empty meet is Σ).
        let members: Vec<StateSet> = (0u32..1 << gens.len())
            .map(|mask| {
                gens.iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .fold(u.full(), |acc, (_, g)| acc.intersection(g))
            })
            .collect();
        for m in &members {
            prop_assert!(dom.is_expressible(m), "a meet of generators is not expressible");
        }
        let probes: Vec<StateSet> = probes.iter().map(set).collect();
        for c in &probes {
            let cc = dom.close(c);
            prop_assert!(c.is_subset(&cc));
            prop_assert_eq!(&dom.close(&cc), &cc);
            for d in &probes {
                if c.is_subset(d) {
                    prop_assert!(cc.is_subset(&dom.close(d)));
                }
            }
            // Least above: below every member containing the probe.
            for m in members.iter().filter(|m| c.is_subset(m)) {
                prop_assert!(cc.is_subset(m));
            }
            prop_assert!(members.contains(&cc), "the closure is a member");
        }
    }
}
