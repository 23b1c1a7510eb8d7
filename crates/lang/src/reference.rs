//! Reference kernels for the kernel-equivalence property test.
//!
//! These are the straightforward per-store loops the index-space kernels
//! replace: decode every store with [`Universe::store_at`] into a fresh
//! vector, evaluate by looking each variable up by name, and re-encode
//! every successor with [`Universe::store_index`]. They exist only under
//! `cfg(test)`, as the oracle both set kernels must match bit for bit —
//! images and errors: the bitset kernel (`semantics.rs`, `store.rs`) and
//! the diagram kernel (`sym.rs`).

use crate::ast::{AExp, BExp, Exp};
use crate::semantics::SemError;
use crate::store::{StateSet, Universe};

fn eval_aexp(u: &Universe, a: &AExp, store: &[i64]) -> Result<i64, SemError> {
    match a {
        AExp::Num(n) => Ok(*n),
        AExp::Var(x) => {
            let i = u
                .var_index(x)
                .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
            Ok(store[i])
        }
        AExp::Add(l, r) => eval_aexp(u, l, store)?
            .checked_add(eval_aexp(u, r, store)?)
            .ok_or(SemError::Overflow),
        AExp::Sub(l, r) => eval_aexp(u, l, store)?
            .checked_sub(eval_aexp(u, r, store)?)
            .ok_or(SemError::Overflow),
        AExp::Mul(l, r) => eval_aexp(u, l, store)?
            .checked_mul(eval_aexp(u, r, store)?)
            .ok_or(SemError::Overflow),
    }
}

fn eval_bexp(u: &Universe, b: &BExp, store: &[i64]) -> Result<bool, SemError> {
    match b {
        BExp::Tt => Ok(true),
        BExp::Ff => Ok(false),
        BExp::Cmp(op, l, r) => Ok(op.eval(eval_aexp(u, l, store)?, eval_aexp(u, r, store)?)),
        BExp::And(l, r) => Ok(eval_bexp(u, l, store)? && eval_bexp(u, r, store)?),
        BExp::Or(l, r) => Ok(eval_bexp(u, l, store)? || eval_bexp(u, r, store)?),
        BExp::Not(inner) => Ok(!eval_bexp(u, inner, store)?),
    }
}

fn filter(u: &Universe, pred: impl Fn(&[i64]) -> bool) -> StateSet {
    let mut set = u.empty();
    for i in 0..u.size() {
        if pred(&u.store_at(i)) {
            set.insert(i);
        }
    }
    set
}

fn sat(u: &Universe, b: &BExp) -> Result<StateSet, SemError> {
    let mut out = u.empty();
    for i in 0..u.size() {
        if eval_bexp(u, b, &u.store_at(i))? {
            out.insert(i);
        }
    }
    Ok(out)
}

fn exec_exp(u: &Universe, strict: bool, e: &Exp, s: &StateSet) -> Result<StateSet, SemError> {
    match e {
        Exp::Skip => Ok(s.clone()),
        Exp::Assume(b) => {
            let mut out = u.empty();
            for i in s.iter() {
                if eval_bexp(u, b, &u.store_at(i))? {
                    out.insert(i);
                }
            }
            Ok(out)
        }
        Exp::Havoc(x) => {
            let xi = u
                .var_index(x)
                .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
            let (lo, hi) = u.var_range(xi);
            let mut out = u.empty();
            for i in s.iter() {
                let mut store = u.store_at(i);
                for v in lo..=hi {
                    store[xi] = v;
                    out.insert(u.store_index(&store).expect("havoc stays in range"));
                }
            }
            Ok(out)
        }
        Exp::Assign(x, a) => {
            let xi = u
                .var_index(x)
                .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
            let mut out = u.empty();
            for i in s.iter() {
                let mut store = u.store_at(i);
                let v = eval_aexp(u, a, &store)?;
                store[xi] = v;
                match u.store_index(&store) {
                    Some(j) => {
                        out.insert(j);
                    }
                    None if strict => {
                        store[xi] = u.store_at(i)[xi];
                        return Err(SemError::UniverseEscape {
                            var: x.clone(),
                            value: v,
                            store,
                        });
                    }
                    None => {}
                }
            }
            Ok(out)
        }
    }
}

fn wlp_exp(u: &Universe, e: &Exp, post: &StateSet) -> Result<StateSet, SemError> {
    match e {
        Exp::Skip => Ok(post.clone()),
        Exp::Assume(b) => Ok(sat(u, b)?.complement().union(post)),
        Exp::Havoc(x) => {
            let xi = u
                .var_index(x)
                .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
            let (lo, hi) = u.var_range(xi);
            let mut out = u.empty();
            for i in 0..u.size() {
                let mut store = u.store_at(i);
                let all_in = (lo..=hi).all(|v| {
                    store[xi] = v;
                    u.store_index(&store)
                        .map(|j| post.contains(j))
                        .unwrap_or(false)
                });
                if all_in {
                    out.insert(i);
                }
            }
            Ok(out)
        }
        Exp::Assign(x, a) => {
            let xi = u
                .var_index(x)
                .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
            let mut out = u.empty();
            for i in 0..u.size() {
                let mut store = u.store_at(i);
                store[xi] = eval_aexp(u, a, &store)?;
                match u.store_index(&store) {
                    Some(j) if !post.contains(j) => {}
                    _ => {
                        out.insert(i);
                    }
                }
            }
            Ok(out)
        }
    }
}

mod equivalence {
    use proptest::prelude::*;

    use super::*;
    use crate::ast::Reg;
    use crate::gen::{GenConfig, ProgramGen, XorShift};
    use crate::semantics::{Concrete, SetKernel};
    use crate::sym::SymEngine;

    /// A universe over `x`, `y` (and sometimes `z`): small ranges around
    /// zero, or — one case in four — ranges at the top of `i64`, where
    /// sums and products overflow.
    fn universe(rng: &mut XorShift) -> Universe {
        let names = ["x", "y", "z"];
        let n = 2 + rng.below(2);
        let near_max = rng.below(4) == 0;
        let decls: Vec<(&str, i64, i64)> = names[..n]
            .iter()
            .map(|&v| {
                if near_max {
                    (v, i64::MAX - rng.range_i64(1, 3), i64::MAX)
                } else {
                    (v, -rng.range_i64(0, 4), rng.range_i64(0, 4))
                }
            })
            .collect();
        Universe::new(&decls).unwrap()
    }

    fn random_set(u: &Universe, rng: &mut XorShift) -> StateSet {
        let den = [1, 2, 3, 8][rng.below(4)];
        let mut s = u.empty();
        for i in 0..u.size() {
            if rng.below(den) == 0 {
                s.insert(i);
            }
        }
        s
    }

    fn basic_commands(r: &Reg, out: &mut Vec<Exp>) {
        match r {
            Reg::Basic(e) => out.push(e.clone()),
            Reg::Seq(a, b) | Reg::Choice(a, b) => {
                basic_commands(a, out);
                basic_commands(b, out);
            }
            Reg::Star(body) => basic_commands(body, out),
        }
    }

    /// Basic commands over `x`, `y`, `z` and the undeclared `w`: those of
    /// a generated program, assignments of generated expressions, generated
    /// guards, and a havoc of every name.
    fn commands(seed: u64) -> Vec<Exp> {
        let config = GenConfig {
            vars: ["x", "y", "z", "w"].map(String::from).to_vec(),
            const_bound: 3,
            max_depth: 3,
            allow_star: true,
        };
        let mut g = ProgramGen::new(seed, config);
        let mut out = Vec::new();
        basic_commands(&g.reg(), &mut out);
        for x in ["x", "y", "z", "w"] {
            out.push(Exp::assign(x, g.aexp(3)));
            out.push(Exp::Assume(g.bexp(3)));
            out.push(Exp::havoc(x));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both kernels' images (both modes), basic-command `wlp`s and
        /// `sat`, and `filter`, equal the reference loops — images and
        /// errors, payloads included — on empty, sparse and full inputs,
        /// near-`i64::MAX` universes and undeclared names.
        #[test]
        fn kernels_match_the_reference_loops(seed in 0u64..1_000_000) {
            let mut rng = XorShift::new(seed);
            let u = universe(&mut rng);
            let eng = SymEngine::new(&u);
            let lower = |r: Result<_, SemError>| r.map(|d| eng.lower(d));
            let inputs = [u.empty(), random_set(&u, &mut rng), u.full()];
            for e in commands(seed) {
                for s in &inputs {
                    let d = eng.lift(s);
                    for strict in [false, true] {
                        let want = exec_exp(&u, strict, &e, s);
                        prop_assert_eq!(
                            u.image(strict, &e, s),
                            want.clone(),
                            "bitset exec {} (strict {}) on {:?}", e, strict, s
                        );
                        prop_assert_eq!(
                            lower(eng.image(strict, &e, &d)),
                            want,
                            "diagram exec {} (strict {}) on {:?}", e, strict, s
                        );
                    }
                    let want = wlp_exp(&u, &e, s);
                    prop_assert_eq!(u.wlp_exp(&e, s), want.clone(), "bitset wlp {} of {:?}", e, s);
                    prop_assert_eq!(
                        lower(eng.wlp_exp(&e, &d)),
                        want,
                        "diagram wlp {} of {:?}", e, s
                    );
                }
                if let Exp::Assume(b) = &e {
                    let want = sat(&u, b);
                    prop_assert_eq!(u.sat(b), want.clone(), "bitset sat {}", b);
                    prop_assert_eq!(lower(eng.sat(b)), want, "diagram sat {}", b);
                }
            }
            let pivot = rng.range_i64(-3, 3);
            let pred = |s: &[i64]| s[0].wrapping_sub(s[1]) > pivot || s[s.len() - 1] == 0;
            prop_assert_eq!(u.filter(pred), filter(&u, pred));
        }
    }

    #[test]
    fn the_generated_commands_reach_every_error_kind() {
        let (mut unknown, mut overflow, mut escape) = (false, false, false);
        for seed in 0..200 {
            let mut rng = XorShift::new(seed);
            let u = universe(&mut rng);
            for e in commands(seed) {
                match Concrete::strict(&u).exec_exp(&e, &u.full()) {
                    Err(SemError::UnknownVar(_)) => unknown = true,
                    Err(SemError::Overflow) => overflow = true,
                    Err(SemError::UniverseEscape { .. }) => escape = true,
                    _ => {}
                }
            }
        }
        assert!(
            unknown && overflow && escape,
            "{unknown} {overflow} {escape}"
        );
    }

    #[test]
    fn unknown_names_in_expressions_error_only_on_nonempty_inputs() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let e = Exp::assign("x", AExp::var("w"));
        let sem = Concrete::new(&u);
        assert_eq!(sem.exec_exp(&e, &u.empty()), Ok(u.empty()));
        assert_eq!(exec_exp(&u, false, &e, &u.empty()), Ok(u.empty()));
        let err = Err(SemError::UnknownVar("w".into()));
        assert_eq!(sem.exec_exp(&e, &u.full()), err);
        // An undeclared target errors even on the empty set.
        let target = Exp::assign("w", AExp::Num(0));
        assert_eq!(
            sem.exec_exp(&target, &u.empty()),
            exec_exp(&u, false, &target, &u.empty())
        );
        assert!(sem.exec_exp(&target, &u.empty()).is_err());
    }

    #[test]
    fn strict_escape_reports_the_pre_state() {
        let u = Universe::new(&[("x", 0, 3), ("y", -1, 1)]).unwrap();
        let e = Exp::assign("x", AExp::var("x").add(AExp::var("y")));
        let s = u.filter(|st| st[0] == 3);
        let got = Concrete::strict(&u).exec_exp(&e, &s);
        assert_eq!(
            got,
            Err(SemError::UniverseEscape {
                var: "x".into(),
                value: 4,
                store: vec![3, 1],
            })
        );
        assert_eq!(got, exec_exp(&u, true, &e, &s));
    }
}
