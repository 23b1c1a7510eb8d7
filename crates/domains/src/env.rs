//! The nonrelational environment domain `Var → V`.
//!
//! [`EnvDomain<V>`] lifts any value domain pointwise to program stores and
//! implements both [`Abstraction`] and [`Transfer`]. Guards are refined by
//! an HC4-style forward/backward constraint pass over the expression tree,
//! using the value domain's `refine_cmp`/`back_*` operators.
//!
//! The classic instantiations have aliases: [`IntervalEnv`] is the paper's
//! `Int`, [`SignEnv`], [`ParityEnv`], [`ConstantEnv`], [`CongruenceEnv`].

use std::marker::PhantomData;
use std::sync::Arc;

use air_lang::ast::{AExp, BExp};
use air_lang::Universe;

use crate::congruence::Congruence;
use crate::constant::Constant;
use crate::interval::Interval;
use crate::parity::Parity;
use crate::sign::Sign;
use crate::traits::{gamma_row_scan, Abstraction, Transfer};
use crate::value::AbstractValue;

/// The paper's interval abstraction `Int`, lifted to stores.
pub type IntervalEnv = EnvDomain<Interval>;
/// Sign analysis over stores.
pub type SignEnv = EnvDomain<Sign>;
/// Parity analysis over stores.
pub type ParityEnv = EnvDomain<Parity>;
/// Constant propagation over stores.
pub type ConstantEnv = EnvDomain<Constant>;
/// Congruence analysis over stores.
pub type CongruenceEnv = EnvDomain<Congruence>;

/// An abstract environment: one value-domain element per variable, or `⊥`.
///
/// The `Bot` case is kept explicit (rather than "any component bottom") so
/// equality and ordering are canonical: any environment with a bottom
/// component is normalized to `Bot` internally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EnvElem<V> {
    /// The empty set of stores.
    Bot,
    /// Pointwise constraints, indexed like universe stores.
    Vals(Vec<V>),
}

impl<V: AbstractValue> EnvElem<V> {
    fn normalize(self) -> Self {
        match self {
            EnvElem::Vals(vs) if vs.iter().any(V::is_bottom) => EnvElem::Bot,
            other => other,
        }
    }

    /// The constraint on variable `i`, or `None` for `⊥`.
    pub fn get(&self, i: usize) -> Option<&V> {
        match self {
            EnvElem::Bot => None,
            EnvElem::Vals(vs) => vs.get(i),
        }
    }
}

/// The nonrelational lifting of a value domain `V` over a fixed variable
/// set.
///
/// # Example
///
/// ```
/// use air_domains::{Abstraction, IntervalEnv, Transfer};
/// use air_lang::{parse_bexp, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -10, 10)])?;
/// let dom = IntervalEnv::new(&u);
/// let top = dom.top();
/// let pos = dom.assume(&top, &parse_bexp("x > 0")?);
/// assert!(!dom.gamma_contains(&pos, &[0]));
/// assert!(dom.gamma_contains(&pos, &[7]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EnvDomain<V> {
    vars: Vec<Arc<str>>,
    _marker: PhantomData<V>,
}

impl<V: AbstractValue> EnvDomain<V> {
    /// Creates the domain over the universe's variables (store order).
    pub fn new(universe: &Universe) -> Self {
        EnvDomain {
            vars: universe.var_names().map(Arc::from).collect(),
            _marker: PhantomData,
        }
    }

    /// Creates the domain over an explicit variable list.
    pub fn with_vars<I: IntoIterator<Item = S>, S: AsRef<str>>(vars: I) -> Self {
        EnvDomain {
            vars: vars.into_iter().map(|s| Arc::from(s.as_ref())).collect(),
            _marker: PhantomData,
        }
    }

    /// The variable names in store order.
    pub fn vars(&self) -> &[Arc<str>] {
        &self.vars
    }

    fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| &**v == name)
    }

    /// Builds an environment from per-variable constraints.
    ///
    /// # Panics
    ///
    /// Panics if the number of constraints differs from the variable count.
    pub fn env<I: IntoIterator<Item = V>>(&self, vals: I) -> EnvElem<V> {
        let vs: Vec<V> = vals.into_iter().collect();
        assert_eq!(vs.len(), self.vars.len(), "constraint arity mismatch");
        EnvElem::Vals(vs).normalize()
    }

    /// Forward abstract evaluation of an arithmetic expression.
    pub fn eval_aexp(&self, env: &EnvElem<V>, a: &AExp) -> V {
        let EnvElem::Vals(vs) = env else {
            return V::bottom();
        };
        self.eval_in(vs, a)
    }

    fn eval_in(&self, vs: &[V], a: &AExp) -> V {
        match a {
            AExp::Num(n) => V::from_const(*n),
            AExp::Var(x) => self
                .var_index(x)
                .map(|i| vs[i].clone())
                .unwrap_or_else(V::top),
            AExp::Add(l, r) => self.eval_in(vs, l).add(&self.eval_in(vs, r)),
            AExp::Sub(l, r) => self.eval_in(vs, l).sub(&self.eval_in(vs, r)),
            AExp::Mul(l, r) => self.eval_in(vs, l).mul(&self.eval_in(vs, r)),
        }
    }

    /// HC4-revise: refine `vs` under the constraint that `a` evaluates into
    /// `target`. Returns `false` if the constraint is unsatisfiable.
    fn backward_aexp(&self, vs: &mut Vec<V>, a: &AExp, target: &V) -> bool {
        if target.is_bottom() {
            return false;
        }
        match a {
            AExp::Num(n) => !target.meet(&V::from_const(*n)).is_bottom(),
            AExp::Var(x) => match self.var_index(x) {
                Some(i) => {
                    let m = vs[i].meet(target);
                    let ok = !m.is_bottom();
                    vs[i] = m;
                    ok
                }
                None => true,
            },
            AExp::Add(l, r) => {
                let lv = self.eval_in(vs, l);
                let rv = self.eval_in(vs, r);
                let (l2, r2) = V::back_add(target, &lv, &rv);
                self.backward_aexp(vs, l, &l2) && self.backward_aexp(vs, r, &r2)
            }
            AExp::Sub(l, r) => {
                let lv = self.eval_in(vs, l);
                let rv = self.eval_in(vs, r);
                let (l2, r2) = V::back_sub(target, &lv, &rv);
                self.backward_aexp(vs, l, &l2) && self.backward_aexp(vs, r, &r2)
            }
            AExp::Mul(l, r) => {
                let lv = self.eval_in(vs, l);
                let rv = self.eval_in(vs, r);
                let (l2, r2) = V::back_mul(target, &lv, &rv);
                self.backward_aexp(vs, l, &l2) && self.backward_aexp(vs, r, &r2)
            }
        }
    }

    /// Refines an environment under a Boolean condition (`polarity = false`
    /// refines under its negation). Iterated twice for extra propagation.
    fn refine_bexp(&self, env: EnvElem<V>, b: &BExp, polarity: bool) -> EnvElem<V> {
        let EnvElem::Vals(vs) = env else {
            return EnvElem::Bot;
        };
        match (b, polarity) {
            (BExp::Tt, true) | (BExp::Ff, false) => EnvElem::Vals(vs),
            (BExp::Tt, false) | (BExp::Ff, true) => EnvElem::Bot,
            (BExp::Not(inner), _) => self.refine_bexp(EnvElem::Vals(vs), inner, !polarity),
            (BExp::And(l, r), true) | (BExp::Or(l, r), false) => {
                let e1 = self.refine_bexp(EnvElem::Vals(vs), l, polarity);
                self.refine_bexp(e1, r, polarity)
            }
            (BExp::And(l, r), false) | (BExp::Or(l, r), true) => {
                let e1 = self.refine_bexp(EnvElem::Vals(vs.clone()), l, polarity);
                let e2 = self.refine_bexp(EnvElem::Vals(vs), r, polarity);
                self.join_elem(&e1, &e2)
            }
            (BExp::Cmp(op, l, r), _) => {
                let op = if polarity { *op } else { op.negate() };
                let mut vs = vs;
                let lv = self.eval_in(&vs, l);
                let rv = self.eval_in(&vs, r);
                if lv.is_bottom() || rv.is_bottom() {
                    return EnvElem::Bot;
                }
                let (l2, r2) = V::refine_cmp(op, &lv, &rv);
                if !self.backward_aexp(&mut vs, l, &l2) || !self.backward_aexp(&mut vs, r, &r2) {
                    return EnvElem::Bot;
                }
                EnvElem::Vals(vs).normalize()
            }
        }
    }

    fn join_elem(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        match (a, b) {
            (EnvElem::Bot, x) | (x, EnvElem::Bot) => x.clone(),
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => {
                EnvElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.join(y)).collect())
            }
        }
    }
}

impl<V: AbstractValue> Abstraction for EnvDomain<V> {
    type Elem = EnvElem<V>;

    fn name(&self) -> &str {
        V::NAME
    }

    fn top(&self) -> EnvElem<V> {
        EnvElem::Vals(vec![V::top(); self.vars.len()])
    }

    fn bottom(&self) -> EnvElem<V> {
        EnvElem::Bot
    }

    fn is_bottom(&self, e: &EnvElem<V>) -> bool {
        matches!(e, EnvElem::Bot)
    }

    fn leq(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> bool {
        match (a, b) {
            (EnvElem::Bot, _) => true,
            (_, EnvElem::Bot) => false,
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => xs.iter().zip(ys).all(|(x, y)| x.leq(y)),
        }
    }

    fn join(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        self.join_elem(a, b)
    }

    fn meet(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        match (a, b) {
            (EnvElem::Bot, _) | (_, EnvElem::Bot) => EnvElem::Bot,
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => {
                EnvElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.meet(y)).collect()).normalize()
            }
        }
    }

    fn widen(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        match (a, b) {
            (EnvElem::Bot, x) | (x, EnvElem::Bot) => x.clone(),
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => {
                EnvElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.widen(y)).collect())
            }
        }
    }

    fn narrow(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        match (a, b) {
            (EnvElem::Bot, _) | (_, EnvElem::Bot) => EnvElem::Bot,
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => {
                EnvElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.narrow(y)).collect()).normalize()
            }
        }
    }

    fn alpha_store(&self, store: &[i64]) -> EnvElem<V> {
        EnvElem::Vals(store.iter().map(|&v| V::from_const(v)).collect())
    }

    fn join_store(&self, acc: &mut EnvElem<V>, store: &[i64]) {
        match acc {
            EnvElem::Bot => *acc = self.alpha_store(store),
            EnvElem::Vals(xs) => {
                xs.truncate(store.len());
                for (x, &v) in xs.iter_mut().zip(store) {
                    *x = x.join(&V::from_const(v));
                }
            }
        }
    }

    fn gamma_contains(&self, e: &EnvElem<V>, store: &[i64]) -> bool {
        match e {
            EnvElem::Bot => false,
            EnvElem::Vals(vs) => vs.iter().zip(store).all(|(v, &x)| v.contains(x)),
        }
    }

    /// The row prefix is tested once, then the last variable's value
    /// answers the row through [`AbstractValue::runs_in`].
    fn gamma_row(
        &self,
        e: &EnvElem<V>,
        store: &mut [i64],
        lo: i64,
        hi: i64,
        runs: &mut Vec<(i64, i64)>,
    ) {
        match e {
            EnvElem::Bot => runs.clear(),
            EnvElem::Vals(vs) if vs.len() == store.len() => {
                let (last, prefix) = vs.split_last().expect("a store has a variable");
                if prefix.iter().zip(&*store).all(|(v, &x)| v.contains(x)) {
                    last.runs_in(lo, hi, runs);
                } else {
                    runs.clear();
                }
            }
            EnvElem::Vals(_) => gamma_row_scan(self, e, store, lo, hi, runs),
        }
    }

    fn convex_rows(&self, _: &Universe) -> bool {
        V::CONVEX
    }
}

impl<V: AbstractValue> Transfer for EnvDomain<V> {
    fn assign(&self, e: &EnvElem<V>, var: &str, a: &AExp) -> EnvElem<V> {
        let EnvElem::Vals(vs) = e else {
            return EnvElem::Bot;
        };
        let val = self.eval_in(vs, a);
        match self.var_index(var) {
            Some(i) => {
                let mut out = vs.clone();
                out[i] = val;
                EnvElem::Vals(out).normalize()
            }
            None => e.clone(),
        }
    }

    fn assume(&self, e: &EnvElem<V>, b: &BExp) -> EnvElem<V> {
        // Two HC4 passes propagate refinements across repeated variables.
        let once = self.refine_bexp(e.clone(), b, true);
        self.refine_bexp(once, b, true)
    }

    fn havoc(&self, e: &EnvElem<V>, var: &str) -> EnvElem<V> {
        let EnvElem::Vals(vs) = e else {
            return EnvElem::Bot;
        };
        match self.var_index(var) {
            Some(i) => {
                let mut out = vs.clone();
                out[i] = V::top();
                EnvElem::Vals(out)
            }
            None => e.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::{parse_bexp, Concrete, Universe};

    fn universe() -> Universe {
        Universe::new(&[("x", -6, 6), ("y", -6, 6)]).unwrap()
    }

    fn some_sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.filter(|s| s[0] > 0),
            u.filter(|s| s[0] % 2 != 0),
            u.filter(|s| s[0] == s[1]),
            u.filter(|s| s[0] == 2 && s[1] == -3),
            u.filter(|s| s[0] + s[1] > 4),
        ]
    }

    #[test]
    fn interval_env_closure_and_insertion_laws() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        laws::check_closure_laws(&dom, &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &some_sets(&u)).unwrap();
    }

    #[test]
    fn sign_and_parity_env_laws() {
        let u = universe();
        laws::check_closure_laws(&SignEnv::new(&u), &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&SignEnv::new(&u), &u, &some_sets(&u)).unwrap();
        laws::check_closure_laws(&ParityEnv::new(&u), &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&ParityEnv::new(&u), &u, &some_sets(&u)).unwrap();
        laws::check_closure_laws(&CongruenceEnv::new(&u), &u, &some_sets(&u)).unwrap();
        laws::check_closure_laws(&ConstantEnv::new(&u), &u, &some_sets(&u)).unwrap();
    }

    #[test]
    fn alpha_set_computes_hull() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let s = u.filter(|st| (st[0] == -2 || st[0] == 5) && st[1] == 0);
        let a = dom.alpha_set(&u, &s);
        assert_eq!(a.get(0), Some(&Interval::of(-2, 5)));
        assert_eq!(a.get(1), Some(&Interval::of(0, 0)));
    }

    #[test]
    fn assume_refines_with_hc4() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        // x + y <= 2 with x ≥ 1 pins y ≤ 1.
        let e = dom.assume(&dom.top(), &parse_bexp("x >= 1 && x + y <= 2").unwrap());
        assert_eq!(e.get(0), Some(&Interval::at_least(1)));
        assert_eq!(e.get(1), Some(&Interval::at_most(1)));
    }

    #[test]
    fn assume_disjunction_joins() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x < -2 || x > 2").unwrap());
        // Interval join loses the hole but must keep both sides.
        assert!(dom.gamma_contains(&e, &[-5, 0]));
        assert!(dom.gamma_contains(&e, &[5, 0]));
    }

    #[test]
    fn assume_unsatisfiable_is_bottom() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let e = dom.assume(&dom.top(), &parse_bexp("x < 0 && x > 0").unwrap());
        assert!(dom.is_bottom(&e));
        let e2 = dom.assume(&dom.top(), &parse_bexp("false").unwrap());
        assert!(dom.is_bottom(&e2));
    }

    #[test]
    fn assign_evaluates_forward() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let e = dom.env([Interval::of(1, 2), Interval::of(3, 4)]);
        let a = air_lang::ast::AExp::var("x").add(air_lang::ast::AExp::var("y"));
        let e2 = dom.assign(&e, "x", &a);
        assert_eq!(e2.get(0), Some(&Interval::of(4, 6)));
        assert_eq!(e2.get(1), Some(&Interval::of(3, 4)));
    }

    #[test]
    fn transfer_soundness_against_concrete() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let sem = Concrete::new(&u);
        let sets = some_sets(&u);
        let b = parse_bexp("x * x <= y + 3").unwrap();
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets,
            |s| sem.exec_exp(&air_lang::ast::Exp::Assume(b.clone()), s).ok(),
            |e| dom.assume(e, &b),
        )
        .unwrap();
        let a = air_lang::ast::AExp::var("x").mul(air_lang::ast::AExp::Num(2));
        // Assignments may escape the small universe; soundness is checked
        // only where concrete execution is defined.
        laws::check_transfer_sound(
            &dom,
            &u,
            &sets,
            |s| {
                sem.exec_exp(&air_lang::ast::Exp::assign("y", a.clone()), s)
                    .ok()
            },
            |e| dom.assign(e, "y", &a),
        )
        .unwrap();
    }

    #[test]
    fn paper_intro_interval_facts() {
        // Int({x odd}) = [-5, 5] over x ∈ [-6, 6]... the paper's unbounded
        // [-∞,+∞] becomes the finite hull here; the incompleteness shape is
        // identical: the hull contains 0 although no odd value is 0.
        let u = Universe::new(&[("x", -6, 6)]).unwrap();
        let dom = IntervalEnv::new(&u);
        let odd = u.filter(|s| s[0] % 2 != 0);
        let a = dom.alpha_set(&u, &odd);
        assert_eq!(a.get(0), Some(&Interval::of(-5, 5)));
        assert!(dom.gamma_contains(&a, &[0]));
    }

    #[test]
    fn env_constructor_arity_check() {
        let u = universe();
        let dom = IntervalEnv::new(&u);
        let e = dom.env([Interval::of(0, 1), Interval::Empty]);
        assert!(dom.is_bottom(&e));
    }
}
