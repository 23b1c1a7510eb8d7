//! The nonrelational environment domain `Var → V`.
//!
//! [`EnvDomain<V>`] lifts any value domain pointwise to program stores
//! and implements [`Abstraction`]: `α` joins each variable's values, `γ`
//! tests each variable against its constraint.
//!
//! The classic instantiations have aliases: [`IntervalEnv`] is the paper's
//! `Int`, [`SignEnv`], [`ParityEnv`], [`ConstantEnv`], [`CongruenceEnv`].

use std::marker::PhantomData;
use std::sync::Arc;

use air_lang::Universe;

use crate::congruence::Congruence;
use crate::constant::Constant;
use crate::interval::Interval;
use crate::parity::Parity;
use crate::sign::Sign;
use crate::traits::{gamma_row_scan, Abstraction};
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
/// use air_domains::{Abstraction, IntervalEnv};
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -10, 10)])?;
/// let dom = IntervalEnv::new(&u);
/// let pos = dom.alpha_set(&u, &u.of_values([2, 7]));
/// assert!(!dom.gamma_contains(&pos, &[0]));
/// assert!(dom.gamma_contains(&pos, &[5]));
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

    fn widen(&self, a: &EnvElem<V>, b: &EnvElem<V>) -> EnvElem<V> {
        match (a, b) {
            (EnvElem::Bot, x) | (x, EnvElem::Bot) => x.clone(),
            (EnvElem::Vals(xs), EnvElem::Vals(ys)) => {
                EnvElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.widen(y)).collect())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::Universe;

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
