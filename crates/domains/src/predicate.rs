//! Predicate abstraction domains (Example 7.9 of the paper).
//!
//! [`PredicateDomain`] is the *Cartesian* predicate abstraction: each
//! predicate is tracked independently with a three-valued status, so the
//! domain cannot represent correlations like `p ↔ q`. Its *reduced
//! disjunctive (Boolean) completion* [`BooleanPredicateDomain`] tracks the
//! set of satisfiable minterms and can.
//!
//! Both implement only [`Abstraction`]; symbolic transfer functions for
//! predicate abstraction require a decision procedure, which is out of
//! scope (the paper's Example 7.9 itself is driven by the enumerative
//! engine, which needs only `α`/`γ`).

use std::fmt;

use air_lang::ast::BExp;
use air_lang::resolve::ResolvedBExp;
use air_lang::Universe;

use crate::traits::Abstraction;

/// Three-valued status of one predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tri {
    /// The predicate holds on every store.
    True,
    /// The predicate fails on every store.
    False,
    /// Unknown.
    Unknown,
}

impl Tri {
    fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Unknown
        }
    }

    fn leq(self, other: Tri) -> bool {
        self == other || other == Tri::Unknown
    }
}

/// An element of the Cartesian predicate domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PredElem {
    /// `⊥`.
    Bot,
    /// One status per predicate.
    Vals(Vec<Tri>),
}

impl fmt::Display for PredElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredElem::Bot => write!(f, "⊥"),
            PredElem::Vals(vs) => {
                let parts: Vec<String> = vs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        Tri::True => Some(format!("p{i}")),
                        Tri::False => Some(format!("¬p{i}")),
                        Tri::Unknown => None,
                    })
                    .collect();
                if parts.is_empty() {
                    write!(f, "⊤")
                } else {
                    write!(f, "{}", parts.join(" ∧ "))
                }
            }
        }
    }
}

/// The Cartesian predicate abstraction over a fixed predicate list.
///
/// # Example
///
/// ```
/// use air_domains::{Abstraction, PredicateDomain};
/// use air_lang::{parse_bexp, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("z", 0, 1), ("x", 0, 3), ("y", 0, 3)])?;
/// let dom = PredicateDomain::new(&u, vec![
///     ("p", parse_bexp("z = 0")?),
///     ("q", parse_bexp("x = y")?),
/// ]);
/// let s = u.filter(|st| st[0] == 0 && st[1] == st[2]);
/// let a = dom.alpha_set(&u, &s);
/// assert_eq!(a.to_string(), "p0 ∧ p1");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PredicateDomain {
    /// The predicates, resolved to the universe's store slots once.
    preds: Vec<ResolvedBExp>,
}

impl PredicateDomain {
    /// Creates the domain from `(name, predicate)` pairs. Elements print
    /// the predicates by position (`p0`, `p1`, …), so the names only
    /// label the pairs at the call site.
    pub fn new<S: Into<String>>(universe: &Universe, preds: Vec<(S, BExp)>) -> Self {
        PredicateDomain {
            preds: preds
                .into_iter()
                .map(|(_, p)| ResolvedBExp::new(universe, &p))
                .collect(),
        }
    }

    fn eval_pred(&self, i: usize, store: &[i64]) -> bool {
        self.preds[i].eval(store).unwrap_or(false)
    }

    /// Builds an element from explicit statuses.
    pub fn elem(&self, statuses: Vec<Tri>) -> PredElem {
        assert_eq!(statuses.len(), self.preds.len(), "status arity mismatch");
        PredElem::Vals(statuses)
    }
}

impl Abstraction for PredicateDomain {
    type Elem = PredElem;

    fn name(&self) -> &str {
        "Pred"
    }

    fn bottom(&self) -> PredElem {
        PredElem::Bot
    }

    fn is_bottom(&self, e: &PredElem) -> bool {
        matches!(e, PredElem::Bot)
    }

    fn leq(&self, a: &PredElem, b: &PredElem) -> bool {
        match (a, b) {
            (PredElem::Bot, _) => true,
            (_, PredElem::Bot) => false,
            (PredElem::Vals(xs), PredElem::Vals(ys)) => xs.iter().zip(ys).all(|(x, y)| x.leq(*y)),
        }
    }

    fn join(&self, a: &PredElem, b: &PredElem) -> PredElem {
        match (a, b) {
            (PredElem::Bot, x) | (x, PredElem::Bot) => x.clone(),
            (PredElem::Vals(xs), PredElem::Vals(ys)) => {
                PredElem::Vals(xs.iter().zip(ys).map(|(x, y)| x.join(*y)).collect())
            }
        }
    }

    fn alpha_store(&self, store: &[i64]) -> PredElem {
        PredElem::Vals(
            (0..self.preds.len())
                .map(|i| {
                    if self.eval_pred(i, store) {
                        Tri::True
                    } else {
                        Tri::False
                    }
                })
                .collect(),
        )
    }

    fn gamma_contains(&self, e: &PredElem, store: &[i64]) -> bool {
        match e {
            PredElem::Bot => false,
            PredElem::Vals(vs) => vs.iter().enumerate().all(|(i, t)| match t {
                Tri::Unknown => true,
                Tri::True => self.eval_pred(i, store),
                Tri::False => !self.eval_pred(i, store),
            }),
        }
    }
}

/// The Boolean (reduced disjunctive) completion of a predicate set: the
/// powerset of minterms over `n ≤ 16` predicates, encoded as a bitmask of
/// satisfiable minterm indices.
///
/// This is the refinement `B` used (and found too concrete) in the paper's
/// Example 7.9.
#[derive(Clone, Debug)]
pub struct BooleanPredicateDomain {
    /// The predicates, resolved to the universe's store slots once.
    preds: Vec<ResolvedBExp>,
}

/// An element of the Boolean predicate domain: the set of allowed minterms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MintermSet(pub u32);

impl BooleanPredicateDomain {
    /// Creates the domain from a predicate list.
    ///
    /// # Panics
    ///
    /// Panics if more than 5 predicates are supplied (minterm masks are
    /// `u32`).
    pub fn new(universe: &Universe, preds: Vec<BExp>) -> Self {
        assert!(preds.len() <= 5, "too many predicates for minterm masks");
        BooleanPredicateDomain {
            preds: preds
                .iter()
                .map(|p| ResolvedBExp::new(universe, p))
                .collect(),
        }
    }

    fn minterm(&self, store: &[i64]) -> u32 {
        let mut m = 0;
        for (i, p) in self.preds.iter().enumerate() {
            if p.eval(store).unwrap_or(false) {
                m |= 1 << i;
            }
        }
        m
    }
}

impl Abstraction for BooleanPredicateDomain {
    type Elem = MintermSet;

    fn name(&self) -> &str {
        "BoolPred"
    }

    fn bottom(&self) -> MintermSet {
        MintermSet(0)
    }

    fn is_bottom(&self, e: &MintermSet) -> bool {
        e.0 == 0
    }

    fn leq(&self, a: &MintermSet, b: &MintermSet) -> bool {
        a.0 & !b.0 == 0
    }

    fn join(&self, a: &MintermSet, b: &MintermSet) -> MintermSet {
        MintermSet(a.0 | b.0)
    }

    fn alpha_store(&self, store: &[i64]) -> MintermSet {
        MintermSet(1 << self.minterm(store))
    }

    fn gamma_contains(&self, e: &MintermSet, store: &[i64]) -> bool {
        e.0 & (1 << self.minterm(store)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::laws;
    use air_lang::parse_bexp;

    fn setup() -> (Universe, PredicateDomain) {
        let u = Universe::new(&[("z", 0, 1), ("x", 0, 2), ("y", 0, 2)]).unwrap();
        let dom = PredicateDomain::new(
            &u,
            vec![
                ("p", parse_bexp("z = 0").unwrap()),
                ("q", parse_bexp("x = y").unwrap()),
            ],
        );
        (u, dom)
    }

    fn some_sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.filter(|s| s[0] == 0),
            u.filter(|s| s[1] == s[2]),
            u.filter(|s| s[0] == 0 && s[1] == s[2]),
            u.filter(|s| (s[0] == 0) == (s[1] == s[2])), // p ↔ q
        ]
    }

    #[test]
    fn cartesian_laws() {
        let (u, dom) = setup();
        laws::check_closure_laws(&dom, &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &some_sets(&u)).unwrap();
    }

    #[test]
    fn boolean_laws() {
        let (u, _) = setup();
        let dom = BooleanPredicateDomain::new(
            &u,
            vec![parse_bexp("z = 0").unwrap(), parse_bexp("x = y").unwrap()],
        );
        laws::check_closure_laws(&dom, &u, &some_sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &some_sets(&u)).unwrap();
    }

    #[test]
    fn cartesian_cannot_express_iff_but_boolean_can() {
        let (u, cart) = setup();
        let bool_dom = BooleanPredicateDomain::new(
            &u,
            vec![parse_bexp("z = 0").unwrap(), parse_bexp("x = y").unwrap()],
        );
        let iff = u.filter(|s| (s[0] == 0) == (s[1] == s[2]));
        // Cartesian: closure blows up to ⊤.
        let cart_closure = cart.closure_set(&u, &iff);
        assert_eq!(cart_closure, u.full());
        // Boolean completion is exact on p ↔ q.
        let bool_closure = bool_dom.closure_set(&u, &iff);
        assert_eq!(bool_closure, iff);
    }

    #[test]
    fn alpha_classifies_minterms() {
        let (_, dom) = setup();
        assert_eq!(dom.alpha_store(&[0, 1, 1]).to_string(), "p0 ∧ p1");
        assert_eq!(dom.alpha_store(&[1, 0, 2]).to_string(), "¬p0 ∧ ¬p1");
    }

    #[test]
    fn join_loses_correlation() {
        let (_, dom) = setup();
        let a = dom.alpha_store(&[0, 1, 1]); // p ∧ q
        let b = dom.alpha_store(&[1, 0, 2]); // ¬p ∧ ¬q
        let (u, _) = setup();
        let j = dom.join(&a, &b);
        assert_eq!(j, dom.alpha_set(&u, &u.full()));
    }

    #[test]
    fn display_forms() {
        let (u, dom) = setup();
        assert_eq!(dom.alpha_set(&u, &u.full()).to_string(), "⊤");
        assert_eq!(dom.bottom().to_string(), "⊥");
        assert_eq!(
            dom.elem(vec![Tri::True, Tri::False]).to_string(),
            "p0 ∧ ¬p1"
        );
    }
}
