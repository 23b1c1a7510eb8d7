//! Store-abstraction traits.
//!
//! [`Abstraction`] is the Galois-insertion view of an abstract domain over
//! program stores: it provides `α` on single stores (extended additively to
//! state sets by [`Abstraction::alpha_set`]) and a membership test for `γ`.
//! The enumerative AIR engine in `air-core` needs nothing more — it
//! enumerates `γ` over a finite universe exactly like the paper's pilot
//! implementation.
//!
//! [`Transfer`] adds the abstract transfer functions of basic commands and
//! enables the generic abstract interpreter
//! [`Analyzer`](crate::analyzer::Analyzer).

use std::fmt;

use air_lang::ast::{AExp, BExp};
use air_lang::{StateSet, Universe};

/// An abstract domain of program-store properties, presented by `α`/`γ`.
///
/// Implementations must form a Galois insertion with `℘(Σ)`:
/// `alpha_set` must be additive over stores, `gamma_contains` must be
/// monotone in the element, and `α(γ(a)) = a` for elements reachable from
/// `alpha_set`. These laws are exercised by shared tests via finite
/// universes.
pub trait Abstraction {
    /// Abstract elements.
    type Elem: Clone + PartialEq + fmt::Debug;

    /// Short human-readable domain name (e.g. `"Int"`, `"Oct"`).
    fn name(&self) -> &str;

    /// The greatest element `⊤` (all stores).
    fn top(&self) -> Self::Elem;

    /// The least element `⊥` (no store).
    fn bottom(&self) -> Self::Elem;

    /// Returns `true` if `e` denotes the empty set of stores.
    fn is_bottom(&self, e: &Self::Elem) -> bool;

    /// Abstract order.
    fn leq(&self, a: &Self::Elem, b: &Self::Elem) -> bool;

    /// Abstract join (least upper bound).
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Abstract meet (greatest lower bound).
    fn meet(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Widening; defaults to join (correct for finite-height domains).
    fn widen(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.join(a, b)
    }

    /// Narrowing `a Δ b` for the decreasing iteration after widening; the
    /// default accepts the refined iterate `b`, which is sound when `b` is
    /// a decreasing iterate from a post-fixpoint.
    fn narrow(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        let _ = a;
        b.clone()
    }

    /// Abstraction of a single store.
    fn alpha_store(&self, store: &[i64]) -> Self::Elem;

    /// Membership test for the concretization: `store ∈ γ(e)`.
    fn gamma_contains(&self, e: &Self::Elem, store: &[i64]) -> bool;

    /// Additive abstraction of a state set: `α(S) = ∨{α({σ}) | σ ∈ S}`.
    ///
    /// A store already covered by the running join is skipped: in a
    /// Galois insertion `α({σ}) ≤ acc ⇔ σ ∈ γ(acc)`, and the least upper
    /// bound of `acc` and an element below it is `acc` itself. A domain
    /// whose `join` is not the exact least upper bound (so joining a
    /// covered store may still rewrite `acc`) must override this with
    /// [`alpha_fold`].
    fn alpha_set(&self, universe: &Universe, set: &StateSet) -> Self::Elem {
        let mut acc = self.bottom();
        let mut cursor = universe.cursor();
        for i in set.iter() {
            let store = cursor.seek(i);
            if !self.gamma_contains(&acc, store) {
                acc = self.join(&acc, &self.alpha_store(store));
            }
        }
        acc
    }

    /// Enumerated concretization over a universe: `γ(e)` as a state set.
    fn gamma_set(&self, universe: &Universe, e: &Self::Elem) -> StateSet {
        universe.filter(|s| self.gamma_contains(e, s))
    }

    /// The induced closure on state sets: `A(S) = γ(α(S))`, enumerated.
    fn closure_set(&self, universe: &Universe, set: &StateSet) -> StateSet {
        self.gamma_set(universe, &self.alpha_set(universe, set))
    }
}

/// The plain additive fold `α(S) = ⊥ ⊔ α({σ₁}) ⊔ … ⊔ α({σₙ})`, joining
/// every store in index order: the `alpha_set` of domains whose `join` is
/// not the exact least upper bound.
pub fn alpha_fold<A: Abstraction + ?Sized>(
    dom: &A,
    universe: &Universe,
    set: &StateSet,
) -> A::Elem {
    let mut acc = dom.bottom();
    let mut cursor = universe.cursor();
    for i in set.iter() {
        acc = dom.join(&acc, &dom.alpha_store(cursor.seek(i)));
    }
    acc
}

/// Abstract transfer functions of basic commands, enabling a standard
/// abstract interpretation (the best correct approximation is *not*
/// required — soundness is; incompleteness is exactly what AIR repairs).
pub trait Transfer: Abstraction {
    /// Abstract semantics of the assignment `var := a`.
    fn assign(&self, e: &Self::Elem, var: &str, a: &AExp) -> Self::Elem;

    /// Abstract semantics of the guard `b?`.
    fn assume(&self, e: &Self::Elem, b: &BExp) -> Self::Elem;

    /// Abstract semantics of the nondeterministic assignment `x := ?`.
    /// The default returns `⊤` (always sound); domains should override
    /// with "forget `var`".
    fn havoc(&self, e: &Self::Elem, var: &str) -> Self::Elem {
        let _ = (e, var);
        self.top()
    }
}

/// Finite-sample law checks shared by domain test suites.
pub mod laws {
    use super::*;

    /// Checks `S ⊆ γ(α(S))` (extensivity of the induced closure) and
    /// idempotency on a list of state sets.
    pub fn check_closure_laws<A: Abstraction>(
        dom: &A,
        universe: &Universe,
        sets: &[StateSet],
    ) -> Result<(), String> {
        for s in sets {
            let c = dom.closure_set(universe, s);
            if !s.is_subset(&c) {
                return Err(format!(
                    "γ∘α not extensive on {s:?} (domain {})",
                    dom.name()
                ));
            }
            let cc = dom.closure_set(universe, &c);
            if cc != c {
                return Err(format!(
                    "γ∘α not idempotent on {s:?} (domain {})",
                    dom.name()
                ));
            }
        }
        // Monotonicity on pairs.
        for a in sets {
            for b in sets {
                if a.is_subset(b) {
                    let ca = dom.closure_set(universe, a);
                    let cb = dom.closure_set(universe, b);
                    if !ca.is_subset(&cb) {
                        return Err(format!(
                            "γ∘α not monotone on {a:?} ⊆ {b:?} (domain {})",
                            dom.name()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks `α(γ(α(S))) = α(S)` — the insertion property along reachable
    /// elements.
    pub fn check_insertion<A: Abstraction>(
        dom: &A,
        universe: &Universe,
        sets: &[StateSet],
    ) -> Result<(), String> {
        for s in sets {
            let a = dom.alpha_set(universe, s);
            let back = dom.alpha_set(universe, &dom.gamma_set(universe, &a));
            if back != a {
                return Err(format!(
                    "α∘γ∘α ≠ α on {s:?}: {back:?} vs {a:?} (domain {})",
                    dom.name()
                ));
            }
        }
        Ok(())
    }

    /// Checks soundness of the abstract transfer of a basic command `f♯`
    /// against the concrete collecting semantics `f`:
    /// `f(γ(α(S))) ⊆ γ(f♯(α(S)))`.
    pub fn check_transfer_sound<A: Transfer>(
        dom: &A,
        universe: &Universe,
        sets: &[StateSet],
        concrete: impl Fn(&StateSet) -> Option<StateSet>,
        abstract_f: impl Fn(&A::Elem) -> A::Elem,
    ) -> Result<(), String> {
        for s in sets {
            let a = dom.alpha_set(universe, s);
            let gamma_a = dom.gamma_set(universe, &a);
            let Some(post) = concrete(&gamma_a) else {
                continue; // universe escape: nothing to check
            };
            let abs_post = abstract_f(&a);
            let gamma_post = dom.gamma_set(universe, &abs_post);
            if !post.is_subset(&gamma_post) {
                return Err(format!(
                    "unsound transfer on {s:?}: {post:?} ⊄ {gamma_post:?} (domain {})",
                    dom.name()
                ));
            }
        }
        Ok(())
    }
}
