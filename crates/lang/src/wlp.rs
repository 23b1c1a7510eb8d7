//! Weakest liberal preconditions over a finite universe.
//!
//! For an additive `f`, `wlp(f, z) = ∨{x | f(x) ≤ z}` (paper, Section 5),
//! and `f(c) ≤ a ⇔ c ≤ wlp(f, a)`. The backward repair strategy is driven
//! entirely by wlp's of basic commands; this module also provides wlp of
//! compound regular commands and the *greatest valid input*
//! `V⟨P, r, Spec⟩ = P ∧ wlp(⟦r⟧, Spec)` of Definition 7.3.
//!
//! The wlp matches the *universe-restricted* semantics of
//! [`Concrete`]: a store whose successor escapes the
//! universe has no behaviour, so it satisfies every postcondition
//! vacuously (exactly like the liberal treatment of nontermination) and
//! belongs to every wlp. Validate universes with
//! [`Concrete::strict`](crate::Concrete::strict) when vacuous membership
//! would be misleading.

use crate::ast::{BExp, Exp, Reg};
use crate::resolve::ResolvedAExp;
use crate::semantics::{Concrete, SemError};
use crate::store::{StateSet, Universe};

/// Weakest-liberal-precondition transformers for a universe.
///
/// # Example
///
/// ```
/// use air_lang::{parse_program, Universe, Wlp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", 0, 9)])?;
/// let wlp = Wlp::new(&u);
/// let prog = parse_program("x := x + 1")?;
/// let post = u.filter(|s| s[0] >= 5);
/// // x+1 ≥ 5 ⇔ x ≥ 4 (x = 9 escapes the universe, hence is vacuously in).
/// assert_eq!(wlp.reg(&prog, &post)?, u.filter(|s| s[0] >= 4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Wlp<'u> {
    sem: Concrete<'u>,
}

impl<'u> Wlp<'u> {
    /// Creates the wlp transformer for a universe.
    pub fn new(universe: &'u Universe) -> Self {
        Wlp {
            sem: Concrete::new(universe),
        }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.sem.universe()
    }

    /// wlp of a basic command.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`SemError::UnknownVar`],
    /// [`SemError::Overflow`]).
    pub fn exp(&self, e: &Exp, post: &StateSet) -> Result<StateSet, SemError> {
        let u = self.universe();
        match e {
            Exp::Skip => Ok(post.clone()),
            // wlp(b?, z) = ¬b ∪ (b ∩ z) = ¬b ∪ z
            Exp::Assume(b) => {
                let sat_b = self.sem.sat(b)?;
                Ok(sat_b.complement().union(post))
            }
            // wlp(x := ?, z) = {σ | ∀v ∈ range(x). σ[x ↦ v] ∈ z}
            //              = ¬⟦x := ?⟧¬z (no σ[x ↦ v] leaves z)
            Exp::Havoc(_) => Ok(self.sem.exec_exp(e, &post.complement())?.complement()),
            // wlp(x := a, z) = {σ | σ[x ↦ ⟦a⟧σ] ∈ z}
            Exp::Assign(x, a) => {
                let xi = u
                    .var_index(x)
                    .ok_or_else(|| SemError::UnknownVar(x.clone()))?;
                let a = ResolvedAExp::new(u, a);
                let mut out = u.empty();
                let mut cursor = u.cursor();
                for i in 0..u.size() {
                    let store = cursor.seek(i);
                    let v = a.eval(store)?;
                    // Restricted semantics: no successor ⇒ vacuously in.
                    if u.reassign(i, xi, store[xi], v)
                        .is_none_or(|j| post.contains(j))
                    {
                        out.insert(i);
                    }
                }
                Ok(out)
            }
        }
    }

    /// wlp of a regular command, by structural induction:
    ///
    /// ```text
    /// wlp(r1; r2, z)  = wlp(r1, wlp(r2, z))
    /// wlp(r1 ⊕ r2, z) = wlp(r1, z) ∩ wlp(r2, z)
    /// wlp(r*, z)      = gfp(λX. z ∩ wlp(r, X))
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; the gfp converges on finite universes.
    pub fn reg(&self, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        match r {
            Reg::Basic(e) => self.exp(e, post),
            Reg::Seq(r1, r2) => {
                let mid = self.reg(r2, post)?;
                self.reg(r1, &mid)
            }
            Reg::Choice(r1, r2) => Ok(self.reg(r1, post)?.intersection(&self.reg(r2, post)?)),
            Reg::Star(body) => {
                // Downward iteration from `post`; strictly decreasing, so at
                // most |Σ| + 1 rounds.
                let mut acc = post.clone();
                for _ in 0..=self.universe().size() {
                    let next = post.intersection(&self.reg(body, &acc)?);
                    if next == acc {
                        return Ok(acc);
                    }
                    acc = next;
                }
                Err(SemError::Divergence)
            }
        }
    }

    /// The greatest valid input `V⟨P, r, Spec⟩ = ∨{P' ≤ P | ⟦r⟧P' ≤ Spec}`
    /// of Definition 7.3, computed as `P ∩ wlp(⟦r⟧, Spec)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn valid_input(
        &self,
        pre: &StateSet,
        r: &Reg,
        spec: &StateSet,
    ) -> Result<StateSet, SemError> {
        Ok(pre.intersection(&self.reg(r, spec)?))
    }

    /// wlp of a Boolean guard given as an expression (`V⟨P, b?, S⟩` helper).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn guard(&self, b: &BExp, post: &StateSet) -> Result<StateSet, SemError> {
        self.exp(&Exp::Assume(b.clone()), post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AExp;
    use crate::parser::{parse_bexp, parse_program};

    fn universe() -> Universe {
        Universe::new(&[("x", 0, 9), ("y", 0, 9)]).unwrap()
    }

    #[test]
    fn wlp_skip_is_identity() {
        let u = universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] == 3);
        assert_eq!(w.exp(&Exp::Skip, &post).unwrap(), post);
    }

    #[test]
    fn wlp_guard_matches_definition() {
        let u = universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] >= 5);
        let b = parse_bexp("x > 2").unwrap();
        let got = w.guard(&b, &post).unwrap();
        // ¬(x>2) ∪ (x ≥ 5)
        assert_eq!(got, u.filter(|s| s[0] <= 2 || s[0] >= 5));
    }

    #[test]
    fn wlp_assignment() {
        let u = universe();
        let w = Wlp::new(&u);
        let post = u.filter(|s| s[0] == s[1]);
        let e = Exp::assign("x", AExp::var("y"));
        assert_eq!(w.exp(&e, &post).unwrap(), u.full());
        let e2 = Exp::assign("x", AExp::var("x").add(1.into()));
        let got = w.exp(&e2, &post).unwrap();
        // x = 9 escapes, hence is vacuously safe.
        assert_eq!(got, u.filter(|s| s[0] + 1 == s[1] || s[0] == 9));
    }

    #[test]
    fn wlp_includes_escaping_stores_vacuously() {
        let u = universe();
        let w = Wlp::new(&u);
        let e = Exp::assign("x", AExp::var("x").add(1.into()));
        // Even against the empty postcondition, x = 9 has no behaviour.
        let got = w.exp(&e, &u.empty()).unwrap();
        assert_eq!(got, u.filter(|s| s[0] == 9));
    }

    /// The adjunction `⟦r⟧P ≤ Z ⇔ P ≤ wlp(r, Z)` checked exhaustively on a
    /// small program and randomized-ish sets.
    #[test]
    fn wlp_galois_adjunction_with_exec() {
        let u = Universe::new(&[("x", 0, 5)]).unwrap();
        let w = Wlp::new(&u);
        let sem = Concrete::new(&u);
        let prog = parse_program("if (x < 5) then { x := x + 1 } else { skip }").unwrap();
        let sets: Vec<StateSet> = vec![
            u.empty(),
            u.full(),
            u.of_values([0, 2]),
            u.of_values([5]),
            u.of_values([1, 3, 4]),
        ];
        for p in &sets {
            for z in &sets {
                let lhs = sem.exec(&prog, p).unwrap().is_subset(z);
                let rhs = p.is_subset(&w.reg(&prog, z).unwrap());
                assert_eq!(lhs, rhs, "adjunction failed for P={p:?}, Z={z:?}");
            }
        }
    }

    #[test]
    fn wlp_of_star_is_gfp() {
        let u = Universe::new(&[("x", 0, 9)]).unwrap();
        let w = Wlp::new(&u);
        // star { assume x < 9; x := x + 1 } : from x, all of x..9 reachable.
        let prog = parse_program("star { assume x < 9; x := x + 1 }").unwrap();
        let post = u.filter(|s| s[0] <= 6);
        // Any start ≤ 6 can still step to 7, violating post ⇒ wlp = ∅...
        // except states where iteration cannot exceed 6 — none, since x<9
        // allows growth past 6. Only stores already violating post are out.
        assert_eq!(w.reg(&prog, &post).unwrap(), u.empty());
        // With post = everything reachable, wlp is the full set.
        assert_eq!(w.reg(&prog, &u.full()).unwrap(), u.full());
    }

    #[test]
    fn valid_input_is_definition_7_3() {
        let u = universe();
        let w = Wlp::new(&u);
        let sem = Concrete::new(&u);
        let prog = parse_program("x := x + y").unwrap();
        let pre = u.filter(|s| s[0] <= 4);
        let spec = u.filter(|s| s[0] <= 6);
        let v = w.valid_input(&pre, &prog, &spec).unwrap();
        // V is the largest P' ≤ pre with exec(P') ⊆ spec.
        assert!(sem.exec(&prog, &v).unwrap().is_subset(&spec));
        assert!(v.is_subset(&pre));
        // maximality: adding any other pre-state breaks the spec
        for i in pre.difference(&v).iter() {
            let mut bigger = v.clone();
            bigger.insert(i);
            assert!(!sem
                .exec(&prog, &bigger)
                .unwrap_or(u.full())
                .is_subset(&spec));
        }
    }

    #[test]
    fn wlp_havoc_is_universal() {
        let u = universe();
        let w = Wlp::new(&u);
        // wlp(y := ?, x ≤ y) requires x ≤ min(range y) = 0... only x = 0
        // survives ∀y ∈ [0,9]. x ≤ y ⇔ x ≤ 0.
        let post = u.filter(|s| s[0] <= s[1]);
        let got = w.exp(&Exp::havoc("y"), &post).unwrap();
        assert_eq!(got, u.filter(|s| s[0] == 0));
        // Against ⊤ everything is safe; against ⊥ nothing is.
        assert_eq!(w.exp(&Exp::havoc("y"), &u.full()).unwrap(), u.full());
        assert_eq!(w.exp(&Exp::havoc("y"), &u.empty()).unwrap(), u.empty());
        // The adjunction holds for havoc too.
        let sem = Concrete::new(&u);
        let p = u.filter(|s| s[0] == 0 && s[1] == 5);
        assert!(sem.exec_exp(&Exp::havoc("y"), &p).unwrap().is_subset(&post));
        assert!(p.is_subset(&got));
    }

    #[test]
    fn wlp_choice_is_meet() {
        let u = universe();
        let w = Wlp::new(&u);
        let prog = parse_program("either { x := x + 1 } or { x := x - 1 }").unwrap();
        let post = u.filter(|s| s[0] >= 3 && s[0] <= 7);
        let got = w.reg(&prog, &post).unwrap();
        assert_eq!(got, u.filter(|s| s[0] >= 4 && s[0] <= 6));
    }
}
