//! Local completeness and pointed shells (Section 4 of the paper).
//!
//! The queries hold for any additive transformer `f` ([`Additive`]),
//! given by its image and its `wlp`:
//!
//! - [`LocalCompleteness::check`] — Definition 4.1: `C^A_c(f) ⇔ A f(c) =
//!   A f A(c)`.
//! - [`LocalCompleteness::sup_l`] — the lub of the local completeness set
//!   `L^A_{c,f} = {x ≤ A(c) | f(x) ≤ A f(c)}`; for additive `f`
//!   `∨L = A(c) ∧ wlp(f, A f(c))` (Theorem 4.4(ii)).
//! - [`LocalCompleteness::pointed_shell`] — Theorem 4.9: `A_u` with
//!   `u = ∨L` is the pointed shell iff `f(c) ≤ u ⇒ f(u) ≤ u`.
//! - [`LocalCompleteness::guard_shell`] — Theorem 4.11: the always-existing
//!   shell for a Boolean guard pair `{b?, ¬b?}`:
//!   `u = (A(P∩b)∩b) ∪ (A(P∩¬b)∩¬b)`.
//!
//! A program command `⟦r⟧` is one instance (through the
//! [`StateAlgebra`]); a transition system's `post_{π_k}` is the other
//! (Section 6, in `air-cegar`).

use air_lang::ast::{BExp, Exp, Reg};
use air_lang::{SemCache, SemError, StateSet, Universe};

use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra, StoreSet};
use crate::forward::RepairRule;

/// An additive transformer `f` on the sets of an algebra `A`, given by
/// its image and its weakest liberal precondition. Additivity is what
/// makes `∨L` a closed form (Theorem 4.4(ii)).
pub trait Additive<A: StateAlgebra> {
    /// The image `f(c)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from concrete execution.
    fn image(&self, alg: &A, c: &A::Set) -> Result<A::Set, SemError>;
    /// `wlp(f, post) = {σ | f({σ}) ⊆ post}`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from concrete execution.
    fn wlp(&self, alg: &A, post: &A::Set) -> Result<A::Set, SemError>;
}

/// A program's collecting semantics `⟦r⟧`, answered by the algebra.
impl<A: StateAlgebra> Additive<A> for Reg {
    fn image(&self, alg: &A, c: &A::Set) -> Result<A::Set, SemError> {
        alg.exec(None, self, c)
    }

    fn wlp(&self, alg: &A, post: &A::Set) -> Result<A::Set, SemError> {
        alg.wlp(None, self, post)
    }
}

/// The result of a pointed-shell construction (Theorem 4.9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShellResult<S = StateSet> {
    /// The pointed shell exists; `A ⊞ {point}` is the most abstract
    /// locally complete pointed refinement.
    Shell {
        /// The new point `u = ∨L^A_{c,f}`.
        point: S,
    },
    /// No pointed shell exists (Theorem 4.9's condition fails); callers
    /// may fall back to the most concrete pointed refinement `A ⊞ {c}`.
    NoShell {
        /// The candidate `u = ∨L^A_{c,f}` that failed the condition.
        candidate: S,
    },
}

impl<S> ShellResult<S> {
    /// The shell point if one exists.
    pub fn shell_point(&self) -> Option<&S> {
        match self {
            ShellResult::Shell { point } => Some(point),
            ShellResult::NoShell { .. } => None,
        }
    }
}

/// Local-completeness queries over a [`StateAlgebra`] — by default the
/// enumerative one ([`EnumAlgebra`]).
///
/// [`new`](LocalCompleteness::new) memoizes concrete images, `wlp`s and
/// guard sets in a fresh [`SemCache`] shared by all clones;
/// [`from_algebra`](LocalCompleteness::from_algebra) over
/// [`EnumAlgebra::uncached`] is the reference path (differential tests,
/// baseline benchmarks).
#[derive(Clone, Debug)]
pub struct LocalCompleteness<'u, A = EnumAlgebra<'u>> {
    universe: &'u Universe,
    alg: A,
}

impl<'u> LocalCompleteness<'u> {
    /// Creates the query context with a fresh shared cache.
    pub fn new(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, SemCache::new()))
    }

    /// The shared semantic cache, if caching is enabled.
    pub fn cache(&self) -> Option<&SemCache> {
        self.alg.cache()
    }
}

impl<'u, A: StateAlgebra> LocalCompleteness<'u, A> {
    /// Creates the query context over `alg`.
    pub fn from_algebra(universe: &'u Universe, alg: A) -> Self {
        LocalCompleteness { universe, alg }
    }

    /// Definition 4.1: is `dom` locally complete for `f` on `c`?
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from concrete execution.
    pub fn check<F>(&self, dom: &A::Domain, f: &F, c: &A::Set) -> Result<bool, SemError>
    where
        F: Additive<A> + ?Sized,
    {
        Ok(self.defect(dom, f, c)?.size() == 0)
    }

    /// The *incompleteness defect* `A f A(c) ∖ A f(c)`: the spurious
    /// states introduced by abstracting the input. Empty iff locally
    /// complete; exposing the witness makes diagnostics and tests precise.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn defect<F>(&self, dom: &A::Domain, f: &F, c: &A::Set) -> Result<A::Set, SemError>
    where
        F: Additive<A> + ?Sized,
    {
        let exact = dom.close(&f.image(&self.alg, c)?);
        let through = dom.close(&f.image(&self.alg, &dom.close(c))?);
        Ok(through.difference(&exact))
    }

    /// `∨L^A_{c,f} = A(c) ∧ wlp(f, A f(c))` for additive `f`
    /// (Theorem 4.4(ii)).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn sup_l<F>(&self, dom: &A::Domain, f: &F, c: &A::Set) -> Result<A::Set, SemError>
    where
        F: Additive<A> + ?Sized,
    {
        let afc = dom.close(&f.image(&self.alg, c)?);
        let pre = f.wlp(&self.alg, &afc)?;
        Ok(dom.close(c).intersection(&pre))
    }

    /// Theorem 4.4: `C^A_c(f) ⇔ ∨L ∈ A` for additive `f`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn check_via_sup<F>(&self, dom: &A::Domain, f: &F, c: &A::Set) -> Result<bool, SemError>
    where
        F: Additive<A> + ?Sized,
    {
        let u = self.sup_l(dom, f, c)?;
        Ok(dom.close(&u) == u)
    }

    /// Theorem 4.9(ii): constructs the pointed shell of `dom` for `f` on
    /// `c` when it exists. For additive `f` the shell is `A_u` with
    /// `u = ∨L`, and it exists iff `f(c) ≤ u ⇒ f(u) ≤ u`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn pointed_shell<F>(
        &self,
        dom: &A::Domain,
        f: &F,
        c: &A::Set,
    ) -> Result<ShellResult<A::Set>, SemError>
    where
        F: Additive<A> + ?Sized,
    {
        let u = self.sup_l(dom, f, c)?;
        let fc = f.image(&self.alg, c)?;
        let exists = if fc.is_subset(&u) {
            f.image(&self.alg, &u)?.is_subset(&u)
        } else {
            true
        };
        Ok(if exists {
            ShellResult::Shell { point: u }
        } else {
            ShellResult::NoShell { candidate: u }
        })
    }

    /// Theorem 4.11: the pointed shell for the guard pair `{b?, ¬b?}` on
    /// `P`, which always exists:
    /// `u = (A(P∩b) ∩ b) ∪ (A(P∩¬b) ∩ ¬b)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from guard evaluation.
    pub fn guard_shell(&self, dom: &A::Domain, b: &BExp, p: &A::Set) -> Result<A::Set, SemError> {
        let sat_b = self.alg.sat(b)?;
        let not_b = sat_b.complement();
        let pos = dom.close(&p.intersection(&sat_b)).intersection(&sat_b);
        let neg = dom.close(&p.intersection(&not_b)).intersection(&not_b);
        Ok(pos.union(&neg))
    }

    /// `refine_A(N, R, e)` of Algorithm 1: the point repairing the
    /// violated obligation of the basic command `e` on `c`. Guards always
    /// have a pointed shell (Theorem 4.11); other commands take the shell
    /// of Theorem 4.9, or the most concrete refinement `A ⊞ {c}` when none
    /// exists (Section 5).
    pub(crate) fn refine(
        &self,
        dom: &A::Domain,
        e: &Exp,
        c: &A::Set,
    ) -> Result<(A::Set, RepairRule), SemError> {
        Ok(match e {
            Exp::Assume(b) => (self.guard_shell(dom, b, c)?, RepairRule::GuardShell),
            e => match self.pointed_shell(dom, &Reg::Basic(e.clone()), c)? {
                ShellResult::Shell { point } => (point, RepairRule::PointedShell),
                ShellResult::NoShell { .. } => (c.clone(), RepairRule::MostConcrete),
            },
        })
    }

    /// Local completeness of a single basic command (`Definition 4.1` with
    /// `f = ⟦e⟧`).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`].
    pub fn check_exp(&self, dom: &A::Domain, e: &Exp, c: &A::Set) -> Result<bool, SemError> {
        self.check(dom, &Reg::Basic(e.clone()), c)
    }

    /// The universe this context works over.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The algebra the queries run in.
    pub(crate) fn algebra(&self) -> &A {
        &self.alg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::EnumDomain;
    use air_domains::IntervalEnv;
    use air_lang::{parse_bexp, parse_program};

    fn int_universe() -> Universe {
        Universe::new(&[("x", -8, 8)]).unwrap()
    }

    fn int_domain(u: &Universe) -> EnumDomain {
        EnumDomain::from_abstraction(u, IntervalEnv::new(u))
    }

    /// Example 4.2: c = if (0 < x) then x := x − 2 else x := x + 1.
    fn example_4_2_program() -> Reg {
        parse_program("if (0 < x) then { x := x - 2 } else { x := x + 1 }").unwrap()
    }

    #[test]
    fn example_4_2_local_completeness_cases() {
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let c = example_4_2_program();
        // Locally complete on P1 = {2, 5} ⊆ Z>0 ...
        assert!(lc.check(&dom, &c, &u.of_values([2, 5])).unwrap());
        // ... and on subsets of Z≤0, and when {0,1} ⊆ P ...
        assert!(lc.check(&dom, &c, &u.of_values([-4, -1])).unwrap());
        assert!(lc.check(&dom, &c, &u.of_values([0, 1, 5])).unwrap());
        // ... but not on P2 = {0, 3}.
        assert!(!lc.check(&dom, &c, &u.of_values([0, 3])).unwrap());
        // Theorem 4.4 equivalence on all four inputs.
        for vals in [vec![2, 5], vec![-4, -1], vec![0, 1, 5], vec![0, 3]] {
            let p = u.of_values(vals);
            assert_eq!(
                lc.check(&dom, &c, &p).unwrap(),
                lc.check_via_sup(&dom, &c, &p).unwrap()
            );
        }
    }

    #[test]
    fn example_4_2_composition_breaks_local_completeness() {
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let c = example_4_2_program();
        let cc = c.clone().seq(c.clone());
        let p1 = u.of_values([2, 5]);
        assert!(lc.check(&dom, &c, &p1).unwrap());
        assert!(!lc.check(&dom, &cc, &p1).unwrap());
        // Int(⟦c;c⟧{2,5}) = [1,1] but Int(⟦c;c⟧[2,5]) = [-1,1].
        let defect = lc.defect(&dom, &cc, &p1).unwrap();
        assert_eq!(defect, u.of_values([-1, 0]));
    }

    #[test]
    fn example_4_5_sup_l_values() {
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let c = example_4_2_program();
        // ∨L on P1 = {2,5} is [2,5] (expressible ⇒ locally complete).
        assert_eq!(
            lc.sup_l(&dom, &c, &u.of_values([2, 5])).unwrap(),
            u.filter(|s| (2..=5).contains(&s[0]))
        );
        // ∨L on P2 = {0,3} is {0,3} (not expressible ⇒ incomplete).
        assert_eq!(
            lc.sup_l(&dom, &c, &u.of_values([0, 3])).unwrap(),
            u.of_values([0, 3])
        );
    }

    #[test]
    fn example_4_6_and_4_10_toy_shell() {
        // A = {Z, [0,4], [1,3]}, f = x := x + 1, P = {0, 2}.
        let u = int_universe();
        let dom = EnumDomain::from_family(
            &u,
            "Toy",
            [
                u.filter(|s| (0..=4).contains(&s[0])),
                u.filter(|s| (1..=3).contains(&s[0])),
            ],
        );
        let lc = LocalCompleteness::new(&u);
        let f = parse_program("x := x + 1").unwrap();
        let p = u.of_values([0, 2]);
        assert!(!lc.check(&dom, &f, &p).unwrap());
        // ∨L = [0,2]; f(P) = {1,3} ⊄ [0,2] so the premise fails and the
        // shell exists: A_{[0,2]}.
        let shell = lc.pointed_shell(&dom, &f, &p).unwrap();
        assert_eq!(
            shell.shell_point().unwrap(),
            &u.filter(|s| (0..=2).contains(&s[0]))
        );
        // The refined domain is locally complete on P (Example 4.6).
        let refined = dom.with_point(shell.shell_point().unwrap().clone());
        assert!(lc.check(&refined, &f, &p).unwrap());
    }

    #[test]
    fn example_4_10_interval_shell_for_compound() {
        // Int is not locally complete for Example 4.2's c on P2 = {0,3};
        // ∨L = {0,3} and ⟦c⟧P2 = {1} ⊄ {0,3}, so Int ⊞ {0,3} is the shell.
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let c = example_4_2_program();
        let p2 = u.of_values([0, 3]);
        let shell = lc.pointed_shell(&dom, &c, &p2).unwrap();
        assert_eq!(shell.shell_point().unwrap(), &p2);
        let refined = dom.with_point(p2.clone());
        assert!(lc.check(&refined, &c, &p2).unwrap());
    }

    #[test]
    fn example_4_12_guard_shell() {
        // b = x > 0, P = {-3, -1, 2}: u = [-3,-1] ∪ {2}.
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let b = parse_bexp("x > 0").unwrap();
        let p = u.of_values([-3, -1, 2]);
        let shell = lc.guard_shell(&dom, &b, &p).unwrap();
        assert_eq!(shell, u.of_values([-3, -2, -1, 2]));
        // The refinement makes both guards locally complete on P.
        let refined = dom.with_point(shell);
        assert!(lc.check_exp(&refined, &Exp::Assume(b.clone()), &p).unwrap());
        assert!(lc
            .check_exp(&refined, &Exp::Assume(b.negate()), &p)
            .unwrap());
    }

    #[test]
    fn convexity_of_local_completeness() {
        // Remark after Def. 4.1: C^A_c(f) implies C^A_x(f) for c ≤ x ≤ A(c).
        let u = int_universe();
        let dom = int_domain(&u);
        let lc = LocalCompleteness::new(&u);
        let c = example_4_2_program();
        let p = u.of_values([2, 5]);
        assert!(lc.check(&dom, &c, &p).unwrap());
        let closure = dom.close(&p); // [2,5]
        for extra in [3, 4] {
            let mut x = p.clone();
            x.insert(u.store_index(&[extra]).unwrap());
            assert!(x.is_subset(&closure));
            assert!(lc.check(&dom, &c, &x).unwrap(), "failed at x ∪ {{{extra}}}");
        }
    }

    #[test]
    fn shell_optimality_among_pointed_refinements() {
        // Any point x ≤ A(c) whose pointed refinement is locally complete
        // satisfies x ≤ u (maximality of the shell point).
        let u = Universe::new(&[("x", -4, 4)]).unwrap();
        let lc = LocalCompleteness::new(&u);
        let f = parse_program("x := x + 1").unwrap();
        // Build a genuinely incomplete instance on the toy domain.
        let toy = EnumDomain::from_family(
            &u,
            "Toy",
            [
                u.filter(|s| (0..=4).contains(&s[0])),
                u.filter(|s| (1..=3).contains(&s[0])),
            ],
        );
        let p = u.of_values([0, 2]);
        let ShellResult::Shell { point: shell } = lc.pointed_shell(&toy, &f, &p).unwrap() else {
            panic!("shell must exist here");
        };
        let a_of_p = toy.close(&p);
        // Enumerate all subsets of A(p) containing p (small: |A(p)| = 5).
        let extra: Vec<usize> = a_of_p.difference(&p).iter().collect();
        for mask in 0u32..(1 << extra.len()) {
            let mut x = p.clone();
            for (k, &idx) in extra.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    x.insert(idx);
                }
            }
            let refined = toy.with_point(x.clone());
            if lc.check(&refined, &f, &p).unwrap() {
                assert!(
                    x.is_subset(&shell),
                    "locally complete point {x:?} exceeds the shell {shell:?}"
                );
            }
        }
    }
}
