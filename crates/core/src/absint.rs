//! The abstract semantics `⟦·⟧♯_{A⊞N}`, once for every [`StateAlgebra`].
//!
//! Basic commands are interpreted by their *best correct approximation*
//! `⟦e⟧_A = A ∘ ⟦e⟧ ∘ γ` (paper, Section 3.2) — on a domain whose
//! elements are already concretized state sets this is just
//! `A_N(⟦e⟧(a))`. Kleene stars iterate to the least fixpoint, optionally
//! accelerated by the pointed widening `∇_N` (Definition 7.11) to mirror
//! the paper's widened analyses.

use air_lang::ast::Reg;
use air_lang::{SemCache, SemError, Universe};
use air_lattice::Governor;
use air_trace::{EventKind, Tracer};

use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra, StoreSet};

/// Star acceleration strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StarStrategy {
    /// Exact least fixpoint by Kleene iteration (always terminates on a
    /// finite universe).
    #[default]
    Lfp,
    /// Pointed widening `X ∇_N (X ∨ step)` per Definition 7.11 — converges
    /// faster and reproduces the paper's widened invariants.
    PointedWidening,
}

/// An abstract interpreter over a [`StateAlgebra`] — by default the
/// enumerative one ([`EnumAlgebra`]).
///
/// # Example
///
/// ```
/// use air_core::{AbstractSemantics, EnumDomain};
/// use air_domains::IntervalEnv;
/// use air_lang::{parse_program, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let sem = AbstractSemantics::new(&u);
/// let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
/// let odd = u.filter(|s| s[0] % 2 != 0);
/// let out = sem.exec(&dom, &prog, &dom.close(&odd))?;
/// // The false alarm of the paper's introduction: 0 is included.
/// assert!(out.contains(u.store_index(&[0]).unwrap()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AbstractSemantics<'u, A = EnumAlgebra<'u>> {
    universe: &'u Universe,
    alg: A,
    strategy: StarStrategy,
    trace: Tracer,
    governor: Governor,
}

impl<'u> AbstractSemantics<'u> {
    /// Creates the abstract interpreter with exact star fixpoints and a
    /// fresh transfer-function cache.
    pub fn new(universe: &'u Universe) -> Self {
        Self::with_cache(universe, SemCache::new())
    }

    /// Creates the interpreter memoizing concrete transfer images into
    /// `cache` (shareable across engines and threads).
    pub fn with_cache(universe: &'u Universe, cache: SemCache) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, cache))
    }

    /// Creates the interpreter without memoization (the reference path).
    pub fn uncached(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::uncached(universe))
    }
}

impl<'u, A: StateAlgebra> AbstractSemantics<'u, A> {
    /// Creates the abstract interpreter over `alg` with exact star
    /// fixpoints.
    pub fn from_algebra(universe: &'u Universe, alg: A) -> Self {
        AbstractSemantics {
            universe,
            alg,
            strategy: StarStrategy::Lfp,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Selects the star acceleration strategy.
    pub fn star_strategy(mut self, strategy: StarStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Emits `widening` events (and the algebra's cache hit/miss/bypass
    /// telemetry) through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.alg.set_tracer(&tracer);
        self.trace = tracer;
        self
    }

    /// Enforces `governor` at the star fixpoint's loop head: exhaustion
    /// surfaces as [`SemError::Exhausted`] instead of running the
    /// iteration to the universe bound.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// The algebra this interpreter runs in.
    pub(crate) fn algebra(&self) -> &A {
        &self.alg
    }

    /// `⟦r⟧♯_{A⊞N} a` for an expressible `a` (callers pass `dom.close`d
    /// inputs; the function also accepts raw sets and closes basic-command
    /// outputs).
    ///
    /// With a memoizing algebra the term is interned once and the
    /// abstract image of every node is memoized per refinement, so
    /// re-analyses of a subterm on an input already seen are O(1).
    /// Widened images are never memoized (the memo key does not carry the
    /// strategy).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from concrete transfer functions (universe
    /// escapes, overflow).
    pub fn exec(&self, dom: &A::Domain, r: &Reg, a: &A::Set) -> Result<A::Set, SemError> {
        let t = match self.strategy {
            StarStrategy::Lfp => self.alg.term(r),
            StarStrategy::PointedWidening => A::Term::default(),
        };
        self.exec_term(dom, r, t, a)
    }

    /// [`exec`](Self::exec) of the node `r` whose handle is `t`.
    pub(crate) fn exec_term(
        &self,
        dom: &A::Domain,
        r: &Reg,
        t: A::Term,
        a: &A::Set,
    ) -> Result<A::Set, SemError> {
        self.alg.abs_image(dom, t, a, || match r {
            Reg::Basic(e) => Ok(dom.close(&self.alg.image(t, e, a)?)),
            Reg::Seq(r1, r2) => {
                let (t1, t2) = self.alg.children(t);
                let mid = self.exec_term(dom, r1, t1, a)?;
                self.exec_term(dom, r2, t2, &mid)
            }
            Reg::Choice(r1, r2) => {
                let (t1, t2) = self.alg.children(t);
                let l = self.exec_term(dom, r1, t1, a)?;
                let rr = self.exec_term(dom, r2, t2, a)?;
                Ok(dom.join(&l, &rr))
            }
            Reg::Star(body) => {
                let (tb, _) = self.alg.children(t);
                let mut x = dom.close(a);
                // Strictly increasing on a finite lattice: ≤ |Σ|+1 rounds
                // for Lfp; pointed widening converges at least as fast.
                for _ in 0..=self.universe.size() {
                    self.governor.check_with(|| "absint.star".to_string())?;
                    let step = self.exec_term(dom, body, tb, &x)?;
                    let grown = dom.join(&x, &step);
                    if grown.is_subset(&x) {
                        return Ok(x);
                    }
                    x = match self.strategy {
                        StarStrategy::Lfp => grown,
                        StarStrategy::PointedWidening => {
                            self.trace.emit_detail_with(|| EventKind::Widening {
                                site: "absint.star".to_string(),
                            });
                            dom.pointed_widen(&x, &grown)
                        }
                    };
                }
                Err(SemError::Divergence)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::EnumDomain;
    use air_domains::IntervalEnv;
    use air_lang::{parse_program, Universe};

    fn setup() -> (Universe, EnumDomain) {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        (u, dom)
    }

    #[test]
    fn abstract_exec_is_sound() {
        let (u, dom) = setup();
        let sem = AbstractSemantics::new(&u);
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        let conc = air_lang::Concrete::new(&u).exec(&prog, &u.full()).unwrap();
        let abst = sem.exec(&dom, &prog, &u.full()).unwrap();
        assert!(conc.is_subset(&abst));
        // The Int analysis loses the i-j relation: j's upper bound at exit
        // covers the whole enumerated range, like the paper's [0, ∞].
        assert!(abst.contains(u.store_index(&[6, 20]).unwrap()));
    }

    #[test]
    fn bca_of_basic_commands() {
        let (u, dom) = setup();
        let sem = AbstractSemantics::new(&u);
        let guard = parse_program("assume i <= 5").unwrap();
        let input = dom.close(&u.filter(|s| s[0] == 2 || s[0] == 7));
        let out = sem.exec(&dom, &guard, &input).unwrap();
        // bca: A(⟦b?⟧([2,7]×…)) = i ∈ [2,5].
        assert_eq!(out, u.filter(|s| (2..=5).contains(&s[0])));
    }

    #[test]
    fn repaired_domain_changes_abstract_output() {
        let (u, dom) = setup();
        let sem = AbstractSemantics::new(&u);
        let prog = parse_program("assume i <= 5").unwrap();
        let odd = u.filter(|s| s[0] % 2 == 1);
        // Base Int: closure of odd inputs includes evens.
        let base_out = sem.exec(&dom, &prog, &dom.close(&odd)).unwrap();
        assert!(base_out.contains(u.store_index(&[2, 0]).unwrap()));
        // After adding the odd set as a point, the guard stays exact.
        let dom2 = dom.with_point(odd.clone());
        let refined_out = sem.exec(&dom2, &prog, &dom2.close(&odd)).unwrap();
        assert!(!refined_out.contains(u.store_index(&[2, 0]).unwrap()));
    }

    #[test]
    fn star_lfp_and_widened_agree_in_inclusion() {
        let (u, dom) = setup();
        let prog = parse_program("star { assume i < 5; i := i + 1 }").unwrap();
        let input = u.filter(|s| s[0] == 0 && s[1] == 0);
        let exact = AbstractSemantics::new(&u)
            .exec(&dom, &prog, &dom.close(&input))
            .unwrap();
        let sink = std::sync::Arc::new(air_trace::MemorySink::new());
        let widened = AbstractSemantics::new(&u)
            .star_strategy(StarStrategy::PointedWidening)
            .tracer(air_trace::Tracer::new(sink.clone()))
            .exec(&dom, &prog, &dom.close(&input))
            .unwrap();
        assert!(exact.is_subset(&widened));
        // Each ∇_N application at the loop head is traced.
        assert!(sink
            .drain()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Widening { ref site } if site == "absint.star")));
    }
}
