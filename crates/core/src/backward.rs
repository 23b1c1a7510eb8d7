//! Backward repair — Algorithm 2 of the paper (`bRepair` and `inv`).
//!
//! Backward repair works on *abstract* inputs and weakest liberal
//! preconditions: it never needs the concrete trajectory, and after a
//! repair it continues along the existing abstract computation instead of
//! restarting (the key advantage over forward repair, Section 5 (iv)).
//!
//! The implementation follows the paper's pseudocode line by line, once,
//! over any [`StateAlgebra`]: explicit bitsets ([`EnumAlgebra`], the
//! default) or decision diagrams
//! ([`SymAlgebra`](crate::symbolic::SymAlgebra)). The Kleene-star unroll
//! can use either the abstract join (the printed algorithm) or the
//! pointed widening `∇_N` of Definition 7.11 (the widened variant of
//! Section 7.2, Example 7.13).

use std::collections::HashMap;

use air_lang::ast::Reg;
use air_lang::{SemCache, StateSet, Universe};
use air_lattice::{ExhaustReason, Exhaustion, Governor};
use air_trace::{EventKind, Tracer};

use crate::absint::AbstractSemantics;
use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra, StoreSet};
use crate::domain::EnumDomain;
use crate::forward::RepairError;

/// Arena id of a discovered refinement point within one repair run.
type PointId = u32;

/// How the star case grows its unrolled input (line 20 of Algorithm 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UnrollStrategy {
    /// `P ∨_{A⊞N} R` — the printed algorithm; exact on finite universes.
    #[default]
    Join,
    /// `P ∇_N (P ∨_{A⊞N} R)` — the pointed-widening variant
    /// (Definition 7.11), guaranteeing termination on non-ACC domains.
    PointedWidening,
}

/// The outcome of a backward repair (Theorem 7.6).
#[derive(Clone, Debug)]
pub struct BackwardOutcome {
    /// The greatest valid input `V = V⟨P, r, S⟩`, expressible in `A ⊞ N'`.
    pub valid_input: StateSet,
    /// The added points `N'` (in discovery order, deduplicated).
    pub points: Vec<StateSet>,
    /// Number of recursive `bRepair` calls.
    pub calls: usize,
    /// Number of `inv` fixpoint iterations across all loops.
    pub inv_iterations: usize,
}

impl BackwardOutcome {
    /// The repaired domain `A ⊞ N'`.
    pub fn domain(&self, base: &EnumDomain) -> EnumDomain {
        base.with_points(self.points.iter().cloned())
    }
}

/// The backward repair strategy (Algorithm 2) over a [`StateAlgebra`] —
/// by default the enumerative one ([`EnumAlgebra`]).
///
/// # Example
///
/// ```
/// use air_core::{BackwardRepair, EnumDomain};
/// use air_domains::IntervalEnv;
/// use air_lang::{parse_program, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Example 7.8: while (x > 0) { x := x - 1; y := y - 1 } with
/// // Spec = (y = 0). Backward repair discovers the relational invariant
/// // y = x that intervals cannot express.
/// let u = Universe::new(&[("x", -1, 8), ("y", -1, 8)])?;
/// let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }")?;
/// let pre = u.filter(|s| s[0] > 0 && s[0] <= 5);
/// let spec = u.filter(|s| s[0] <= 0 || s[1] != 0 || s[1] == 0); // ⊤ here; see tests
/// let out = BackwardRepair::new(&u).repair(&dom, &u.full(), &prog, &spec)?;
/// assert!(out.valid_input.is_subset(&u.full()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BackwardRepair<'u, A = EnumAlgebra<'u>> {
    universe: &'u Universe,
    alg: A,
    strategy: UnrollStrategy,
    max_calls: usize,
    trace: Tracer,
    governor: Governor,
}

/// Per-repair mutable state. The arena keeps each distinct point once
/// (`points`, in discovery order) and the in-flight `N` travels as a
/// small `Vec<PointId>` — splitting copies a handful of `u32`s.
struct Ctx<'u, A: StateAlgebra> {
    calls: usize,
    inv_iterations: usize,
    /// Hoisted abstract interpreter over the run's algebra: one engine
    /// for the whole run instead of one per `abs_exec` call.
    sem: AbstractSemantics<'u, A>,
    /// The point arena: every distinct point discovered, in order.
    points: Vec<A::Set>,
    /// Reverse index of `points` for O(1) dedup on push.
    ids: HashMap<A::Set, PointId>,
    /// The longest point set seen on any `bRepair` path — the best
    /// partial refinement to report if the budget runs out (the error
    /// path of Algorithm 2 discards the in-flight `N`).
    best_points: Vec<PointId>,
    /// Refinement domains `A ⊞ N` by point-id list: `with_points` re-runs
    /// expressibility closures per point, so recursion siblings sharing
    /// an `N` must share the built domain instead of rebuilding it.
    dom_cache: HashMap<Vec<PointId>, A::Domain>,
}

impl<A: StateAlgebra> Ctx<'_, A> {
    /// Arena id for `p`, interning it on first sight.
    fn point_id(&mut self, p: &A::Set) -> PointId {
        if let Some(&id) = self.ids.get(p) {
            return id;
        }
        let id = PointId::try_from(self.points.len()).expect("point arena overflow");
        self.points.push(p.clone());
        self.ids.insert(p.clone(), id);
        id
    }

    /// Pushes `p` onto `n` unless already present; reports whether it was
    /// new (so call sites only trace points that actually refine).
    fn push(&mut self, n: &mut Vec<PointId>, p: &A::Set) -> bool {
        let id = self.point_id(p);
        if n.contains(&id) {
            false
        } else {
            n.push(id);
            true
        }
    }

    fn union_ids(a: Vec<PointId>, b: Vec<PointId>) -> Vec<PointId> {
        let mut out = a;
        for id in b {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// The state sets behind an id list (outcome boundaries only).
    fn materialize(&self, n: &[PointId]) -> Vec<A::Set> {
        n.iter()
            .map(|&id| self.points[id as usize].clone())
            .collect()
    }

    /// `⟦r⟧♯_{A⊞N} P` in the current refinement (domain and interpreter
    /// both come from the per-run caches).
    fn abs_exec(
        &mut self,
        base: &A::Domain,
        n: &[PointId],
        r: &Reg,
        t: A::Term,
        p: &A::Set,
    ) -> Result<A::Set, RepairError> {
        let dom = Self::domain(&mut self.dom_cache, &self.points, base, n);
        Ok(self.sem.exec_term(dom, r, t, &dom.close(p))?)
    }

    /// The refinement `base ⊞ N` for an id list, built once per distinct
    /// `N` and shared by every recursive call that reaches it.
    fn domain<'a>(
        dom_cache: &'a mut HashMap<Vec<PointId>, A::Domain>,
        points: &[A::Set],
        base: &A::Domain,
        n: &[PointId],
    ) -> &'a A::Domain {
        dom_cache
            .entry(n.to_vec())
            .or_insert_with(|| base.with_points(n.iter().map(|&id| points[id as usize].clone())))
    }
}

impl<'u> BackwardRepair<'u> {
    /// Creates the strategy with exact joins, a generous call budget and a
    /// fresh shared cache (the recursive `bRepair` calls re-derive the
    /// same `wlp` and transfer images constantly).
    pub fn new(universe: &'u Universe) -> Self {
        Self::with_cache(universe, SemCache::new())
    }

    /// Creates the strategy memoizing into `cache`.
    pub fn with_cache(universe: &'u Universe, cache: SemCache) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, cache))
    }

    /// Creates the strategy without memoization (the reference path).
    pub fn uncached(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::uncached(universe))
    }

    /// The shared semantic cache, if caching is enabled.
    pub fn cache(&self) -> Option<&SemCache> {
        self.alg.cache()
    }
}

impl<'u, A: StateAlgebra> BackwardRepair<'u, A> {
    /// Creates the strategy over `alg` with exact joins and a generous
    /// call budget.
    pub fn from_algebra(universe: &'u Universe, alg: A) -> Self {
        BackwardRepair {
            universe,
            alg,
            strategy: UnrollStrategy::Join,
            max_calls: 1_000_000,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Emits `incompleteness`/`shell_point`/`widening` events (and the
    /// algebra's cache hit/miss/bypass telemetry) through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.alg.set_tracer(&tracer);
        self.trace = tracer;
        self
    }

    /// Selects the star unroll strategy.
    pub fn unroll_strategy(mut self, strategy: UnrollStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the recursion budget.
    pub fn max_calls(mut self, max: usize) -> Self {
        self.max_calls = max;
        self
    }

    /// Enforces `governor` at every `bRepair` entry, `inv` iteration and
    /// (through the shared handle) the abstract fixpoint it runs:
    /// exhaustion surfaces as [`RepairError::Exhausted`] carrying the
    /// best partial refinement and a sound partial invariant.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Algorithm 2 entry point: `bRepair_A(∅, A(P), r, S)`.
    ///
    /// `p` is closed in the base domain first (Lemma 7.5 suggests starting
    /// from an expressible input; passing any `p` analyzes `A(p)`). `p`
    /// and `spec` are lifted into the algebra here and the outcome is
    /// lowered back to bitsets, so callers see one outcome type whichever
    /// algebra ran.
    ///
    /// # Errors
    ///
    /// [`RepairError::Sem`] on evaluation failures;
    /// [`RepairError::Exhausted`] if the call budget or the configured
    /// [`Governor`] runs out — the error then carries the deepest point
    /// set reached and a sound partial invariant in that refinement.
    pub fn repair(
        &self,
        base: &A::Domain,
        p: &StateSet,
        r: &Reg,
        spec: &StateSet,
    ) -> Result<BackwardOutcome, RepairError> {
        let _span = self.trace.span(|| "repair.backward".to_string());
        let (alg, root) = self.alg.for_repair(r);
        let p = alg.lift(p);
        let spec = alg.lift(spec);
        let mut ctx = Ctx {
            calls: 0,
            inv_iterations: 0,
            sem: AbstractSemantics::from_algebra(self.universe, alg)
                .governor(self.governor.clone()),
            points: Vec::new(),
            ids: HashMap::new(),
            best_points: Vec::new(),
            dom_cache: HashMap::new(),
        };
        let p_hat = base.close(&p);
        let (valid_input, points) =
            match self.brepair(base, Vec::new(), p_hat, r, root, &spec, &mut ctx) {
                Ok((v, n)) => (v, ctx.materialize(&n)),
                Err(e) => return Err(self.exhausted(e, base, &ctx, r, &p)),
            };
        self.trace.emit_detail_with(|| EventKind::Counter {
            name: "backward.calls".to_string(),
            delta: ctx.calls as u64,
        });
        self.trace.emit_detail_with(|| EventKind::Counter {
            name: "backward.inv_iterations".to_string(),
            delta: ctx.inv_iterations as u64,
        });
        Ok(BackwardOutcome {
            valid_input: self.alg.lower(valid_input),
            points: points.into_iter().map(|p| self.alg.lower(p)).collect(),
            calls: ctx.calls,
            inv_iterations: ctx.inv_iterations,
        })
    }

    /// Enriches a budget cutoff with the best partial result: the deepest
    /// point set any `bRepair` path reached, plus the abstract invariant
    /// in that partial refinement — sound by construction (abstract
    /// interpretation over-approximates in *any* pointed refinement;
    /// only the precision of Thm. 7.6 needs the completed repair).
    fn exhausted(
        &self,
        err: RepairError,
        base: &A::Domain,
        ctx: &Ctx<'u, A>,
        r: &Reg,
        p: &A::Set,
    ) -> RepairError {
        let RepairError::Exhausted(mut partial) = err else {
            return err;
        };
        let best = ctx.materialize(&ctx.best_points);
        if partial.invariant.is_none() {
            // Ungoverned pass: the absint fixpoint is bounded by the
            // universe size, so this terminates despite the spent budget.
            let dom = base.with_points(best.iter().cloned());
            let sem = AbstractSemantics::from_algebra(self.universe, self.alg.clone());
            partial.invariant = sem
                .exec(&dom, r, &dom.close(p))
                .ok()
                .map(|inv| self.alg.lower(inv));
        }
        if partial.points.is_empty() {
            partial.points = best.into_iter().map(|p| self.alg.lower(p)).collect();
        }
        self.trace.emit_with(|| EventKind::BudgetExhausted {
            phase: partial.exhaustion.phase.clone(),
            spent: partial.exhaustion.spent,
            reason: partial.exhaustion.reason.name().to_string(),
        });
        RepairError::Exhausted(partial)
    }

    fn trace_point(&self, rule: &str, exp: &impl std::fmt::Display, point: &A::Set) {
        self.trace.emit_detail_with(|| EventKind::ShellPoint {
            rule: rule.to_string(),
            exp: exp.to_string(),
            point_size: point.size(),
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn brepair(
        &self,
        base: &A::Domain,
        mut n: Vec<PointId>,
        p: A::Set,
        r: &Reg,
        t: A::Term,
        s: &A::Set,
        ctx: &mut Ctx<'u, A>,
    ) -> Result<(A::Set, Vec<PointId>), RepairError> {
        ctx.calls += 1;
        self.governor.check_with(|| "repair.backward".to_string())?;
        if ctx.calls > self.max_calls {
            return Err(Exhaustion {
                phase: "repair.backward.max_calls".to_string(),
                spent: ctx.calls as u64,
                reason: ExhaustReason::Fuel,
            }
            .into());
        }
        if n.len() > ctx.best_points.len() {
            ctx.best_points = n.clone();
        }
        // Line 2: if ⟦r⟧♯_{A⊞N} P ≤ S then return ⟨P, N⟩.
        if ctx.abs_exec(base, &n, r, t, &p)?.is_subset(s) {
            return Ok((p, n));
        }
        match r {
            // Lines 4–6: basic expression.
            Reg::Basic(e) => {
                // Reaching this case means line 2 failed: the abstract
                // image of `e` escapes `S`, a local incompleteness
                // witness in the sense of Def. 4.1.
                self.trace.emit_detail_with(|| EventKind::Incompleteness {
                    exp: e.to_string(),
                    input_size: p.size(),
                });
                // V⟨P, e, S⟩ = P ∩ wlp(e, S).
                let v = p.intersection(&ctx.sem.algebra().wlp(t, r, s)?);
                let q = s.intersection(&ctx.abs_exec(base, &n, r, t, &p)?);
                if ctx.push(&mut n, &v) {
                    self.trace_point("bRepair basic: V⟨P,e,S⟩ (Alg 2 l.5)", e, &v);
                }
                if ctx.push(&mut n, &q) {
                    self.trace_point("bRepair basic: S ∧ ⟦e⟧♯P (Alg 2 l.5)", e, &q);
                }
                Ok((v, n))
            }
            // Lines 7–10: sequential composition.
            Reg::Seq(r0, r1) => {
                let (t0, t1) = ctx.sem.algebra().children(t);
                let mid = ctx.abs_exec(base, &n, r0, t0, &p)?;
                let (v1, n1) = self.brepair(base, n.clone(), mid, r1, t1, s, ctx)?;
                let (v0, n0) = self.brepair(base, n, p, r0, t0, &v1, ctx)?;
                Ok((v0, Ctx::<A>::union_ids(n0, n1)))
            }
            // Lines 11–15: choice.
            Reg::Choice(r0, r1) => {
                let (t0, t1) = ctx.sem.algebra().children(t);
                let (v0, n0) = self.brepair(base, n.clone(), p.clone(), r0, t0, s, ctx)?;
                let (v1, n1) = self.brepair(base, n.clone(), p.clone(), r1, t1, s, ctx)?;
                let q = s.intersection(&ctx.abs_exec(base, &n, r, t, &p)?);
                let mut out = Ctx::<A>::union_ids(n0, n1);
                if ctx.push(&mut out, &q) {
                    self.trace_point("bRepair choice: S ∧ ⟦r⟧♯P (Alg 2 l.14)", r, &q);
                }
                Ok((v0.intersection(&v1), out))
            }
            // Lines 16–21: Kleene star.
            Reg::Star(r0) => {
                let (body, _) = ctx.sem.algebra().children(t);
                let r_step = ctx.abs_exec(base, &n, r0, body, &p)?;
                if r_step.is_subset(&p) {
                    self.inv(base, n, p, r0, body, s.clone(), ctx)
                } else {
                    let dom = Ctx::<A>::domain(&mut ctx.dom_cache, &ctx.points, base, &n);
                    let grown = dom.join(&p, &r_step);
                    let unrolled = match self.strategy {
                        UnrollStrategy::Join => grown,
                        UnrollStrategy::PointedWidening => {
                            self.trace.emit_detail_with(|| EventKind::Widening {
                                site: "backward.star".to_string(),
                            });
                            dom.pointed_widen(&p, &grown)
                        }
                    };
                    let (v1, n1) = self.brepair(base, n, unrolled, r, t, s, ctx)?;
                    Ok((p.intersection(&v1), n1))
                }
            }
        }
    }

    /// Lines 22–27: the loop-invariant fixpoint `inv_A`.
    #[allow(clippy::too_many_arguments)]
    fn inv(
        &self,
        base: &A::Domain,
        n: Vec<PointId>,
        p: A::Set,
        r: &Reg,
        t: A::Term,
        mut v1: A::Set,
        ctx: &mut Ctx<'u, A>,
    ) -> Result<(A::Set, Vec<PointId>), RepairError> {
        loop {
            ctx.inv_iterations += 1;
            self.governor
                .check_with(|| "repair.backward.inv".to_string())?;
            let v0 = p.intersection(&v1);
            let mut n0 = n.clone();
            if ctx.push(&mut n0, &v0) {
                self.trace_point("bRepair inv: P ∧ V₁ (Alg 2 l.24)", r, &v0);
            }
            let (next_v1, n1) = self.brepair(base, n0, v0.clone(), r, t, &v0, ctx)?;
            if next_v1 == v0 {
                return Ok((next_v1, n1));
            }
            v1 = next_v1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalCompleteness;
    use air_domains::{IntervalEnv, OctagonDomain};
    use air_lang::{parse_program, Concrete, Wlp};

    /// Example 7.8: the countdown loop. Backward repair on Int discovers
    /// the relational invariant x ∈ [0, K] ∧ y = x and its companions.
    #[test]
    fn example_7_8_countdown() {
        // Scaled-down bounds (the paper uses 0 < x ≤ 100). The universe
        // gives y enough headroom below (−10 ≤ −2 − K) that no run from
        // A(pre) is truncated by the universe restriction.
        let k = 8;
        let u = Universe::new(&[("x", -2, 10), ("y", -10, 10)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        // P = 0 < x ≤ K ∧ y ≥ −2, Spec = y = 0.
        let pre = u.filter(|s| s[0] > 0 && s[0] <= k && s[1] >= -2);
        let spec = u.filter(|s| s[1] == 0);
        let out = BackwardRepair::new(&u)
            .repair(&dom, &pre, &prog, &spec)
            .unwrap();
        // The expected greatest valid input within A(pre):
        // A(pre) = x ∈ [1, K] × y ∈ [-2, 10]; valid iff y = x.
        let expected = u.filter(|s| s[0] >= 1 && s[0] <= k && s[1] == s[0]);
        assert_eq!(out.valid_input, expected, "R1 = x ∈ [1,K] ∧ y = x");
        // The relational invariant P̄ = x ∈ [0, K] ∧ y = x is among the
        // added points, up to the universe-restriction fringe (stores whose
        // run would fall below y = −10 have no behaviour and are vacuously
        // valid, so wlp-derived points include them).
        let escape_fringe = u.filter(|s| s[0] > 0 && s[1] - s[0] < -10);
        let p_bar = u.filter(|s| (0..=k).contains(&s[0]) && s[1] == s[0]);
        assert!(
            out.points
                .iter()
                .any(|p| p.difference(&escape_fringe) == p_bar),
            "P̄ missing among {} points",
            out.points.len()
        );
        // Theorem 7.6(b): ⟦r⟧♯_{A⊞N'} V ≤ S.
        let repaired = out.domain(&dom);
        let asem = AbstractSemantics::new(&u);
        let abs_out = asem
            .exec(&repaired, &prog, &repaired.close(&out.valid_input))
            .unwrap();
        assert!(abs_out.is_subset(&spec));
        // Theorem 7.6(a): V is expressible in A ⊞ N'.
        assert!(repaired.is_expressible(&out.valid_input));
        // Theorem 7.6(c): V = V⟨P̂, r, S⟩ — checked against brute force.
        let wlp = Wlp::new(&u);
        let brute = wlp.valid_input(&dom.close(&pre), &prog, &spec).unwrap();
        assert_eq!(out.valid_input, brute);
    }

    /// Corollary 7.7: for any P' ≤ P̂, ⟦r⟧P' ≤ Spec ⇔ P' ≤ V.
    #[test]
    fn corollary_7_7_decides_all_subinputs() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        let out = BackwardRepair::new(&u)
            .repair(&dom, &pre, &prog, &spec)
            .unwrap();
        let sem = Concrete::new(&u);
        // Sample sub-inputs of A(pre).
        let p_hat = dom.close(&pre);
        let samples = [
            u.filter(|s| s[0] == 2 && s[1] == 2),
            u.filter(|s| s[0] == 2 && s[1] == 3),
            u.filter(|s| s[0] >= 1 && s[0] <= 3 && s[1] == s[0]),
            u.filter(|s| s[0] == 1 && s[1] <= 1),
        ];
        for p_prime in samples {
            let p_prime = p_prime.intersection(&p_hat);
            let concrete_ok = sem.exec(&prog, &p_prime).unwrap().is_subset(&spec);
            let decided_ok = p_prime.is_subset(&out.valid_input);
            assert_eq!(concrete_ok, decided_ok);
        }
    }

    /// The AbsVal introduction by backward repair: proves x ≠ 0 on odds.
    #[test]
    fn absval_backward() {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let out = BackwardRepair::new(&u)
            .repair(&dom, &odd, &prog, &spec)
            .unwrap();
        // A(odd) = [-7,7]; the valid inputs are exactly the nonzero ones.
        assert_eq!(out.valid_input, u.filter(|s| s[0] != 0 && s[0].abs() <= 7));
        // odd ⊆ V ⇒ the spec holds on the original input (Cor. 7.7).
        assert!(odd.is_subset(&out.valid_input));
    }

    /// An invalid spec is refuted: V < P and a violating sub-input exists.
    #[test]
    fn refutation_produces_strict_valid_input() {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("x := x + 1").unwrap();
        let pre = u.filter(|s| (0..=5).contains(&s[0]));
        let spec = u.filter(|s| s[0] <= 3);
        let out = BackwardRepair::new(&u)
            .repair(&dom, &pre, &prog, &spec)
            .unwrap();
        assert_eq!(out.valid_input, u.filter(|s| (0..=2).contains(&s[0])));
        assert!(!pre.is_subset(&out.valid_input)); // refuted
    }

    /// The strategy repairs locally: every added point makes some proof
    /// obligation complete; the final domain is locally complete for the
    /// program on the valid input.
    #[test]
    fn final_domain_locally_complete_on_valid_input() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        let out = BackwardRepair::new(&u)
            .repair(&dom, &pre, &prog, &spec)
            .unwrap();
        let repaired = out.domain(&dom);
        let lc = LocalCompleteness::new(&u);
        assert!(lc.check(&repaired, &prog, &out.valid_input).unwrap());
    }

    /// Pointed widening (Definition 7.11 / Example 7.13) yields the same
    /// verdicts, possibly with different intermediate points.
    #[test]
    fn widened_unroll_agrees_on_verdict() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        let spec = u.filter(|s| s[1] <= 15);
        let exact = BackwardRepair::new(&u)
            .repair(&dom, &u.full(), &prog, &spec)
            .unwrap();
        let widened = BackwardRepair::new(&u)
            .unroll_strategy(UnrollStrategy::PointedWidening)
            .repair(&dom, &u.full(), &prog, &spec)
            .unwrap();
        assert_eq!(exact.valid_input, u.full());
        assert_eq!(widened.valid_input, u.full());
    }

    /// Octagons start closer to complete: fewer points are needed for the
    /// countdown loop than with intervals.
    #[test]
    fn octagon_base_needs_fewer_points() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let int_dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let oct_dom = EnumDomain::from_abstraction(&u, OctagonDomain::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        let br = BackwardRepair::new(&u);
        let int_out = br.repair(&int_dom, &pre, &prog, &spec).unwrap();
        let oct_out = br.repair(&oct_dom, &pre, &prog, &spec).unwrap();
        assert_eq!(int_out.valid_input, oct_out.valid_input);
        assert!(
            oct_out.points.len() <= int_out.points.len(),
            "Oct should need no more points than Int ({} vs {})",
            oct_out.points.len(),
            int_out.points.len()
        );
    }

    #[test]
    fn budget_exhaustion_reports() {
        let u = Universe::new(&[("x", 0, 4)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x < 4) do { x := x + 1 }").unwrap();
        let err = BackwardRepair::new(&u)
            .max_calls(1)
            .repair(&dom, &u.of_values([0]), &prog, &u.empty())
            .unwrap_err();
        let Some(exhaustion) = err.exhaustion() else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(exhaustion.phase, "repair.backward.max_calls");
        assert_eq!(exhaustion.reason, ExhaustReason::Fuel);
    }

    #[test]
    fn governed_exhaustion_carries_sound_partial_invariant() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        // Generous enough to make some progress, tight enough to trip
        // before Algorithm 2 converges.
        let g = Governor::new(air_lattice::Budget::fuel(8));
        let err = BackwardRepair::new(&u)
            .governor(g)
            .repair(&dom, &pre, &prog, &spec)
            .unwrap_err();
        let RepairError::Exhausted(partial) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        // The partial invariant over-approximates the concrete reachable
        // states from A(pre) — soundness survives the cutoff.
        let p_hat = dom.close(&pre);
        let conc = Concrete::new(&u).exec(&prog, &p_hat).unwrap();
        let inv = partial.invariant.expect("partial invariant computed");
        assert!(conc.is_subset(&inv), "partial invariant must stay sound");
    }
}
