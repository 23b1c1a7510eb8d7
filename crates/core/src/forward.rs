//! Forward repair — Algorithm 1 of the paper (`fRepair`).
//!
//! The `find` oracle walks the program alongside the *concrete* semantics,
//! checking one local completeness proof obligation per basic command; the
//! first violated obligation `⟨R, e⟩` is repaired by a pointed shell
//! (Theorem 4.11 for guards — always exists; Theorem 4.9 for assignments,
//! falling back to the most concrete refinement `A ⊞ {R}` when no shell
//! exists), and the analysis is restarted in the refined domain, exactly
//! as the paper prescribes ("after any repair, the forward strategy must
//! redo the abstract interpretation").
//!
//! The walk is also the `LCL_A` derivation (Section 9): `find` reports
//! each rule's conclusion to a `Recorder`, and the record of the last
//! pass — the one whose obligations all hold — is the derivation
//! [`Lcl`](crate::lcl::Lcl) returns. Algorithm 1 alone records nothing.

use std::fmt;

use air_lang::ast::{Exp, Reg};
use air_lang::{SemCache, SemError, StateSet, Universe};
use air_lattice::{ExhaustReason, Exhaustion, Governor};
use air_trace::{EventKind, Tracer};

use crate::absint::AbstractSemantics;
use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra, StoreSet};
use crate::domain::EnumDomain;
use crate::local::LocalCompleteness;

/// The best partial result available when a repair ran out of budget.
///
/// Everything in it is *sound*: `points` were legitimately added to the
/// domain before exhaustion (any pointed refinement is a valid domain,
/// Thm. 4.9/4.11), and `invariant`, when present, is the abstract
/// interpretation of the program in the partially-repaired domain — an
/// over-approximation of the reachable states by construction, merely
/// less precise than the fully-repaired one (Thm. 7.1/7.6 describe the
/// precision the *completed* repair would certify).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialRepair {
    /// Which phase tripped, how much fuel was spent, and why.
    pub exhaustion: Exhaustion,
    /// Points added to the domain before the budget ran out.
    pub points: Vec<StateSet>,
    /// A sound over-approximation of `⟦r⟧(A(P))` in the partially
    /// repaired domain, when one could be computed.
    pub invariant: Option<StateSet>,
}

impl PartialRepair {
    /// A partial result carrying only the exhaustion record (engines
    /// enrich it with points/invariant at their catch sites).
    pub fn bare(exhaustion: Exhaustion) -> Self {
        PartialRepair {
            exhaustion,
            points: Vec::new(),
            invariant: None,
        }
    }

    /// The enriched cutoff as an error, after emitting its
    /// `budget_exhausted` event through `trace`.
    pub(crate) fn traced(self: Box<Self>, trace: &Tracer) -> RepairError {
        trace.emit_with(|| EventKind::BudgetExhausted {
            phase: self.exhaustion.phase.clone(),
            spent: self.exhaustion.spent,
            reason: self.exhaustion.reason.name().to_string(),
        });
        RepairError::Exhausted(self)
    }
}

/// Errors from the repair algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// Concrete or abstract evaluation failed.
    Sem(SemError),
    /// A resource budget (fuel, deadline, cancellation, or the engine's
    /// own iteration cap) ran out; the boxed [`PartialRepair`] carries
    /// the best sound result computed before the cutoff.
    Exhausted(Box<PartialRepair>),
    /// An internal invariant was violated — a bug in the engine, never
    /// the user's fault.
    Internal(String),
}

impl RepairError {
    /// The exhaustion record, when this error is a budget cutoff.
    pub fn exhaustion(&self) -> Option<&Exhaustion> {
        match self {
            RepairError::Exhausted(p) => Some(&p.exhaustion),
            _ => None,
        }
    }
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Sem(e) => write!(f, "semantic evaluation failed: {e}"),
            RepairError::Exhausted(p) => {
                write!(f, "{} ({} partial points)", p.exhaustion, p.points.len())
            }
            RepairError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<SemError> for RepairError {
    fn from(e: SemError) -> Self {
        match e {
            SemError::Exhausted(x) => RepairError::from(x),
            other => RepairError::Sem(other),
        }
    }
}

impl From<Exhaustion> for RepairError {
    fn from(e: Exhaustion) -> Self {
        RepairError::Exhausted(Box::new(PartialRepair::bare(e)))
    }
}

/// Which construction produced a repair point (provenance for reports).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairRule {
    /// Theorem 4.11 — the always-existing Boolean-guard shell.
    GuardShell,
    /// Theorem 4.9 — the pointed shell `u = ∨L`.
    PointedShell,
    /// No shell exists; the most concrete pointed refinement `A ⊞ {c}`
    /// was used (Section 5's fallback).
    MostConcrete,
}

impl fmt::Display for RepairRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairRule::GuardShell => "guard shell (Thm 4.11)",
            RepairRule::PointedShell => "pointed shell (Thm 4.9)",
            RepairRule::MostConcrete => "most concrete refinement",
        })
    }
}

/// The outcome of a successful forward repair.
#[derive(Clone, Debug)]
pub struct RepairOutcome<D = EnumDomain> {
    /// The repaired domain `A ⊞ N'` — locally complete for the program on
    /// the input.
    pub domain: D,
    /// The under-approximation `Q ≤ ⟦r⟧P` with `A_{N'}(Q) = A_{N'}(⟦r⟧P)`
    /// (Theorem 7.1). With the concrete `find` oracle this is exact.
    pub under: StateSet,
    /// Number of pointed-shell refinements performed.
    pub repairs: usize,
    /// Number of `find` restarts (= repairs + 1 on success).
    pub analysis_runs: usize,
    /// Local completeness proof obligations checked across all runs.
    pub obligations_checked: usize,
    /// For each added point (in order): the rule that produced it and the
    /// basic command whose obligation it repaired.
    pub provenance: Vec<(RepairRule, Exp)>,
}

/// Why a `find` pass stopped short of the image.
pub(crate) enum Stop<S> {
    /// The first violated proof obligation `C^A_input(exp)`.
    Incomplete { input: S, exp: Exp },
    /// Evaluation failed, or a budget or the unroll cap ran out.
    Sem(SemError),
}

impl<S> From<SemError> for Stop<S> {
    fn from(e: SemError) -> Self {
        Stop::Sem(e)
    }
}

/// What a `find` pass reports of its walk, so that the walk can be kept
/// as an `LCL_A` derivation; `()` keeps nothing.
pub(crate) trait Recorder<'r, S> {
    /// `[pre] r [post]` holds, after the conclusions of its premises
    /// (post-order); a star's comes after its `unrolls` body steps.
    fn conclude(&mut self, r: &'r Reg, pre: &S, post: &S, unrolls: usize);
    /// Unroll `n` (from 0) of a star is about to start.
    fn unroll(&mut self, n: usize) -> Result<(), SemError>;
}

impl<S> Recorder<'_, S> for () {
    fn conclude(&mut self, _: &Reg, _: &S, _: &S, _: usize) {}
    fn unroll(&mut self, _: usize) -> Result<(), SemError> {
        Ok(())
    }
}

/// The forward repair strategy (Algorithm 1) over a [`StateAlgebra`] —
/// by default the enumerative one ([`EnumAlgebra`]).
///
/// # Example
///
/// ```
/// use air_core::{EnumDomain, ForwardRepair};
/// use air_domains::IntervalEnv;
/// use air_lang::{parse_program, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
/// let odd = u.filter(|s| s[0] % 2 != 0);
///
/// let outcome = ForwardRepair::new(&u).repair(dom, &prog, &odd)?;
/// // One guard repair (the paper's Example 7.2) suffices.
/// assert_eq!(outcome.repairs, 1);
/// assert!(!outcome.domain.close(&outcome.under).contains(u.store_index(&[0]).unwrap()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ForwardRepair<'u, A = EnumAlgebra<'u>> {
    universe: &'u Universe,
    alg: A,
    max_repairs: usize,
    trace: Tracer,
    governor: Governor,
}

impl<'u> ForwardRepair<'u> {
    /// Creates the strategy with a default budget of 10 000 refinements
    /// and a fresh shared cache (obligations re-checked across the
    /// restarts of Algorithm 1 hit the memoized images).
    pub fn new(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, SemCache::new()))
    }
}

impl<'u, A: StateAlgebra> ForwardRepair<'u, A> {
    /// Creates the strategy over `alg` with a default budget of 10 000
    /// refinements.
    pub fn from_algebra(universe: &'u Universe, alg: A) -> Self {
        ForwardRepair {
            universe,
            alg,
            max_repairs: 10_000,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Sets the refinement budget.
    pub fn max_repairs(mut self, max: usize) -> Self {
        self.max_repairs = max;
        self
    }

    /// Enforces `governor` at the repair-loop and star-unroll heads:
    /// fuel/deadline exhaustion (or cancellation from a sibling worker)
    /// surfaces as [`RepairError::Exhausted`] with the partial result.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Emits `incompleteness`/`shell_point` events (and the algebra's
    /// cache hit/miss/bypass telemetry) through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.alg.set_tracer(&tracer);
        self.trace = tracer;
        self
    }

    /// Algorithm 1: repairs `dom` until every local completeness proof
    /// obligation raised by `r` on input `p` holds. Returns the repaired
    /// domain and the exact under-approximation of `⟦r⟧p`. `p` is lifted
    /// into the algebra here and the under-approximation is lowered back
    /// to bitsets, so callers see one outcome type whichever algebra ran.
    ///
    /// # Errors
    ///
    /// [`RepairError::Sem`] on evaluation failures (universe escape,
    /// overflow) and [`RepairError::Exhausted`] if the refinement cap or
    /// the configured [`Governor`] budget runs out — the error then
    /// carries the points added so far and a sound partial invariant.
    pub fn repair(
        &self,
        dom: A::Domain,
        r: &Reg,
        p: &StateSet,
    ) -> Result<RepairOutcome<A::Domain>, RepairError> {
        self.repair_recorded::<()>(dom, r, p)
            .map(|(outcome, ())| outcome)
    }

    /// [`repair`](Self::repair), recording each `find` pass in a fresh
    /// `R`; returns the record of the last pass with the outcome.
    pub(crate) fn repair_recorded<'r, R: Recorder<'r, A::Set> + Default>(
        &self,
        mut dom: A::Domain,
        r: &'r Reg,
        p: &StateSet,
    ) -> Result<(RepairOutcome<A::Domain>, R), RepairError> {
        let _span = self.trace.span(|| "repair.forward".to_string());
        let find = self.alg.for_find();
        let lc = LocalCompleteness::from_algebra(self.universe, self.alg.clone());
        let p = self.alg.lift(p);
        let mut repairs = 0;
        let mut analysis_runs = 0;
        let mut checked = 0;
        let mut provenance = Vec::new();
        loop {
            analysis_runs += 1;
            if let Err(e) = self.governor.check_with(|| "repair.forward".to_string()) {
                return Err(self.exhausted(e.into(), &dom, r, &p));
            }
            let mut record = R::default();
            match self.find(&find, &lc, &dom, r, &p, &mut checked, &mut record) {
                Err(Stop::Sem(e)) => return Err(self.exhausted(e.into(), &dom, r, &p)),
                Ok(q) => {
                    self.trace.emit_detail_with(|| EventKind::Counter {
                        name: "forward.analysis_runs".to_string(),
                        delta: analysis_runs as u64,
                    });
                    self.trace.emit_detail_with(|| EventKind::Counter {
                        name: "forward.obligations_checked".to_string(),
                        delta: checked as u64,
                    });
                    let outcome = RepairOutcome {
                        domain: dom,
                        under: self.alg.lower(q),
                        repairs,
                        analysis_runs,
                        obligations_checked: checked,
                        provenance,
                    };
                    return Ok((outcome, record));
                }
                Err(Stop::Incomplete { input, exp }) => {
                    self.trace.emit_detail_with(|| EventKind::Incompleteness {
                        exp: exp.to_string(),
                        input_size: input.size(),
                    });
                    if repairs >= self.max_repairs {
                        let cap = Exhaustion {
                            phase: "repair.forward.max_repairs".to_string(),
                            spent: repairs as u64,
                            reason: ExhaustReason::Fuel,
                        };
                        return Err(self.exhausted(cap.into(), &dom, r, &p));
                    }
                    let (point, rule) = match lc.refine(&dom, &exp, &input) {
                        Ok(found) => found,
                        Err(e) => return Err(self.exhausted(e.into(), &dom, r, &p)),
                    };
                    self.trace.emit_detail_with(|| EventKind::ShellPoint {
                        rule: rule.to_string(),
                        exp: exp.to_string(),
                        point_size: point.size(),
                    });
                    provenance.push((rule, exp));
                    dom = dom.with_points([point]);
                    repairs += 1;
                }
            }
        }
    }

    /// Enriches a budget cutoff with the best partial result: the points
    /// added so far and the (always sound) abstract invariant in the
    /// partially repaired domain. Non-exhaustion errors pass through.
    fn exhausted(&self, err: RepairError, dom: &A::Domain, r: &Reg, p: &A::Set) -> RepairError {
        let RepairError::Exhausted(mut partial) = err else {
            return err;
        };
        if partial.points.is_empty() {
            partial.points = dom
                .points()
                .iter()
                .map(|q| self.alg.lower(q.clone()))
                .collect();
        }
        if partial.invariant.is_none() {
            // An ungoverned pass: the absint fixpoint is bounded by the
            // universe size, so this terminates even though the budget
            // is spent; soundness needs no completed repair.
            let sem = AbstractSemantics::from_algebra(self.universe, self.alg.clone());
            partial.invariant = sem
                .exec(dom, r, &dom.close(p))
                .ok()
                .map(|inv| self.alg.lower(inv));
        }
        partial.traced(&self.trace)
    }

    /// The structural `find_A` oracle: returns an under-approximation when
    /// every obligation along the (concrete) computation holds, or the
    /// first violated obligation. Its concrete images run in `find` (the
    /// run's algebra); obligations are checked through `lc`; each rule's
    /// conclusion goes to `record`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn find<'r, R: Recorder<'r, A::Set>>(
        &self,
        find: &A,
        lc: &LocalCompleteness<'u, A>,
        dom: &A::Domain,
        r: &'r Reg,
        p: &A::Set,
        checked: &mut usize,
        record: &mut R,
    ) -> Result<A::Set, Stop<A::Set>> {
        let mut walk = |r, p: &A::Set| self.find(find, lc, dom, r, p, checked, record);
        let post = match r {
            Reg::Basic(e) => {
                *checked += 1;
                if !lc.check_exp(dom, e, p)? {
                    let (input, exp) = (p.clone(), e.clone());
                    return Err(Stop::Incomplete { input, exp });
                }
                find.exec(None, r, p)?
            }
            Reg::Seq(r1, r2) => {
                let q = walk(r1, p)?;
                walk(r2, &q)?
            }
            Reg::Choice(r1, r2) => walk(r1, p)?.union(&walk(r2, p)?),
            Reg::Star(body) => {
                // Concrete unrolling: obligations are raised on every
                // intermediate input until the concrete fixpoint.
                let mut acc = p.clone();
                for n in 0..=self.universe.size() {
                    self.governor
                        .check_with(|| "repair.forward.find".to_string())
                        .map_err(SemError::from)?;
                    record.unroll(n)?;
                    let next = acc.union(&self.find(find, lc, dom, body, &acc, checked, record)?);
                    if next == acc {
                        record.conclude(r, p, &acc, n + 1);
                        return Ok(acc);
                    }
                    acc = next;
                }
                return Err(SemError::Divergence.into());
            }
        };
        record.conclude(r, p, &post, 0);
        Ok(post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::AbstractSemantics;
    use air_domains::IntervalEnv;
    use air_lang::{parse_program, Universe};

    fn setup() -> (Universe, EnumDomain) {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        (u, dom)
    }

    /// Example 7.2: forward repair of AbsVal on odd inputs adds Z≠0 (the
    /// guard shell) and the repaired analysis proves x ≠ 0.
    #[test]
    fn example_7_2_absval_forward_repair() {
        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let fr = ForwardRepair::new(&u);
        let out = fr.repair(dom, &prog, &odd).unwrap();
        assert_eq!(out.repairs, 1);
        // Provenance: the single repair came from the guard shell.
        assert_eq!(out.provenance.len(), 1);
        assert_eq!(out.provenance[0].0, RepairRule::GuardShell);
        assert!(matches!(out.provenance[0].1, Exp::Assume(_)));
        // The added point is the guard shell: hull(odd>0)∩(x≥0) ∪ hull(odd<0)∩(x<0)
        // = [1,7] ∪ [-7,-1] — the finite-universe rendering of Z≠0.
        let zneq0 = u.filter(|s| s[0] != 0 && s[0].abs() <= 7);
        assert_eq!(out.domain.points(), &[zneq0]);
        // Q = ⟦AbsVal⟧(odd) exactly; its closure excludes 0.
        let sem = air_lang::Concrete::new(&u);
        assert_eq!(out.under, sem.exec(&prog, &odd).unwrap());
        let closure = out.domain.close(&out.under);
        assert!(!closure.contains(u.store_index(&[0]).unwrap()));
        // Theorem 7.1 postconditions: C^{A_N'}_P(r) and A(Q) = A(⟦r⟧P).
        let lc = LocalCompleteness::new(&u);
        assert!(lc.check(&out.domain, &prog, &odd).unwrap());
    }

    #[test]
    fn already_complete_program_needs_no_repair() {
        let (u, dom) = setup();
        let prog = parse_program("x := x + 1").unwrap();
        let p = u.filter(|s| (-3..=3).contains(&s[0]));
        let out = ForwardRepair::new(&u).repair(dom, &prog, &p).unwrap();
        assert_eq!(out.repairs, 0);
        assert_eq!(out.analysis_runs, 1);
    }

    #[test]
    fn repaired_abstract_analysis_loses_no_precision() {
        // After repair, the abstract analysis in the refined domain equals
        // the closure of the concrete output (no false alarms).
        let (u, dom) = setup();
        let prog = parse_program("if (0 < x) then { x := x - 2 } else { x := x + 1 }").unwrap();
        let p = u.of_values([0, 3]);
        let out = ForwardRepair::new(&u).repair(dom, &prog, &p).unwrap();
        let asem = AbstractSemantics::new(&u);
        let abstract_out = asem
            .exec(&out.domain, &prog, &out.domain.close(&p))
            .unwrap();
        assert_eq!(abstract_out, out.domain.close(&out.under));
    }

    #[test]
    fn loop_repair_terminates() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        let p = u.filter(|s| s[0] == 0 && s[1] == 0);
        let out = ForwardRepair::new(&u).repair(dom, &prog, &p).unwrap();
        // The concrete result is i=6, j=15.
        assert_eq!(out.under, u.filter(|s| s[0] == 6 && s[1] == 15));
        let lc = LocalCompleteness::new(&u);
        assert!(lc.check(&out.domain, &prog, &p).unwrap());
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let (u, dom) = setup();
        let prog = parse_program("if (0 < x) then { x := x - 2 } else { x := x + 1 }").unwrap();
        let p = u.of_values([0, 3]);
        let err = ForwardRepair::new(&u)
            .max_repairs(0)
            .repair(dom, &prog, &p)
            .unwrap_err();
        let RepairError::Exhausted(partial) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(partial.exhaustion.reason, air_lattice::ExhaustReason::Fuel);
        assert_eq!(partial.exhaustion.phase, "repair.forward.max_repairs");
        // The partial invariant is a sound over-approximation even though
        // no repair completed.
        let conc = air_lang::Concrete::new(&u).exec(&prog, &p).unwrap();
        let inv = partial.invariant.expect("partial invariant computed");
        assert!(conc.is_subset(&inv));
    }

    #[test]
    fn governed_repair_exhausts_fuel_with_partial_result() {
        let (u, dom) = setup();
        let prog = parse_program("if (0 < x) then { x := x - 2 } else { x := x + 1 }").unwrap();
        let p = u.of_values([0, 3]);
        let g = air_lattice::Governor::new(air_lattice::Budget::fuel(1));
        let err = ForwardRepair::new(&u)
            .governor(g.clone())
            .repair(dom, &prog, &p)
            .unwrap_err();
        let Some(exhaustion) = err.exhaustion() else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(exhaustion.reason, air_lattice::ExhaustReason::Fuel);
        assert!(g.is_cancelled(), "exhaustion cancels the shared governor");
    }

    #[test]
    fn obligations_counted() {
        let (u, dom) = setup();
        let prog = parse_program("skip; x := x + 1").unwrap();
        let p = u.of_values([0]);
        let out = ForwardRepair::new(&u).repair(dom, &prog, &p).unwrap();
        assert_eq!(out.obligations_checked, 2);
    }
}
