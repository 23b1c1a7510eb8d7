//! The user-facing verifier (Corollary 7.7).
//!
//! Given a program `r`, an input property `P` and a specification `Spec`,
//! the verifier repairs the chosen abstract domain and returns a
//! [`Verdict`]:
//!
//! - **Proved** — `⟦r⟧P ≤ Spec`, with the repaired domain as a certificate
//!   (the abstract analysis in it has no false alarm);
//! - **Refuted** — a *true alarm*: a concrete input store violating the
//!   spec is produced as a witness.
//!
//! Both repair strategies are exposed; backward repair additionally
//! characterizes the *greatest valid input* `V`, deciding
//! `⟦r⟧P' ≤ Spec ⇔ P' ≤ V` for every `P' ≤ A(P)` at once.

use air_lang::ast::Reg;
use air_lang::{Concrete, EngineBackend, SemCache, StateSet, Store, Universe};
use air_lattice::Governor;
use air_trace::{EventKind, Tracer};

use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra};
use crate::backward::{BackwardOutcome, BackwardRepair};
use crate::domain::EnumDomain;
use crate::forward::{ForwardRepair, RepairError};
use crate::summarize::display_set;
use crate::symbolic::{SymAlgebra, SymDomain};

/// The verification result.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The specification holds on every store of the input.
    Proved {
        /// The repaired domain (a certificate: its analysis of the program
        /// on the input has no false alarm).
        domain: EnumDomain,
        /// The greatest valid input `V` (backward) or the input closure
        /// (forward).
        valid_input: StateSet,
        /// Points added during repair.
        added_points: Vec<StateSet>,
    },
    /// The specification fails on some input store — a true alarm.
    Refuted {
        /// The repaired domain.
        domain: EnumDomain,
        /// The greatest valid input: exactly the sub-inputs that satisfy
        /// the spec.
        valid_input: StateSet,
        /// Points added during repair.
        added_points: Vec<StateSet>,
        /// A concrete input store whose execution violates the spec.
        witness: Store,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved { .. })
    }

    /// The greatest valid input.
    pub fn valid_input(&self) -> &StateSet {
        match self {
            Verdict::Proved { valid_input, .. } | Verdict::Refuted { valid_input, .. } => {
                valid_input
            }
        }
    }

    /// The repaired domain.
    pub fn domain(&self) -> &EnumDomain {
        match self {
            Verdict::Proved { domain, .. } | Verdict::Refuted { domain, .. } => domain,
        }
    }

    /// The points added during repair.
    pub fn added_points(&self) -> &[StateSet] {
        match self {
            Verdict::Proved { added_points, .. } | Verdict::Refuted { added_points, .. } => {
                added_points
            }
        }
    }

    /// A human-readable report of the added points.
    pub fn report(&self, universe: &Universe) -> String {
        let mut out = String::new();
        out.push_str(match self {
            Verdict::Proved { .. } => "PROVED",
            Verdict::Refuted { .. } => "REFUTED",
        });
        if let Verdict::Refuted { witness, .. } = self {
            out.push_str(&format!(" (witness: {})", universe.display_store(witness)));
        }
        out.push('\n');
        for (k, p) in self.added_points().iter().enumerate() {
            out.push_str(&format!(
                "  point {}: {}\n",
                k + 1,
                display_set(universe, p)
            ));
        }
        out
    }
}

/// A verifier over a fixed universe.
///
/// # Example
///
/// ```
/// use air_core::{EnumDomain, Verifier};
/// use air_domains::IntervalEnv;
/// use air_lang::{parse_program, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
/// let odd = u.filter(|s| s[0] % 2 != 0);
/// let spec = u.filter(|s| s[0] != 0);
/// let verdict = Verifier::new(&u).backward(dom, &prog, &odd, &spec)?;
/// assert!(verdict.is_proved());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Verifier<'u> {
    universe: &'u Universe,
    cache: Option<SemCache>,
    trace: Tracer,
    governor: Governor,
}

impl<'u> Verifier<'u> {
    /// Creates a verifier with a fresh semantic cache shared across all
    /// verification calls made through it.
    pub fn new(universe: &'u Universe) -> Self {
        Self::with_cache(universe, SemCache::new())
    }

    /// Creates a verifier memoizing into `cache` (shareable across
    /// verifiers and threads).
    pub fn with_cache(universe: &'u Universe, cache: SemCache) -> Self {
        Verifier {
            universe,
            cache: Some(cache),
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Creates a verifier without memoization (the reference path).
    pub fn uncached(universe: &'u Universe) -> Self {
        Verifier {
            universe,
            cache: None,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// The shared semantic cache, if caching is enabled.
    pub fn cache(&self) -> Option<&SemCache> {
        self.cache.as_ref()
    }

    /// Routes this verifier's events — verdict assembly plus everything the
    /// repair engines and the semantic cache emit — through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        if let Some(cache) = &self.cache {
            cache.set_tracer(&tracer);
        }
        self.trace = tracer;
        self
    }

    /// Enforces `governor` in the repair engines this verifier runs.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    fn backward_engine<A: StateAlgebra>(&self, alg: A) -> BackwardRepair<'u, A> {
        BackwardRepair::from_algebra(self.universe, alg)
            .tracer(self.trace.clone())
            .governor(self.governor.clone())
    }

    fn forward_engine(&self) -> ForwardRepair<'u> {
        match &self.cache {
            Some(cache) => ForwardRepair::with_cache(self.universe, cache.clone()),
            None => ForwardRepair::uncached(self.universe),
        }
        .tracer(self.trace.clone())
        .governor(self.governor.clone())
    }

    fn trace_verdict(&self, phase: &'static str, proved: bool) {
        self.trace.emit_detail_with(|| EventKind::Verdict {
            phase: phase.to_string(),
            verdict: if proved { "proved" } else { "refuted" }.to_string(),
        });
    }

    /// Runs Algorithm 2 in the algebra this verifier selects: the
    /// symbolic one ([`SymAlgebra`]) when the cache runs the symbolic
    /// backend and the base domain is `Int`, the one base whose closure
    /// has a cheap diagram form ([`SymDomain`]); the enumerative one
    /// otherwise (its semantic queries still reach a symbolic backend).
    fn backward_outcome(
        &self,
        domain: &EnumDomain,
        r: &Reg,
        input: &StateSet,
        spec: &StateSet,
    ) -> Result<BackwardOutcome, RepairError> {
        let alg = match &self.cache {
            Some(c) if c.backend() == EngineBackend::Symbolic && domain.base_name() == "Int" => {
                let alg = SymAlgebra::new(self.universe);
                let base = SymDomain::interval(self.universe)
                    .with_points(domain.points().iter().map(|p| alg.lift(p)));
                return self.backward_engine(alg).repair(&base, input, r, spec);
            }
            Some(cache) => EnumAlgebra::with_cache(self.universe, cache.clone()),
            None => EnumAlgebra::uncached(self.universe),
        };
        self.backward_engine(alg).repair(domain, input, r, spec)
    }

    /// Verifies `⟦r⟧input ≤ spec` by backward repair (Algorithm 2 +
    /// Corollary 7.7), run in the symbolic algebra when this verifier's
    /// cache selects the symbolic backend and the base domain is `Int` —
    /// same verdict either way, the symbolic algebra just scales to
    /// universes the bitset algebra cannot enumerate.
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`].
    pub fn backward(
        &self,
        domain: EnumDomain,
        r: &Reg,
        input: &StateSet,
        spec: &StateSet,
    ) -> Result<Verdict, RepairError> {
        let _span = self.trace.span(|| "verify.backward".to_string());
        let out = self.backward_outcome(&domain, r, input, spec)?;
        let repaired = out.domain(&domain);
        if input.is_subset(&out.valid_input) {
            self.trace_verdict("verify.backward", true);
            Ok(Verdict::Proved {
                domain: repaired,
                valid_input: out.valid_input,
                added_points: out.points,
            })
        } else {
            let Some(witness_idx) = input.difference(&out.valid_input).min_index() else {
                return Err(RepairError::Internal(
                    "input ⊄ V but input ∖ V is empty".to_string(),
                ));
            };
            self.trace_verdict("verify.backward", false);
            Ok(Verdict::Refuted {
                domain: repaired,
                valid_input: out.valid_input,
                added_points: out.points,
                witness: self.universe.store_at(witness_idx),
            })
        }
    }

    /// Verifies `⟦r⟧input ≤ spec` by forward repair (Algorithm 1). The
    /// exactness of the concrete `find` oracle decides the verdict; the
    /// repaired domain certifies it abstractly (Theorem 7.1).
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`].
    pub fn forward(
        &self,
        domain: EnumDomain,
        r: &Reg,
        input: &StateSet,
        spec: &StateSet,
    ) -> Result<Verdict, RepairError> {
        let _span = self.trace.span(|| "verify.forward".to_string());
        let out = self.forward_engine().repair(domain, r, input)?;
        let post_closure = out.domain.close(&out.under);
        let points: Vec<StateSet> = out.domain.points().to_vec();
        if post_closure.is_subset(spec) {
            self.trace_verdict("verify.forward", true);
            Ok(Verdict::Proved {
                valid_input: out.domain.close(input),
                domain: out.domain,
                added_points: points,
            })
        } else if !out.under.is_subset(spec) {
            // Q ≤ ⟦r⟧input violates the spec: find an input store that
            // produces a bad output (exists because Q is exact here).
            let sem = Concrete::new(self.universe);
            let Some(witness_idx) = input.iter().find(|&i| {
                let single = StateSet::from_indices(self.universe.size(), [i]);
                sem.exec(r, &single)
                    .map(|post| !post.is_subset(spec))
                    .unwrap_or(true)
            }) else {
                return Err(RepairError::Internal(
                    "Q ⊄ Spec but no input store violates the spec".to_string(),
                ));
            };
            // The valid inputs among `input` are those whose runs stay in
            // the spec.
            let valid_input = self.universe.filter(|s| {
                let Some(i) = self.universe.store_index(s) else {
                    return false;
                };
                if !input.contains(i) {
                    return false;
                }
                let single = StateSet::from_indices(self.universe.size(), [i]);
                sem.exec(r, &single)
                    .map(|post| post.is_subset(spec))
                    .unwrap_or(false)
            });
            self.trace_verdict("verify.forward", false);
            Ok(Verdict::Refuted {
                domain: out.domain,
                valid_input,
                added_points: points,
                witness: self.universe.store_at(witness_idx),
            })
        } else {
            // Q fits the spec but its closure does not: the repaired
            // domain is locally complete, so A(Q) = A(⟦r⟧input) and the
            // residual alarm means the spec is not expressible enough —
            // repair once more against the spec by intersecting.
            let tightened = out.domain.with_point(spec.clone());
            if tightened.close(&out.under).is_subset(spec) {
                self.trace_verdict("verify.forward", true);
                Ok(Verdict::Proved {
                    valid_input: tightened.close(input),
                    added_points: tightened.points().to_vec(),
                    domain: tightened,
                })
            } else {
                Err(RepairError::Internal(
                    "closing under the spec point must fit the spec".to_string(),
                ))
            }
        }
    }

    /// Counts alarms of a plain (unrepaired) abstract analysis: the stores
    /// in `γ(⟦r⟧♯A(input)) ∖ spec`. Paired with the concrete true alarms
    /// `⟦r⟧input ∖ spec`, this quantifies false alarms before/after repair
    /// (experiment T6).
    ///
    /// # Errors
    ///
    /// Propagates semantic errors.
    pub fn alarm_counts(
        &self,
        domain: &EnumDomain,
        r: &Reg,
        input: &StateSet,
        spec: &StateSet,
    ) -> Result<AlarmCounts, RepairError> {
        let asem = match &self.cache {
            Some(cache) => {
                crate::absint::AbstractSemantics::with_cache(self.universe, cache.clone())
            }
            None => crate::absint::AbstractSemantics::uncached(self.universe),
        }
        .tracer(self.trace.clone())
        .governor(self.governor.clone());
        let abstract_out = asem.exec(domain, r, &domain.close(input))?;
        let sem = Concrete::new(self.universe);
        let concrete_out = match &self.cache {
            Some(cache) => cache.exec(&sem, r, input)?,
            None => sem.exec(r, input)?,
        };
        let total = abstract_out.difference(spec).len();
        let true_alarms = concrete_out.difference(spec).len();
        Ok(AlarmCounts {
            total,
            true_alarms,
            false_alarms: total - true_alarms.min(total),
        })
    }
}

/// Alarm statistics of one abstract analysis run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlarmCounts {
    /// Stores flagged by the abstract analysis (outside the spec).
    pub total: usize,
    /// Concretely reachable stores outside the spec.
    pub true_alarms: usize,
    /// Spurious flags (`total − true_alarms`).
    pub false_alarms: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_domains::IntervalEnv;
    use air_lang::parse_program;

    fn setup() -> (Universe, EnumDomain) {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        (u, dom)
    }

    #[test]
    fn backward_proves_absval() {
        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let v = Verifier::new(&u).backward(dom, &prog, &odd, &spec).unwrap();
        assert!(v.is_proved());
        assert!(!v.added_points().is_empty());
        let report = v.report(&u);
        assert!(report.starts_with("PROVED"), "{report}");
    }

    #[test]
    fn forward_proves_absval() {
        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let v = Verifier::new(&u).forward(dom, &prog, &odd, &spec).unwrap();
        assert!(v.is_proved());
    }

    #[test]
    fn both_strategies_refute_with_witness() {
        let (u, dom) = setup();
        let prog = parse_program("x := x + 1").unwrap();
        let input = u.filter(|s| (0..=5).contains(&s[0]));
        let spec = u.filter(|s| s[0] <= 3);
        for verdict in [
            Verifier::new(&u)
                .backward(dom.clone(), &prog, &input, &spec)
                .unwrap(),
            Verifier::new(&u)
                .forward(dom, &prog, &input, &spec)
                .unwrap(),
        ] {
            let Verdict::Refuted {
                witness,
                valid_input,
                ..
            } = verdict
            else {
                panic!("expected refutation");
            };
            // The witness concretely violates the spec.
            assert!(witness[0] + 1 > 3);
            assert_eq!(
                valid_input.intersection(&input),
                u.filter(|s| (0..=2).contains(&s[0]))
            );
        }
    }

    #[test]
    fn alarm_counts_before_and_after_repair() {
        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let verifier = Verifier::new(&u);
        let before = verifier.alarm_counts(&dom, &prog, &odd, &spec).unwrap();
        assert_eq!(before.true_alarms, 0);
        assert!(before.false_alarms > 0);
        let verdict = verifier.backward(dom, &prog, &odd, &spec).unwrap();
        let after = verifier
            .alarm_counts(verdict.domain(), &prog, &odd, &spec)
            .unwrap();
        assert_eq!(after.false_alarms, 0, "repair must remove all false alarms");
    }

    #[test]
    fn alarm_counts_distinguish_true_alarms() {
        // A program with a genuine violation: true alarms survive repair
        // accounting (they are not "false").
        let (u, dom) = setup();
        let prog = parse_program("x := x + 1").unwrap();
        let input = u.filter(|s| (0..=5).contains(&s[0]));
        let spec = u.filter(|s| s[0] <= 4); // x = 5 violates it
        let counts = Verifier::new(&u)
            .alarm_counts(&dom, &prog, &input, &spec)
            .unwrap();
        assert_eq!(counts.true_alarms, 2); // x = 5, 6 reachable, both > 4
        assert_eq!(counts.total, 2);
        assert_eq!(counts.false_alarms, 0); // interval analysis is exact here
    }

    #[test]
    fn forward_verdict_when_spec_needs_tightening() {
        // Q fits the spec but its closure does not: the verifier tightens
        // the domain with the spec point and still proves.
        let (u, dom) = setup();
        let prog = parse_program("either { x := 1 } or { x := 3 }").unwrap();
        let input = u.of_values([0]);
        let spec = u.of_values([1, 3]); // not an interval
        let v = Verifier::new(&u)
            .forward(dom, &prog, &input, &spec)
            .unwrap();
        assert!(v.is_proved());
        assert!(v.domain().is_expressible(&spec));
    }

    #[test]
    fn traced_backward_run_emits_pipeline_events() {
        use air_trace::{MemorySink, Tracer};
        use std::sync::Arc;

        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let v = Verifier::new(&u)
            .tracer(tracer)
            .backward(dom, &prog, &odd, &spec)
            .unwrap();
        assert!(v.is_proved());
        let kinds: Vec<&'static str> = sink.drain().iter().map(|e| e.kind.kind_name()).collect();
        for expected in [
            "span_enter",
            "span_exit",
            "incompleteness",
            "shell_point",
            "verdict",
            // 17 stores < DEFAULT_BYPASS_THRESHOLD: the SemCache steps
            // aside and says so.
            "cache_bypass",
        ] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
    }

    #[test]
    fn report_renders_points() {
        let (u, dom) = setup();
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let v = Verifier::new(&u).backward(dom, &prog, &odd, &spec).unwrap();
        let report = v.report(&u);
        assert!(report.contains("point 1:"), "{report}");
    }
}
