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

use std::borrow::Cow;
use std::fmt::Write as _;

use air_lang::ast::Reg;
use air_lang::{Concrete, SemCache, StateSet, Store, Universe};
use air_lattice::Governor;
use air_trace::{EventKind, Tracer};

use crate::absint::AbstractSemantics;
use crate::algebra::{EnumAlgebra, PointedDomain, StateAlgebra};
use crate::backward::{BackwardOutcome, BackwardRepair};
use crate::domain::EnumDomain;
use crate::forward::{ForwardRepair, RepairError};
use crate::question::{Engine, On, OnAlgebra};
use crate::summarize::display_set;

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
        let points: Vec<String> = self
            .added_points()
            .iter()
            .map(|p| display_set(universe, p))
            .collect();
        self.report_of(universe, &points)
    }

    /// The [`report`](Self::report) text from the added points already
    /// rendered by [`display_set`], in order: a caller that also shows
    /// the points on their own renders each one once.
    pub fn report_of(&self, universe: &Universe, points: &[String]) -> String {
        let mut out = String::from(match self {
            Verdict::Proved { .. } => "PROVED",
            Verdict::Refuted { .. } => "REFUTED",
        });
        // Writing to a `String` cannot fail.
        if let Verdict::Refuted { witness, .. } = self {
            let _ = write!(out, " (witness: {})", universe.display_store(witness));
        }
        out.push('\n');
        for (k, p) in points.iter().enumerate() {
            let _ = writeln!(out, "  point {}: {p}", k + 1);
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
    alg: EnumAlgebra<'u>,
    engine: Engine,
    trace: Tracer,
    governor: Governor,
}

impl<'u> Verifier<'u> {
    /// Creates a verifier with a fresh semantic cache shared across all
    /// verification calls made through it.
    pub fn new(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, SemCache::new()))
    }

    /// Creates a verifier over `alg` running the enumerative engine.
    pub fn from_algebra(universe: &'u Universe, alg: EnumAlgebra<'u>) -> Self {
        Verifier {
            universe,
            alg,
            engine: Engine::Enumerative,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Kept for `perfbench/src/oneshot.rs`: [`from_algebra`](Self::from_algebra)
    /// memoizing into `cache`, on the symbolic [`Engine`] when `cache` is
    /// [`SemCache::symbolic`].
    pub fn with_cache(universe: &'u Universe, cache: SemCache) -> Self {
        let engine = if cache.is_symbolic() {
            Engine::Symbolic
        } else {
            Engine::Enumerative
        };
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, cache)).engine(engine)
    }

    /// Runs repairs on `engine`: the symbolic one repairs `Int` bases on
    /// decision diagrams ([`Engine::on_diagrams`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The shared semantic cache, if caching is enabled.
    pub fn cache(&self) -> Option<&SemCache> {
        self.alg.cache()
    }

    /// Routes this verifier's events — verdict assembly plus everything the
    /// repair engines and the semantic cache emit — through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.alg.set_tracer(&tracer);
        self.trace = tracer;
        self
    }

    /// Enforces `governor` in the repair engines this verifier runs.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    fn trace_verdict(&self, phase: &'static str, proved: bool) {
        self.trace.emit_detail_with(|| EventKind::Verdict {
            phase: phase.to_string(),
            verdict: if proved { "proved" } else { "refuted" }.to_string(),
        });
    }

    /// `q` in the algebra this verifier's engine picks for `domain`.
    fn run<Q: OnAlgebra>(&self, domain: Cow<'_, EnumDomain>, q: Q) -> Q::Out {
        self.engine.run(self.universe, &self.alg, domain, q)
    }

    /// Verifies `⟦r⟧input ≤ spec` by backward repair (Algorithm 2 +
    /// Corollary 7.7), run in the symbolic algebra when this verifier's
    /// engine is [`Engine::Symbolic`] and the base domain is `Int` —
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
        let (out, domain) = self.run(Cow::Owned(domain), Backward(self, r, input, spec))?;
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

    /// Verifies `⟦r⟧input ≤ spec` by forward repair (Algorithm 1), run in
    /// the algebra [`backward`](Self::backward) would pick. The exactness
    /// of the concrete `find` oracle decides the verdict; the repaired
    /// domain certifies it abstractly (Theorem 7.1).
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
        let (repaired, under) = self.run(Cow::Owned(domain), Forward(self, r, input))?;
        let post_closure = repaired.close(&under);
        let points: Vec<StateSet> = repaired.points().to_vec();
        if post_closure.is_subset(spec) {
            self.trace_verdict("verify.forward", true);
            Ok(Verdict::Proved {
                valid_input: repaired.close(input),
                domain: repaired,
                added_points: points,
            })
        } else if !under.is_subset(spec) {
            // Q ≤ ⟦r⟧input violates the spec (Q is exact here): the valid
            // inputs are those whose runs stay in the spec, and the least
            // other input store is the witness.
            let sem = Concrete::new(self.universe);
            let n = self.universe.size();
            let valid_input = StateSet::from_indices(
                n,
                input.iter().filter(|&i| {
                    sem.exec(r, &StateSet::from_indices(n, [i]))
                        .is_ok_and(|post| post.is_subset(spec))
                }),
            );
            let Some(witness_idx) = input.difference(&valid_input).min_index() else {
                return Err(RepairError::Internal(
                    "Q ⊄ Spec but no input store violates the spec".to_string(),
                ));
            };
            self.trace_verdict("verify.forward", false);
            Ok(Verdict::Refuted {
                domain: repaired,
                valid_input,
                added_points: points,
                witness: self.universe.store_at(witness_idx),
            })
        } else {
            // Q fits the spec but its closure does not: the repaired
            // domain is locally complete, so A(Q) = A(⟦r⟧input) and the
            // residual alarm means the spec is not expressible enough —
            // repair once more against the spec by intersecting.
            let tightened = repaired.with_point(spec.clone());
            if tightened.close(&under).is_subset(spec) {
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

    /// Counts alarms of a plain (unrepaired) abstract analysis, on this
    /// verifier's engine: the stores in `γ(⟦r⟧♯A(input)) ∖ spec`. With the
    /// concrete true alarms `⟦r⟧input ∖ spec`, this quantifies false
    /// alarms before/after repair (experiment T6).
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
        self.run(Cow::Borrowed(domain), Alarms(self, r, input, spec))
    }
}

/// Algorithm 2 on a [`Verifier`]'s question `r`, input, spec.
struct Backward<'a, 'u>(&'a Verifier<'u>, &'a Reg, &'a StateSet, &'a StateSet);

/// Algorithm 1 on a [`Verifier`]'s question `r`, input.
struct Forward<'a, 'u>(&'a Verifier<'u>, &'a Reg, &'a StateSet);

/// The alarms of an unrepaired analysis of `r` on input, spec.
struct Alarms<'a, 'u>(&'a Verifier<'u>, &'a Reg, &'a StateSet, &'a StateSet);

impl OnAlgebra for Backward<'_, '_> {
    type Out = Result<(BackwardOutcome, EnumDomain), RepairError>;
    fn run<A: StateAlgebra>(self, on: On<'_, A>) -> Self::Out {
        let Backward(v, r, input, spec) = self;
        let out = BackwardRepair::from_algebra(v.universe, on.alg)
            .tracer(v.trace.clone())
            .governor(v.governor.clone())
            .repair(&on.dom, input, r, spec)?;
        Ok((out, (on.lower)(on.dom.into_owned())))
    }
}

impl OnAlgebra for Forward<'_, '_> {
    type Out = Result<(EnumDomain, StateSet), RepairError>;
    fn run<A: StateAlgebra>(self, on: On<'_, A>) -> Self::Out {
        let Forward(v, r, input) = self;
        let out = ForwardRepair::from_algebra(v.universe, on.alg)
            .tracer(v.trace.clone())
            .governor(v.governor.clone())
            .repair(on.dom.into_owned(), r, input)?;
        Ok(((on.lower)(out.domain), out.under))
    }
}

impl OnAlgebra for Alarms<'_, '_> {
    type Out = Result<AlarmCounts, RepairError>;
    fn run<A: StateAlgebra>(self, on: On<'_, A>) -> Self::Out {
        let (Alarms(v, r, input, spec), alg) = (self, on.alg);
        let input = alg.lift(input);
        let asem = AbstractSemantics::from_algebra(v.universe, alg.clone())
            .tracer(v.trace.clone())
            .governor(v.governor.clone());
        let abstract_out = alg.lower(asem.exec(&on.dom, r, &on.dom.close(&input))?);
        let total = abstract_out.difference(spec).len();
        let true_alarms = alg.lower(alg.exec(None, r, &input)?).difference(spec).len();
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
            // 17 stores ≤ SMALL_UNIVERSE: the repair runs off the
            // tables and says so, once.
            "cache_bypass",
        ] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
    }

    /// `perfbench`'s spelling of the symbolic engine, a
    /// [`SemCache::symbolic`] cache, must still run `Int` repairs on
    /// diagrams: their cache's exec and wlp tables stay unread.
    #[test]
    fn a_symbolic_cache_selects_the_symbolic_engine() {
        let u = Universe::new(&[("x", -40, 40)]).unwrap();
        assert!(u.size() > crate::algebra::SMALL_UNIVERSE, "tables in use");
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let spec = u.filter(|s| s[0] != 0);
        let run = |cache: SemCache| {
            let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
            let verifier = Verifier::with_cache(&u, cache);
            let v = verifier.backward(dom, &prog, &odd, &spec).unwrap();
            let cache = verifier.cache().unwrap();
            let lookups = cache.exec_stats().lookups() + cache.wlp_stats().lookups();
            (v.report(&u), lookups)
        };
        let (symbolic, symbolic_lookups) = run(SemCache::symbolic());
        let (enumerative, enumerative_lookups) = run(SemCache::new());
        assert_eq!(
            symbolic_lookups, 0,
            "the symbolic run used the bitset tables"
        );
        assert!(
            enumerative_lookups > 0,
            "the enumerative run skipped its tables"
        );
        assert_eq!(symbolic, enumerative);
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
