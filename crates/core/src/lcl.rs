//! The local completeness logic `LCL_A` and its AIR integration.
//!
//! The paper builds on the proof system of Bruni et al., *A Logic for
//! Locally Complete Abstract Interpretations* (LICS 2021, \[8\]): triples
//! `⊢_A [P] r [Q]` whose derivability guarantees
//!
//! ```text
//! Q ≤ ⟦r⟧P ≤ A(Q)          (under-approximation + locally complete
//!                            over-approximation, §1 of the PLDI paper)
//! ```
//!
//! so that any alarm in `Q` is a true alarm, and a spec `Spec ∈ A` holds
//! iff `Q ≤ Spec`. Derivations can only proceed through *local
//! completeness proof obligations* on basic commands; when an obligation
//! fails, \[8\] stops — and Section 9 of the PLDI paper proposes exactly
//! what [`Lcl::derive_with_repair`] implements: *"whenever a local
//! completeness proof obligation emerges, we can repair the abstract
//! interpreter to settle such an obligation."*
//!
//! There is one walk; the derivation is the last `find` pass: forward
//! repair's `find` oracle checks the obligations and computes the
//! concrete images, and its record of the pass whose obligations all
//! hold is the derivation.
//!
//! The rule set (side conditions checked by [`Lcl::check`]):
//!
//! ```text
//! (transfer)  C^A_P(⟦e⟧)                       ⊢ [P] e [⟦e⟧P]
//! (seq)       ⊢ [P] r₁ [R]   ⊢ [R] r₂ [Q]      ⊢ [P] r₁;r₂ [Q]
//! (join)      ⊢ [P] r₁ [Q₁]  ⊢ [P] r₂ [Q₂]     ⊢ [P] r₁⊕r₂ [Q₁∨Q₂]
//! (rec)       ⊢ [P] r [R]   ⊢ [P∨R] r* [Q]     ⊢ [P] r* [Q]
//! (iterate)   ⊢ [P] r [R]   R ≤ P              ⊢ [P] r* [P]
//! (relax)     ⊢ [P] r [Q]   P ≤ P' ≤ A(P)      ⊢ [P'] r [Q']
//!             Q' ≤ Q, A(Q') = A(Q)
//! ```
//!
//! Soundness of every accepted derivation — the invariant `Q ≤ ⟦r⟧P ≤
//! A(Q)` together with local completeness `C^A_P(⟦r⟧)` — is verified
//! exhaustively in this module's tests and by the workspace property
//! tests.

use std::fmt;

use air_lang::ast::{Exp, Reg};
use air_lang::{SemCache, SemError, StateSet, Universe};
use air_lattice::{ExhaustReason, Exhaustion, Governor};
use air_trace::{DotBuilder, EventKind, NodeId, Tracer};

use crate::algebra::{EnumAlgebra, StateAlgebra};
use crate::domain::EnumDomain;
use crate::forward::{ForwardRepair, Recorder, RepairError, Stop};
use crate::local::LocalCompleteness;

/// The most unrolls one star of a derivation records. There is one
/// walk; the derivation is the last `find` pass, whose record keeps
/// every unroll's step until the pass ends, so this bounds the record's
/// memory, not the stack; a star that unrolls further stops the walk as
/// a fuel exhaustion at `lcl.derive_star`.
pub const MAX_UNROLLS: usize = 2048;

/// A judgement `⊢_A [pre] reg [post]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Triple {
    /// The precondition `P` (a concrete property).
    pub pre: StateSet,
    /// The program.
    pub reg: Reg,
    /// The postcondition `Q` — an under-approximation of `⟦reg⟧P` whose
    /// abstraction is exact.
    pub post: StateSet,
}

/// A derivation tree for `LCL_A`.
#[derive(Clone, Debug)]
pub enum Derivation {
    /// `(transfer)`: a basic command under its local completeness proof
    /// obligation.
    Transfer {
        /// The derived triple; `post = ⟦e⟧pre`.
        triple: Triple,
    },
    /// `(seq)`.
    Seq {
        /// Derivation of the first command.
        left: Box<Derivation>,
        /// Derivation of the second command from the intermediate `R`.
        right: Box<Derivation>,
        /// The derived triple.
        triple: Triple,
    },
    /// `(join)`.
    Join {
        /// Left branch.
        left: Box<Derivation>,
        /// Right branch.
        right: Box<Derivation>,
        /// The derived triple (`post = Q₁ ∨ Q₂`).
        triple: Triple,
    },
    /// A star, unrolled until its body stays inside the grown
    /// precondition: one `(rec)` `[Pᵢ] r* [Q]` per unroll, where step `i`
    /// derives the body from `Pᵢ` (`P₀ = P`, `Pᵢ₊₁ = Pᵢ ∨ Rᵢ`), then one
    /// `(iterate)` `[Pₖ] r* [Pₖ]` whose step stays below `Pₖ = Q`.
    Star {
        /// The body derivation of each `(rec)` unroll, in order.
        rec: Vec<Derivation>,
        /// The body derivation of the closing `(iterate)`.
        iterate: Box<Derivation>,
        /// The derived triple `[P] r* [Q]`.
        triple: Triple,
    },
    /// `(relax)`: widen the precondition within `A(P)` and/or shrink the
    /// postcondition without changing its abstraction.
    Relax {
        /// The premise derivation.
        inner: Box<Derivation>,
        /// The derived triple.
        triple: Triple,
    },
}

impl Derivation {
    /// The conclusion of the derivation.
    pub fn triple(&self) -> &Triple {
        match self {
            Derivation::Transfer { triple }
            | Derivation::Seq { triple, .. }
            | Derivation::Join { triple, .. }
            | Derivation::Star { triple, .. }
            | Derivation::Relax { triple, .. } => triple,
        }
    }

    /// The rule name at the root.
    pub fn rule(&self) -> &'static str {
        self.conclusions()[0].0
    }

    /// The rule applications this node stands for, each with its rule,
    /// pre and premises (`reg` and `post` are the node's own): one, or
    /// for a star one per unroll, `(rec)` `[Pᵢ] r* [Q]` with `Pᵢ` its
    /// step's pre (`P₀ = P`), then `(iterate)`.
    fn conclusions(&self) -> Vec<(&'static str, &StateSet, Vec<&Derivation>)> {
        let pre = &self.triple().pre;
        match self {
            Derivation::Transfer { .. } => vec![("transfer", pre, vec![])],
            Derivation::Seq { left, right, .. } => vec![("seq", pre, vec![left, right])],
            Derivation::Join { left, right, .. } => vec![("join", pre, vec![left, right])],
            Derivation::Relax { inner, .. } => vec![("relax", pre, vec![inner])],
            Derivation::Star { rec, iterate, .. } => {
                let mut unrolls: Vec<_> = rec
                    .iter()
                    .map(|s| ("rec", &s.triple().pre, vec![s]))
                    .collect();
                unrolls.push(("iterate", &iterate.triple().pre, vec![&**iterate]));
                unrolls[0].1 = pre;
                unrolls
            }
        }
    }

    /// Number of rule applications in the tree.
    pub fn size(&self) -> usize {
        let conclusions = self.conclusions();
        let premises = conclusions.iter().flat_map(|c| &c.2);
        conclusions.len() + premises.map(|p| p.size()).sum::<usize>()
    }

    /// Renders the derivation as an indented proof tree; a star's
    /// `(rec)`…`(iterate)` lines share the star's indentation.
    pub fn render(&self, universe: &Universe) -> String {
        fn go(d: &Derivation, universe: &Universe, depth: usize, out: &mut String) {
            let t = d.triple();
            for (rule, pre, premises) in d.conclusions() {
                out.push_str(&format!(
                    "{}[{}] {} [{}]   ({rule})\n",
                    "  ".repeat(depth),
                    crate::summarize::display_set(universe, pre),
                    t.reg,
                    crate::summarize::display_set(universe, &t.post),
                ));
                for premise in premises {
                    go(premise, universe, depth + 1, out);
                }
            }
        }
        let mut out = String::new();
        go(self, universe, 0, &mut out);
        out
    }

    /// Renders the derivation tree as a Graphviz DOT digraph: one node
    /// per rule application labelled with the rule name and its triple,
    /// edges from each conclusion to its premises. The companion of
    /// [`render`](Self::render) for the CLI's `--trace-format dot`.
    pub fn to_dot(&self, universe: &Universe) -> String {
        fn go(d: &Derivation, universe: &Universe, dot: &mut DotBuilder) -> NodeId {
            let t = d.triple();
            let mut chain = Vec::new();
            for (rule, pre, premises) in d.conclusions() {
                let node = dot.node(&format!(
                    "({rule})\n[{}]\n{}\n[{}]",
                    crate::summarize::display_set(universe, pre),
                    t.reg,
                    crate::summarize::display_set(universe, &t.post),
                ));
                for premise in premises {
                    let child = go(premise, universe, dot);
                    dot.edge(node, child);
                }
                chain.push(node);
            }
            // Each `(rec)` also concludes from the next unroll, edged
            // innermost first as a nested tree would be.
            for pair in chain.windows(2).rev() {
                dot.edge(pair[0], pair[1]);
            }
            chain[0]
        }
        let mut dot = DotBuilder::new("lcl_derivation");
        go(self, universe, &mut dot);
        dot.finish()
    }
}

/// Why a derivation check or construction failed.
#[derive(Clone, Debug, PartialEq)]
pub enum LclError {
    /// A local completeness proof obligation `C^A_P(e)` is violated — the
    /// domain needs repair (Section 9).
    Obligation {
        /// The input on which completeness fails.
        input: StateSet,
        /// The offending basic command.
        exp: Exp,
    },
    /// A rule side condition is violated.
    SideCondition {
        /// The rule at fault.
        rule: &'static str,
        /// Human-readable description.
        reason: String,
    },
    /// Concrete evaluation failed, or the unroll cap or the budget ran
    /// out.
    Sem(SemError),
}

/// `Ok` when a rule's side condition holds, else the violation.
fn side(holds: bool, rule: &'static str, reason: &str) -> Result<(), LclError> {
    if holds {
        Ok(())
    } else {
        Err(LclError::SideCondition {
            rule,
            reason: reason.into(),
        })
    }
}

impl fmt::Display for LclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LclError::Obligation { exp, .. } => {
                write!(f, "local completeness proof obligation failed on `{exp}`")
            }
            LclError::SideCondition { rule, reason } => {
                write!(f, "side condition of ({rule}) violated: {reason}")
            }
            LclError::Sem(e) => write!(f, "semantic evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for LclError {}

impl From<SemError> for LclError {
    fn from(e: SemError) -> Self {
        LclError::Sem(e)
    }
}

/// The `LCL_A` proof system over a fixed universe.
///
/// # Example
///
/// ```
/// use air_core::lcl::Lcl;
/// use air_core::EnumDomain;
/// use air_domains::IntervalEnv;
/// use air_lang::{parse_program, Universe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let lcl = Lcl::new(&u);
/// let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
/// let odd = u.filter(|s| s[0] % 2 != 0);
///
/// // Int cannot derive a triple for AbsVal on odd inputs (the guard
/// // obligation fails) — but repair settles the obligation (Section 9).
/// assert!(lcl.derive(&dom, &odd, &prog).is_err());
/// let (derivation, repaired) = lcl.derive_with_repair(dom, &odd, &prog)?;
/// assert!(lcl.check(&repaired, &derivation).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Lcl<'u> {
    universe: &'u Universe,
    lc: LocalCompleteness<'u>,
    trace: Tracer,
    governor: Governor,
}

impl<'u> Lcl<'u> {
    /// Creates the proof system for a universe with a fresh shared cache
    /// (derivation attempts repeated across repairs hit memoized images).
    pub fn new(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::with_cache(universe, SemCache::new()))
    }

    /// Creates the proof system over `alg`.
    pub fn from_algebra(universe: &'u Universe, alg: EnumAlgebra<'u>) -> Self {
        Lcl {
            universe,
            lc: LocalCompleteness::from_algebra(universe, alg),
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// The shared semantic cache, if caching is enabled.
    pub fn cache(&self) -> Option<&SemCache> {
        self.lc.cache()
    }

    /// Emits `lcl_rule`/`verdict` events, forward repair's
    /// `incompleteness`/`shell_point` events and the cache's
    /// hit/miss/bypass telemetry through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.lc.algebra().set_tracer(&tracer);
        self.trace = tracer;
        self
    }

    /// Enforces `governor` at [`ForwardRepair`]'s loop and unroll heads:
    /// exhaustion surfaces as [`RepairError::Exhausted`] with the points
    /// added so far and the sound partial invariant.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    fn trace_rule(&self, rule: &'static str) {
        self.trace.emit_detail_with(|| EventKind::LclRule {
            rule: rule.to_string(),
        });
    }

    /// Checks a derivation against the domain `A`: every rule's side
    /// conditions, including the local completeness obligations at the
    /// leaves.
    ///
    /// # Errors
    ///
    /// The first violated obligation or side condition.
    pub fn check(&self, dom: &EnumDomain, d: &Derivation) -> Result<(), LclError> {
        match d {
            Derivation::Transfer { triple } => {
                let Reg::Basic(e) = &triple.reg else {
                    return side(false, "transfer", "program is not a basic command");
                };
                if !self.lc.check_exp(dom, e, &triple.pre)? {
                    return Err(LclError::Obligation {
                        input: triple.pre.clone(),
                        exp: e.clone(),
                    });
                }
                let post = self.lc.algebra().exec(None, &triple.reg, &triple.pre)?;
                side(post == triple.post, "transfer", "postcondition is not ⟦e⟧P")
            }
            Derivation::Seq {
                left,
                right,
                triple,
            } => {
                self.check(dom, left)?;
                self.check(dom, right)?;
                let (lt, rt) = (left.triple(), right.triple());
                let Reg::Seq(r1, r2) = &triple.reg else {
                    return side(false, "seq", "program is not a sequence");
                };
                side(
                    lt.reg == **r1 && rt.reg == **r2,
                    "seq",
                    "premise programs do not match",
                )?;
                side(
                    lt.pre == triple.pre && rt.pre == lt.post && rt.post == triple.post,
                    "seq",
                    "pre/intermediate/post conditions do not chain",
                )
            }
            Derivation::Join {
                left,
                right,
                triple,
            } => {
                self.check(dom, left)?;
                self.check(dom, right)?;
                let (lt, rt) = (left.triple(), right.triple());
                let Reg::Choice(r1, r2) = &triple.reg else {
                    return side(false, "join", "program is not a choice");
                };
                side(
                    lt.reg == **r1 && rt.reg == **r2,
                    "join",
                    "premise programs do not match",
                )?;
                side(
                    lt.pre == triple.pre && rt.pre == triple.pre,
                    "join",
                    "premise preconditions differ from the conclusion",
                )?;
                side(
                    triple.post == lt.post.union(&rt.post),
                    "join",
                    "postcondition is not Q₁ ∨ Q₂",
                )
            }
            Derivation::Star {
                rec,
                iterate,
                triple,
            } => {
                let unrolls = d.conclusions();
                for (.., step) in &unrolls {
                    self.check(dom, step[0])?;
                }
                let Reg::Star(body) = &triple.reg else {
                    return side(false, "iterate", "program is not a star");
                };
                // The innermost rule first, as in a nested tree.
                let pres: Vec<&StateSet> = unrolls.iter().map(|c| c.1).collect();
                let (it, p) = (iterate.triple(), pres[rec.len()]);
                side(
                    it.reg == **body && it.pre == *p,
                    "iterate",
                    "premise does not match",
                )?;
                side(
                    it.post.is_subset(p),
                    "iterate",
                    "R ≤ P fails: the body escapes the invariant",
                )?;
                side(
                    triple.post == *p,
                    "iterate",
                    "postcondition must equal the invariant P",
                )?;
                for (i, step) in rec.iter().enumerate().rev() {
                    let st = step.triple();
                    side(st.reg == **body, "rec", "premise programs do not match")?;
                    side(
                        st.pre == *pres[i] && *pres[i + 1] == pres[i].union(&st.post),
                        "rec",
                        "conditions do not chain through the unroll",
                    )?;
                }
                Ok(())
            }
            Derivation::Relax { inner, triple } => {
                self.check(dom, inner)?;
                let it = inner.triple();
                side(it.reg == triple.reg, "relax", "programs differ")?;
                // P ≤ P' ≤ A(P)
                side(
                    it.pre.is_subset(&triple.pre) && triple.pre.is_subset(&dom.close(&it.pre)),
                    "relax",
                    "precondition not within [P, A(P)]",
                )?;
                // Q' ≤ Q with A(Q') = A(Q)
                side(
                    triple.post.is_subset(&it.post)
                        && dom.close(&triple.post) == dom.close(&it.post),
                    "relax",
                    "postcondition not an abstraction-preserving shrink",
                )
            }
        }
    }

    /// Attempts to build a derivation of `⊢_A [p] r [Q]` automatically:
    /// one recorded `find` pass in `dom`, failing on the first violated
    /// local completeness obligation.
    ///
    /// # Errors
    ///
    /// [`LclError::Obligation`] when the domain must be repaired;
    /// evaluation errors otherwise.
    pub fn derive(&self, dom: &EnumDomain, p: &StateSet, r: &Reg) -> Result<Derivation, LclError> {
        let (repair, find) = (self.repair(), self.lc.algebra().for_find());
        let mut record = Record::default();
        match repair.find(&find, &self.lc, dom, r, p, &mut 0, &mut record) {
            Ok(_) => Ok(self.derivation(record)),
            Err(Stop::Incomplete { input, exp }) => Err(LclError::Obligation { input, exp }),
            Err(Stop::Sem(e)) => Err(LclError::Sem(e)),
        }
    }

    /// The Section 9 integration: repair the domain until every local
    /// completeness obligation of `r` on `p` holds — Algorithm 1,
    /// [`ForwardRepair`], settling each failed obligation with a pointed
    /// shell (Theorem 4.11 for guards, Theorem 4.9 otherwise). The
    /// derivation is the record of its last `find` pass, the one whose
    /// obligations all hold. Returns it with the repaired domain.
    ///
    /// # Errors
    ///
    /// Evaluation errors, or [`RepairError::Exhausted`] if the governor
    /// budget, forward repair's refinement cap or the unroll cap
    /// ([`MAX_UNROLLS`]) runs out (the error carries the points added so
    /// far — each a sound pointed refinement — and the sound partial
    /// invariant).
    pub fn derive_with_repair(
        &self,
        dom: EnumDomain,
        p: &StateSet,
        r: &Reg,
    ) -> Result<(Derivation, EnumDomain), RepairError> {
        let _span = self.trace.span(|| "lcl.derive_with_repair".to_string());
        let (outcome, record) = self.repair().repair_recorded::<Record>(dom, r, p)?;
        Ok((self.derivation(record), outcome.domain))
    }

    /// Forward repair in this system's algebra, tracer and budget.
    fn repair(&self) -> ForwardRepair<'u> {
        ForwardRepair::from_algebra(self.universe, self.lc.algebra().clone())
            .tracer(self.trace.clone())
            .governor(self.governor.clone())
    }

    /// The derivation a pass whose obligations all held recorded: each
    /// conclusion takes its premises off a stack. Emits one `lcl_rule`
    /// event per rule, in post-order.
    fn derivation(&self, record: Record<'_>) -> Derivation {
        fn pop(stack: &mut Vec<Derivation>) -> Box<Derivation> {
            Box::new(stack.pop().expect("premises precede their rule"))
        }
        let mut stack = Vec::new();
        for (reg, pre, post, unrolls) in record.0 {
            let triple = Triple {
                pre,
                reg: reg.clone(),
                post,
            };
            // Fields evaluate in the order written: the last premise first.
            let d = match reg {
                Reg::Basic(_) => Derivation::Transfer { triple },
                Reg::Seq(..) => Derivation::Seq {
                    right: pop(&mut stack),
                    left: pop(&mut stack),
                    triple,
                },
                Reg::Choice(..) => Derivation::Join {
                    right: pop(&mut stack),
                    left: pop(&mut stack),
                    triple,
                },
                Reg::Star(_) => Derivation::Star {
                    iterate: pop(&mut stack),
                    rec: stack.split_off(stack.len() + 1 - unrolls),
                    triple,
                },
            };
            // A nested tree concludes its innermost unroll first.
            for (rule, ..) in d.conclusions().iter().rev() {
                self.trace_rule(rule);
            }
            stack.push(d);
        }
        *pop(&mut stack)
    }

    /// The soundness invariant of a triple (used by tests and callers):
    /// `Q ≤ ⟦r⟧P ≤ A(Q)`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn triple_sound(&self, dom: &EnumDomain, t: &Triple) -> Result<bool, SemError> {
        let post = self.lc.algebra().exec(None, &t.reg, &t.pre)?;
        Ok(t.post.is_subset(&post) && post.is_subset(&dom.close(&t.post)))
    }

    /// Decides a specification through the logic (the §1 claim): derive a
    /// triple with repair, then `Spec` holds iff `A(Q) ≤ Spec` when `Spec`
    /// is expressible in the repaired domain, and any store of `Q ∖ Spec`
    /// is a *true alarm* (Q under-approximates the reachable states).
    ///
    /// # Errors
    ///
    /// Propagates [`RepairError`].
    pub fn prove_spec(
        &self,
        dom: EnumDomain,
        p: &StateSet,
        r: &Reg,
        spec: &StateSet,
    ) -> Result<SpecVerdict, RepairError> {
        let (derivation, mut repaired) = self.derive_with_repair(dom, p, r)?;
        // Make Spec expressible so that A(Q) ≤ Spec is a faithful check
        // (a pointed refinement, like the paper's Q̄ = Q ∧ Spec step).
        repaired.add_point(spec.clone());
        let q = &derivation.triple().post;
        if !q.is_subset(spec) {
            let Some(witness) = q.difference(spec).min_index() else {
                return Err(RepairError::Internal(
                    "Q ⊄ Spec but Q ∖ Spec is empty".to_string(),
                ));
            };
            self.trace.emit_detail_with(|| EventKind::Verdict {
                phase: "lcl.prove_spec".to_string(),
                verdict: "true_alarm".to_string(),
            });
            return Ok(SpecVerdict::TrueAlarm {
                derivation,
                domain: repaired,
                witness,
            });
        }
        // Checked in every build, so the counted closure lookup it makes
        // is the same in debug and release.
        if !repaired.close(q).is_subset(spec) {
            return Err(RepairError::Internal(
                "A(Q) ≰ Spec after tightening".to_string(),
            ));
        }
        self.trace.emit_detail_with(|| EventKind::Verdict {
            phase: "lcl.prove_spec".to_string(),
            verdict: "valid".to_string(),
        });
        Ok(SpecVerdict::Valid {
            derivation,
            domain: repaired,
        })
    }
}

/// A `find` pass recorded as a derivation: each conclusion in post-order
/// with its sets shared with the walk and its program borrowed, until
/// [`Lcl::derivation`] builds the tree of the pass that succeeds.
#[derive(Default)]
struct Record<'r>(Vec<(&'r Reg, StateSet, StateSet, usize)>);

impl<'r> Recorder<'r, StateSet> for Record<'r> {
    fn conclude(&mut self, r: &'r Reg, pre: &StateSet, post: &StateSet, unrolls: usize) {
        self.0.push((r, pre.clone(), post.clone(), unrolls));
    }

    fn unroll(&mut self, n: usize) -> Result<(), SemError> {
        if n < MAX_UNROLLS {
            return Ok(());
        }
        Err(SemError::from(Exhaustion {
            phase: "lcl.derive_star".to_string(),
            spent: MAX_UNROLLS as u64,
            reason: ExhaustReason::Fuel,
        }))
    }
}

/// The outcome of deciding a spec through `LCL_A` (see
/// [`Lcl::prove_spec`]).
#[derive(Clone, Debug)]
pub enum SpecVerdict {
    /// `⟦r⟧P ≤ Spec`, certified by the derivation in the repaired domain.
    Valid {
        /// The certifying derivation.
        derivation: Derivation,
        /// The repaired domain (with `Spec` made expressible).
        domain: EnumDomain,
    },
    /// `⟦r⟧P ≰ Spec`; the triple's under-approximation exhibits a
    /// reachable violating store — a true alarm, as in incorrectness
    /// logic.
    TrueAlarm {
        /// The derivation whose post witnesses the violation.
        derivation: Derivation,
        /// The repaired domain.
        domain: EnumDomain,
        /// Index of a reachable store outside the spec.
        witness: usize,
    },
}

impl SpecVerdict {
    /// Returns `true` for [`SpecVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, SpecVerdict::Valid { .. })
    }
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
    fn derive_straightline_and_check() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("x := x + 1; x := x * 2").unwrap();
        let p = u.filter(|s| (0..=2).contains(&s[0]));
        let d = lcl.derive(&dom, &p, &prog).unwrap();
        lcl.check(&dom, &d).unwrap();
        assert!(lcl.triple_sound(&dom, d.triple()).unwrap());
        assert_eq!(d.rule(), "seq");
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn derivation_fails_on_incomplete_guard_then_repairs() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let err = lcl.derive(&dom, &odd, &prog).unwrap_err();
        assert!(matches!(err, LclError::Obligation { .. }));
        let (d, repaired) = lcl.derive_with_repair(dom, &odd, &prog).unwrap();
        lcl.check(&repaired, &d).unwrap();
        assert!(lcl.triple_sound(&repaired, d.triple()).unwrap());
        // The derived post excludes 0 — the alarm is settled.
        assert!(!d.triple().post.contains(u.store_index(&[0]).unwrap()));
        // And the abstraction of the post excludes it too.
        assert!(!repaired
            .close(&d.triple().post)
            .contains(u.store_index(&[0]).unwrap()));
    }

    #[test]
    fn loops_derive_via_rec_and_iterate() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 24)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let lcl = Lcl::new(&u);
        let prog =
            parse_program("i := 1; j := 0; while (i <= 3) do { j := j + i; i := i + 1 }").unwrap();
        let (d, repaired) = lcl.derive_with_repair(dom, &u.full(), &prog).unwrap();
        lcl.check(&repaired, &d).unwrap();
        assert!(lcl.triple_sound(&repaired, d.triple()).unwrap());
        // The triple's post is exactly the concrete result (i = 4, j = 6).
        assert_eq!(d.triple().post, u.filter(|s| s[0] == 4 && s[1] == 6));
        // The tree mentions the star rules.
        let rendered = d.render(&u);
        assert!(
            rendered.contains("(rec)") || rendered.contains("(iterate)"),
            "{rendered}"
        );
        assert!(rendered.contains("(iterate)"), "{rendered}");
    }

    /// A budget cut inside the repair carries forward repair's partial
    /// result: the points so far and a sound invariant.
    #[test]
    fn budget_cut_carries_the_partial_invariant() {
        let (u, dom) = setup();
        let prog = parse_program("if (0 < x) then { x := x - 2 } else { x := x + 1 }").unwrap();
        let p = u.of_values([0, 3]);
        let governor = Governor::new(air_lattice::Budget::fuel(1));
        let err = Lcl::new(&u)
            .governor(governor)
            .derive_with_repair(dom, &p, &prog)
            .unwrap_err();
        let RepairError::Exhausted(partial) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert!(partial.exhaustion.phase.starts_with("repair.forward"));
        let conc = air_lang::Concrete::new(&u).exec(&prog, &p).unwrap();
        let inv = partial.invariant.expect("partial invariant computed");
        assert!(conc.is_subset(&inv));
    }

    #[test]
    fn check_rejects_tampered_derivations() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("x := x + 1").unwrap();
        let p = u.filter(|s| (0..=2).contains(&s[0]));
        let d = lcl.derive(&dom, &p, &prog).unwrap();
        // Tamper with the postcondition.
        let Derivation::Transfer { mut triple } = d else {
            panic!("transfer expected");
        };
        triple.post = u.filter(|s| (0..=9).contains(&s[0]));
        let bad = Derivation::Transfer { triple };
        let err = lcl.check(&dom, &bad).unwrap_err();
        assert!(matches!(
            err,
            LclError::SideCondition {
                rule: "transfer",
                ..
            }
        ));
    }

    /// `while (x > 0) do { x := x - 1 }` from `x = 3`: its star unrolls
    /// three times by `(rec)`, from {3}, {2, 3} and {1, 2, 3}, then closes
    /// by `(iterate)` on {0, …, 3}.
    fn countdown_star(lcl: &Lcl, u: &Universe, dom: &EnumDomain) -> Derivation {
        let prog = parse_program("while (x > 0) do { x := x - 1 }").unwrap();
        let d = lcl.derive(dom, &u.of_values([3]), &prog).unwrap();
        lcl.check(dom, &d).unwrap();
        let Derivation::Seq { left, .. } = d else {
            panic!("a while loop is a star then its exit guard");
        };
        *left
    }

    #[test]
    fn check_rejects_a_broken_unroll_chain() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let Derivation::Star {
            rec,
            iterate,
            triple,
        } = countdown_star(&lcl, &u, &dom)
        else {
            panic!("star expected");
        };
        assert_eq!(rec.len(), 3);
        let Reg::Star(body) = &triple.reg else {
            panic!("star program expected");
        };
        // Unroll 1 derived from a wider pre: every step checks on its own,
        // but the pres no longer grow by each step's post.
        let mut tampered = rec.clone();
        tampered[1] = lcl.derive(&dom, &u.of_values([1, 2, 3]), body).unwrap();
        let star = Derivation::Star {
            rec: tampered,
            iterate,
            triple: triple.clone(),
        };
        let err = lcl.check(&dom, &star).unwrap_err();
        let chain = "conditions do not chain through the unroll";
        assert_eq!(err, side(false, "rec", chain).unwrap_err());
        // The last `(rec)` step closing the star: its body escapes its pre.
        let mut rec = rec;
        let last = rec.pop().unwrap();
        let star = Derivation::Star {
            rec,
            iterate: Box::new(last),
            triple,
        };
        let err = lcl.check(&dom, &star).unwrap_err();
        let escapes = "R ≤ P fails: the body escapes the invariant";
        assert_eq!(err, side(false, "iterate", escapes).unwrap_err());
    }

    /// A 2,046-unroll countdown is one flat star: its size, rendering and
    /// drop do not recurse per unroll, so a small stack holds them, and
    /// the rendering stays linear in the tree.
    #[test]
    fn a_deep_countdown_is_one_flat_star() {
        let u = Universe::new(&[("x", 0, 2046)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1 }").unwrap();
        let p = u.of_values([2046]);
        let (d, _) = Lcl::new(&u).derive_with_repair(dom, &p, &prog).unwrap();
        std::thread::scope(|scope| {
            let walks = std::thread::Builder::new().stack_size(128 * 1024);
            let walks = walks.spawn_scoped(scope, || {
                assert_eq!(d.size(), 8190);
                let rendered = d.render(&u);
                assert!(rendered.len() < 1_000_000, "{} bytes", rendered.len());
                let ending = |rule: &str| rendered.lines().filter(|l| l.ends_with(rule)).count();
                assert_eq!((ending("(rec)"), ending("(iterate)")), (2046, 1));
                drop(d);
            });
            walks.unwrap().join().unwrap();
        });
    }

    #[test]
    fn relax_rule_checks_convexity_window() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("x := x + 1").unwrap();
        let p = u.of_values([1, 3]);
        let inner = lcl.derive(&dom, &p, &prog).unwrap();
        // Valid relax: widen P to [1,3] (within A(P)), keep Q.
        let good = Derivation::Relax {
            triple: Triple {
                pre: u.filter(|s| (1..=3).contains(&s[0])),
                reg: prog.clone(),
                post: inner.triple().post.clone(),
            },
            inner: Box::new(inner.clone()),
        };
        lcl.check(&dom, &good).unwrap();
        assert!(lcl.triple_sound(&dom, good.triple()).unwrap());
        // Invalid relax: precondition outside A(P).
        let bad = Derivation::Relax {
            triple: Triple {
                pre: u.filter(|s| (0..=5).contains(&s[0])),
                reg: prog.clone(),
                post: inner.triple().post.clone(),
            },
            inner: Box::new(inner.clone()),
        };
        assert!(lcl.check(&dom, &bad).is_err());
        // Invalid relax: postcondition shrink that changes the abstraction.
        let bad2 = Derivation::Relax {
            triple: Triple {
                pre: p,
                reg: prog,
                post: u.empty(),
            },
            inner: Box::new(inner),
        };
        assert!(lcl.check(&dom, &bad2).is_err());
    }

    #[test]
    fn derivation_render_is_readable() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("either { x := 1 } or { x := 2 }").unwrap();
        let p = u.of_values([0]);
        let d = lcl.derive(&dom, &p, &prog).unwrap();
        let rendered = d.render(&u);
        assert!(rendered.contains("(join)"));
        assert!(rendered.lines().count() == 3, "{rendered}");
    }

    #[test]
    fn prove_spec_valid_and_true_alarm() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        // Valid spec: x ≠ 0.
        let spec = u.filter(|s| s[0] != 0);
        let v = lcl.prove_spec(dom.clone(), &odd, &prog, &spec).unwrap();
        assert!(v.is_valid());
        // Invalid spec: x ≥ 2 — x = 1 is reachable, a true alarm.
        let bad_spec = u.filter(|s| s[0] >= 2);
        let v2 = lcl.prove_spec(dom, &odd, &prog, &bad_spec).unwrap();
        let SpecVerdict::TrueAlarm { witness, .. } = v2 else {
            panic!("expected a true alarm");
        };
        assert_eq!(u.store_at(witness), vec![1]);
    }

    /// Spec checking through LCL: a spec expressible in A holds iff
    /// Q ≤ Spec (the §1 claim).
    #[test]
    fn spec_decidability_from_triples() {
        let (u, dom) = setup();
        let lcl = Lcl::new(&u);
        let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap();
        let odd = u.filter(|s| s[0] % 2 != 0);
        let (d, repaired) = lcl.derive_with_repair(dom, &odd, &prog).unwrap();
        let q = &d.triple().post;
        // Spec1 = x ≠ 0 (expressible after repair): holds iff A(Q) ≤ Spec.
        let spec1 = u.filter(|s| s[0] != 0);
        assert!(repaired.close(q).is_subset(&spec1));
        // Spec2 = x ≥ 2: Q ⊄ Spec2, so a true alarm exists (x = 1).
        let spec2 = u.filter(|s| s[0] >= 2);
        assert!(!q.is_subset(&spec2));
        let sem = air_lang::Concrete::new(&u);
        let real = sem.exec(&prog, &odd).unwrap();
        assert!(!real.is_subset(&spec2), "the alarm is real");
    }
}
