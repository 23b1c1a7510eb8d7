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
use air_trace::{DotBuilder, EventKind, Tracer};

use crate::algebra::{EnumAlgebra, StateAlgebra};
use crate::domain::EnumDomain;
use crate::forward::{ForwardRepair, RepairError};
use crate::local::LocalCompleteness;

/// The most `(rec)` unrolls one derivation nests. Each unroll is one
/// level of [`Derivation::Rec`], and building, rendering, checking and
/// dropping a tree all recurse once per level, so a deeper unroll would
/// overflow the stack; it stops as a fuel exhaustion at
/// `lcl.derive_star` instead.
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
    /// `(rec)`: unroll the star once.
    Rec {
        /// One iteration from `pre`.
        step: Box<Derivation>,
        /// The star from the grown precondition `pre ∨ R`.
        rest: Box<Derivation>,
        /// The derived triple.
        triple: Triple,
    },
    /// `(iterate)`: the loop invariant case `R ≤ P`.
    Iterate {
        /// One iteration whose result stays below `pre`.
        step: Box<Derivation>,
        /// The derived triple (`post = pre`).
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
            | Derivation::Rec { triple, .. }
            | Derivation::Iterate { triple, .. }
            | Derivation::Relax { triple, .. } => triple,
        }
    }

    /// The rule name at the root.
    pub fn rule(&self) -> &'static str {
        match self {
            Derivation::Transfer { .. } => "transfer",
            Derivation::Seq { .. } => "seq",
            Derivation::Join { .. } => "join",
            Derivation::Rec { .. } => "rec",
            Derivation::Iterate { .. } => "iterate",
            Derivation::Relax { .. } => "relax",
        }
    }

    /// Number of rule applications in the tree.
    pub fn size(&self) -> usize {
        match self {
            Derivation::Transfer { .. } => 1,
            Derivation::Seq { left, right, .. }
            | Derivation::Join { left, right, .. }
            | Derivation::Rec {
                step: left,
                rest: right,
                ..
            } => 1 + left.size() + right.size(),
            Derivation::Iterate { step, .. } => 1 + step.size(),
            Derivation::Relax { inner, .. } => 1 + inner.size(),
        }
    }

    /// Renders the derivation as an indented proof tree.
    pub fn render(&self, universe: &Universe) -> String {
        fn go(d: &Derivation, universe: &Universe, depth: usize, out: &mut String) {
            let t = d.triple();
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "[{}] {} [{}]   ({})\n",
                crate::summarize::display_set(universe, &t.pre),
                t.reg,
                crate::summarize::display_set(universe, &t.post),
                d.rule()
            ));
            match d {
                Derivation::Transfer { .. } => {}
                Derivation::Seq { left, right, .. }
                | Derivation::Join { left, right, .. }
                | Derivation::Rec {
                    step: left,
                    rest: right,
                    ..
                } => {
                    go(left, universe, depth + 1, out);
                    go(right, universe, depth + 1, out);
                }
                Derivation::Iterate { step, .. } => go(step, universe, depth + 1, out),
                Derivation::Relax { inner, .. } => go(inner, universe, depth + 1, out),
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
        fn go(d: &Derivation, universe: &Universe, dot: &mut DotBuilder) -> air_trace::NodeId {
            let t = d.triple();
            let label = format!(
                "({})\n[{}]\n{}\n[{}]",
                d.rule(),
                crate::summarize::display_set(universe, &t.pre),
                t.reg,
                crate::summarize::display_set(universe, &t.post),
            );
            let node = dot.node(&label);
            let premises: Vec<&Derivation> = match d {
                Derivation::Transfer { .. } => vec![],
                Derivation::Seq { left, right, .. } | Derivation::Join { left, right, .. } => {
                    vec![left, right]
                }
                Derivation::Rec { step, rest, .. } => vec![step, rest],
                Derivation::Iterate { step, .. } => vec![step],
                Derivation::Relax { inner, .. } => vec![inner],
            };
            for premise in premises {
                let child = go(premise, universe, dot);
                dot.edge(node, child);
            }
            node
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

    /// Kept for `tests/differential.rs`: [`from_algebra`](Self::from_algebra)
    /// without memoization (the reference path).
    pub fn uncached(universe: &'u Universe) -> Self {
        Self::from_algebra(universe, EnumAlgebra::uncached(universe))
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

    /// Enforces `governor` in the repair ([`ForwardRepair`]'s loop and
    /// unroll heads) and at the derivation's star-unroll heads:
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
            Derivation::Rec { step, rest, triple } => {
                self.check(dom, step)?;
                self.check(dom, rest)?;
                let (st, rt) = (step.triple(), rest.triple());
                let Reg::Star(body) = &triple.reg else {
                    return side(false, "rec", "program is not a star");
                };
                side(
                    st.reg == **body && rt.reg == triple.reg,
                    "rec",
                    "premise programs do not match",
                )?;
                side(
                    st.pre == triple.pre
                        && rt.pre == triple.pre.union(&st.post)
                        && rt.post == triple.post,
                    "rec",
                    "conditions do not chain through the unroll",
                )
            }
            Derivation::Iterate { step, triple } => {
                self.check(dom, step)?;
                let st = step.triple();
                let Reg::Star(body) = &triple.reg else {
                    return side(false, "iterate", "program is not a star");
                };
                side(
                    st.reg == **body && st.pre == triple.pre,
                    "iterate",
                    "premise does not match",
                )?;
                side(
                    st.post.is_subset(&triple.pre),
                    "iterate",
                    "R ≤ P fails: the body escapes the invariant",
                )?;
                side(
                    triple.post == triple.pre,
                    "iterate",
                    "postcondition must equal the invariant P",
                )
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

    /// Attempts to build a derivation of `⊢_A [p] r [Q]` automatically,
    /// failing on the first violated local completeness obligation.
    ///
    /// # Errors
    ///
    /// [`LclError::Obligation`] when the domain must be repaired;
    /// evaluation errors otherwise.
    pub fn derive(&self, dom: &EnumDomain, p: &StateSet, r: &Reg) -> Result<Derivation, LclError> {
        match r {
            Reg::Basic(e) => {
                if !self.lc.check_exp(dom, e, p)? {
                    return Err(LclError::Obligation {
                        input: p.clone(),
                        exp: e.clone(),
                    });
                }
                let post = self.lc.algebra().exec(None, r, p)?;
                self.trace_rule("transfer");
                Ok(Derivation::Transfer {
                    triple: Triple {
                        pre: p.clone(),
                        reg: r.clone(),
                        post,
                    },
                })
            }
            Reg::Seq(r1, r2) => {
                let left = self.derive(dom, p, r1)?;
                let mid = left.triple().post.clone();
                let right = self.derive(dom, &mid, r2)?;
                let post = right.triple().post.clone();
                self.trace_rule("seq");
                Ok(Derivation::Seq {
                    left: Box::new(left),
                    right: Box::new(right),
                    triple: Triple {
                        pre: p.clone(),
                        reg: r.clone(),
                        post,
                    },
                })
            }
            Reg::Choice(r1, r2) => {
                let left = self.derive(dom, p, r1)?;
                let right = self.derive(dom, p, r2)?;
                let post = left.triple().post.union(&right.triple().post);
                self.trace_rule("join");
                Ok(Derivation::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    triple: Triple {
                        pre: p.clone(),
                        reg: r.clone(),
                        post,
                    },
                })
            }
            Reg::Star(body) => self.derive_star(dom, p, r, body, 0),
        }
    }

    fn derive_star(
        &self,
        dom: &EnumDomain,
        p: &StateSet,
        star: &Reg,
        body: &Reg,
        depth: usize,
    ) -> Result<Derivation, LclError> {
        if depth == MAX_UNROLLS {
            let cap = Exhaustion {
                phase: "lcl.derive_star".to_string(),
                spent: MAX_UNROLLS as u64,
                reason: ExhaustReason::Fuel,
            };
            return Err(SemError::from(cap).into());
        }
        self.governor
            .check_with(|| "lcl.derive_star".to_string())
            .map_err(SemError::from)?;
        let step = self.derive(dom, p, body)?;
        let r_post = step.triple().post.clone();
        if r_post.is_subset(p) {
            self.trace_rule("iterate");
            return Ok(Derivation::Iterate {
                step: Box::new(step),
                triple: Triple {
                    pre: p.clone(),
                    reg: star.clone(),
                    post: p.clone(),
                },
            });
        }
        let grown = p.union(&r_post);
        let rest = self.derive_star(dom, &grown, star, body, depth + 1)?;
        let post = rest.triple().post.clone();
        self.trace_rule("rec");
        Ok(Derivation::Rec {
            step: Box::new(step),
            rest: Box::new(rest),
            triple: Triple {
                pre: p.clone(),
                reg: star.clone(),
                post,
            },
        })
    }

    /// The Section 9 integration: repair the domain until every local
    /// completeness obligation of `r` on `p` holds — Algorithm 1,
    /// [`ForwardRepair`], which walks the program exactly as
    /// [`derive`](Self::derive) does and settles each failed obligation
    /// with a pointed shell (Theorem 4.11 for guards, Theorem 4.9
    /// otherwise) — then derive the triple once in the repaired domain.
    /// Returns the derivation together with the repaired domain.
    ///
    /// # Errors
    ///
    /// Evaluation errors, or [`RepairError::Exhausted`] if the governor
    /// budget, forward repair's refinement cap or the derivation's unroll
    /// cap runs out (the error carries the points added so far — each a
    /// sound pointed refinement — and the sound partial invariant).
    pub fn derive_with_repair(
        &self,
        dom: EnumDomain,
        p: &StateSet,
        r: &Reg,
    ) -> Result<(Derivation, EnumDomain), RepairError> {
        let _span = self.trace.span(|| "lcl.derive_with_repair".to_string());
        let repair = ForwardRepair::from_algebra(self.universe, self.lc.algebra().clone())
            .tracer(self.trace.clone())
            .governor(self.governor.clone());
        let repaired = repair.repair(dom, r, p)?.domain;
        match self.derive(&repaired, p, r) {
            Ok(d) => Ok((d, repaired)),
            Err(LclError::Sem(e)) => Err(repair.exhausted(e.into(), &repaired, r, p)),
            // Forward repair settled every obligation `derive` meets, and
            // `derive` builds its own trees, so side conditions cannot
            // fail; anything else is an engine bug, not a user error.
            Err(other) => Err(RepairError::Internal(format!(
                "derivation in the repaired domain failed: {other}"
            ))),
        }
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
        debug_assert!(
            repaired.close(q).is_subset(spec),
            "A(Q) ≤ Spec after tightening"
        );
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
