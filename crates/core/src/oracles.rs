//! Executable theorem oracles — the paper's guarantees as predicates.
//!
//! Each oracle takes an [`OracleInstance`] (universe, base domain,
//! program, precondition, spec, guard, auxiliary seed) and decides
//! whether one theorem of the paper holds on it, using the enumerative
//! concrete semantics as ground truth. The fuzzer (`air-fuzz`) drives
//! these over generated instances; `tests/properties.rs` exercises the
//! same statements over proptest-style seeds.
//!
//! Oracles in this module, with their paper artifacts:
//!
//! | Oracle | Paper artifact |
//! |---|---|
//! | [`forward_repair_postconditions`] | Theorem 7.1 (fRepair) |
//! | [`backward_repair_postconditions`] | Theorem 7.6 + Corollary 7.7 (bRepair) |
//! | [`abstract_soundness`] | §3.2 (soundness of `⟦·⟧♯_{A⊞N}`) |
//! | [`local_completeness_via_sup_l`] | Theorem 4.4 (`∨L = A(c) ∧ wlp(f, A f(c))`) |
//! | [`shell_existence_and_repair`] | Theorem 4.9 (pointed shells) |
//! | [`guard_shell_restores`] | Theorem 4.11 (Boolean-guard shell) |
//! | [`completeness_convexity`] | Definition 4.1, convexity remark |
//! | [`pointed_widening_laws`] | Definition 7.11 / Theorem 7.12 |
//! | [`lcl_spec_decision`] | §5 (`LCL_A`) + §1 spec claim |
//!
//! The tenth oracle, CEGAR spuriousness ⇔ local incompleteness
//! (Lemmas 6.1/6.3), needs the transition-system machinery and lives in
//! `air_cegar::oracle`.
//!
//! # Error convention
//!
//! Oracles return `Err(SemError)` when the *instance* cannot be
//! evaluated (universe escape, overflow, budget exhaustion) — harnesses
//! should count these as skips, not failures. `Ok(Violation(..))` means
//! the theorem's statement was falsified on a well-defined instance:
//! always a bug, either in the engine or in the oracle itself.

use air_lang::gen::XorShift;
use air_lang::{BExp, Concrete, Reg, SemError, StateSet, Universe, Wlp};

use crate::absint::AbstractSemantics;
use crate::algebra::EnumAlgebra;
use crate::backward::BackwardRepair;
use crate::domain::EnumDomain;
use crate::forward::{ForwardRepair, RepairError};
use crate::lcl::Lcl;
use crate::local::{LocalCompleteness, ShellResult};

/// The verdict of a single oracle run on a single instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The theorem held on this instance.
    Pass,
    /// The theorem was falsified; the message pinpoints which clause.
    Violation(String),
}

impl OracleOutcome {
    /// Returns `true` for [`OracleOutcome::Violation`].
    pub fn is_violation(&self) -> bool {
        matches!(self, OracleOutcome::Violation(_))
    }

    /// The violation message, if any.
    pub fn message(&self) -> Option<&str> {
        match self {
            OracleOutcome::Pass => None,
            OracleOutcome::Violation(m) => Some(m),
        }
    }
}

/// One fuzz instance: everything an oracle might need.
#[derive(Clone, Debug)]
pub struct OracleInstance<'u> {
    /// The finite universe of stores.
    pub universe: &'u Universe,
    /// The base abstract domain `A`.
    pub domain: EnumDomain,
    /// The regular command `r`.
    pub program: Reg,
    /// The precondition `P` (a concrete state set).
    pub pre: StateSet,
    /// The specification `Spec`.
    pub spec: StateSet,
    /// A Boolean guard, for the guard-shell oracle.
    pub guard: BExp,
    /// Seed for oracle-internal randomness (growth sets, widening
    /// chains); derived deterministically from the case seed.
    pub aux_seed: u64,
    /// The algebra every repair engine in an oracle run works in.
    /// Ground-truth sides ([`Concrete`], [`Wlp`]) never use it — that
    /// asymmetry is the point.
    pub alg: EnumAlgebra<'u>,
}

/// Name and paper artifact of every oracle in this module, in the order
/// the fuzzer runs them. The CEGAR oracle (`cegar_spuriousness`,
/// Lemmas 6.1/6.3) is appended by `air-fuzz`, which can see both crates.
pub const ORACLES: &[(&str, &str)] = &[
    ("forward_repair", "Theorem 7.1"),
    ("backward_repair", "Theorem 7.6 + Corollary 7.7"),
    ("soundness", "Section 3.2"),
    ("sup_l", "Theorem 4.4"),
    ("pointed_shell", "Theorem 4.9"),
    ("guard_shell", "Theorem 4.11"),
    ("convexity", "Definition 4.1 (convexity remark)"),
    ("pointed_widening", "Definition 7.11 / Theorem 7.12"),
    ("lcl_spec", "Section 5 (LCL_A spec decision)"),
];

/// Runs the oracle with the given registry name. Returns `None` for an
/// unknown name (the CEGAR oracle is dispatched by `air-fuzz` instead).
pub fn run_oracle(
    name: &str,
    inst: &OracleInstance<'_>,
) -> Option<Result<OracleOutcome, SemError>> {
    Some(match name {
        "forward_repair" => forward_repair_postconditions(inst),
        "backward_repair" => backward_repair_postconditions(inst),
        "soundness" => abstract_soundness(inst),
        "sup_l" => local_completeness_via_sup_l(inst),
        "pointed_shell" => shell_existence_and_repair(inst),
        "guard_shell" => guard_shell_restores(inst),
        "convexity" => completeness_convexity(inst),
        "pointed_widening" => pointed_widening_laws(inst),
        "lcl_spec" => lcl_spec_decision(inst),
        _ => return None,
    })
}

fn violation(msg: impl Into<String>) -> Result<OracleOutcome, SemError> {
    Ok(OracleOutcome::Violation(msg.into()))
}

/// Maps engine errors into the oracle error convention: evaluation and
/// budget failures become skips (`Err`), internal engine errors are
/// *bugs* and become violations.
fn lift(e: RepairError) -> Result<OracleOutcome, SemError> {
    match e {
        RepairError::Sem(e) => Err(e),
        RepairError::Exhausted(p) => Err(SemError::Exhausted(p.exhaustion.clone())),
        RepairError::Internal(msg) => violation(format!("internal engine error: {msg}")),
    }
}

fn random_set(u: &Universe, seed: u64) -> StateSet {
    let mut rng = XorShift::new(seed);
    let mut s = u.empty();
    for i in 0..u.size() {
        if rng.chance(1, 3) {
            s.insert(i);
        }
    }
    s
}

/// Theorem 7.1: `fRepair` returns a locally complete refinement, its
/// under-approximation is exactly `⟦r⟧P`, and the abstract analysis in
/// the repaired domain computes `A'(⟦r⟧P)`.
pub fn forward_repair_postconditions(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let u = inst.universe;
    let out = match ForwardRepair::from_algebra(u, inst.alg.clone())
        .max_repairs(4_000)
        .repair(inst.domain.clone(), &inst.program, &inst.pre)
    {
        Ok(out) => out,
        Err(e) => return lift(e),
    };
    let sem = Concrete::new(u);
    let exact = sem.exec(&inst.program, &inst.pre)?;
    if out.under != exact {
        return violation("Thm 7.1: under-approximation Q differs from ⟦r⟧P");
    }
    let lc = LocalCompleteness::from_algebra(u, inst.alg.clone());
    if !lc.check(&out.domain, &inst.program, &inst.pre)? {
        return violation("Thm 7.1: repaired domain is not locally complete on P");
    }
    let asem = AbstractSemantics::from_algebra(u, inst.alg.clone());
    let abs = asem.exec(&out.domain, &inst.program, &out.domain.close(&inst.pre))?;
    if abs != out.domain.close(&out.under) {
        return violation("Thm 7.1: abstract analysis disagrees with A'(⟦r⟧P)");
    }
    Ok(OracleOutcome::Pass)
}

/// Theorem 7.6 + Corollary 7.7: `bRepair` returns the greatest valid
/// input, expressible and abstractly certified; membership of any
/// sub-input decides the concrete spec exactly.
pub fn backward_repair_postconditions(
    inst: &OracleInstance<'_>,
) -> Result<OracleOutcome, SemError> {
    let u = inst.universe;
    let out = match BackwardRepair::from_algebra(u, inst.alg.clone()).repair(
        &inst.domain,
        &inst.pre,
        &inst.program,
        &inst.spec,
    ) {
        Ok(out) => out,
        Err(e) => return lift(e),
    };
    let repaired = out.domain(&inst.domain);
    if !repaired.is_expressible(&out.valid_input) {
        return violation("Thm 7.6: valid input is not expressible in A ⊞ N'");
    }
    let asem = AbstractSemantics::from_algebra(u, inst.alg.clone());
    let abs = asem.exec(&repaired, &inst.program, &repaired.close(&out.valid_input))?;
    if !abs.is_subset(&inst.spec) {
        return violation("Thm 7.6: abstract run from V is not certified under Spec");
    }
    let wlp = Wlp::new(u);
    let brute = wlp.valid_input(&inst.domain.close(&inst.pre), &inst.program, &inst.spec)?;
    if out.valid_input != brute {
        return violation("Thm 7.6: valid input is not the greatest one");
    }
    // Corollary 7.7 on a derived random sub-input.
    let p_prime = random_set(u, inst.aux_seed ^ 0xABCD).intersection(&inst.domain.close(&inst.pre));
    let sem = Concrete::new(u);
    let concrete_ok = sem.exec(&inst.program, &p_prime)?.is_subset(&inst.spec);
    if concrete_ok != p_prime.is_subset(&out.valid_input) {
        return violation("Cor 7.7: membership in V does not decide the spec");
    }
    Ok(OracleOutcome::Pass)
}

/// §3.2 soundness: the abstract semantics over-approximates the concrete
/// collecting semantics in the given domain.
pub fn abstract_soundness(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let u = inst.universe;
    let sem = Concrete::new(u);
    let conc = sem.exec(&inst.program, &inst.pre)?;
    let asem = AbstractSemantics::from_algebra(u, inst.alg.clone());
    let abs = asem.exec(&inst.domain, &inst.program, &inst.domain.close(&inst.pre))?;
    if !conc.is_subset(&abs) {
        return violation(format!(
            "§3.2: abstract semantics unsound for {}",
            inst.domain.base_name()
        ));
    }
    Ok(OracleOutcome::Pass)
}

/// Theorem 4.4: the direct completeness check (defect emptiness) agrees
/// with the `∨L`-expressibility characterization, and `∨L ≤ A(c)`.
pub fn local_completeness_via_sup_l(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let lc = LocalCompleteness::from_algebra(inst.universe, inst.alg.clone());
    let direct = lc.check(&inst.domain, &inst.program, &inst.pre)?;
    let via_sup = lc.check_via_sup(&inst.domain, &inst.program, &inst.pre)?;
    if direct != via_sup {
        return violation(format!(
            "Thm 4.4: defect check ({direct}) disagrees with ∨L expressibility ({via_sup})"
        ));
    }
    let sup = lc.sup_l(&inst.domain, &inst.program, &inst.pre)?;
    if !sup.is_subset(&inst.domain.close(&inst.pre)) {
        return violation("Thm 4.4: ∨L is not below A(c)");
    }
    Ok(OracleOutcome::Pass)
}

/// Theorem 4.9: when the pointed shell exists, adding its point restores
/// local completeness; the point is `∨L` itself.
pub fn shell_existence_and_repair(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let lc = LocalCompleteness::from_algebra(inst.universe, inst.alg.clone());
    match lc.pointed_shell(&inst.domain, &inst.program, &inst.pre)? {
        ShellResult::Shell { point } => {
            let sup = lc.sup_l(&inst.domain, &inst.program, &inst.pre)?;
            if point != sup {
                return violation("Thm 4.9: shell point is not ∨L");
            }
            let refined = inst.domain.with_point(point);
            if !lc.check(&refined, &inst.program, &inst.pre)? {
                return violation("Thm 4.9: A ⊞ {∨L} is not locally complete on c");
            }
        }
        ShellResult::NoShell { candidate } => {
            // The existence condition must genuinely fail:
            // f(c) ≤ u but f(u) ≰ u.
            let sem = Concrete::new(inst.universe);
            let fc = sem.exec(&inst.program, &inst.pre)?;
            let fu = sem.exec(&inst.program, &candidate)?;
            if !fc.is_subset(&candidate) || fu.is_subset(&candidate) {
                return violation("Thm 4.9: NoShell reported but the existence condition holds");
            }
        }
    }
    Ok(OracleOutcome::Pass)
}

/// Theorem 4.11: the Boolean-guard shell restores local completeness for
/// both `b?` and `¬b?` on `P`.
pub fn guard_shell_restores(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let lc = LocalCompleteness::from_algebra(inst.universe, inst.alg.clone());
    let shell = lc.guard_shell(&inst.domain, &inst.guard, &inst.pre)?;
    let refined = inst.domain.with_point(shell);
    let pos = Reg::assume(inst.guard.clone());
    let neg = Reg::assume(inst.guard.negate());
    if !lc.check(&refined, &pos, &inst.pre)? {
        return violation("Thm 4.11: guard shell incomplete for b?");
    }
    if !lc.check(&refined, &neg, &inst.pre)? {
        return violation("Thm 4.11: guard shell incomplete for ¬b?");
    }
    Ok(OracleOutcome::Pass)
}

/// Convexity remark after Definition 4.1: local completeness on `c`
/// implies local completeness on every `x` with `c ≤ x ≤ A(c)`.
pub fn completeness_convexity(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let lc = LocalCompleteness::from_algebra(inst.universe, inst.alg.clone());
    if !lc.check(&inst.domain, &inst.program, &inst.pre)? {
        return Ok(OracleOutcome::Pass); // premise empty: vacuously true
    }
    let closure = inst.domain.close(&inst.pre);
    let extra =
        random_set(inst.universe, inst.aux_seed).intersection(&closure.difference(&inst.pre));
    let x = inst.pre.union(&extra);
    if !lc.check(&inst.domain, &inst.program, &x)? {
        return violation("Def 4.1: completeness not convex between c and A(c)");
    }
    Ok(OracleOutcome::Pass)
}

/// Definition 7.11 / Theorem 7.12: the pointed widening is an upper
/// bound of its arguments and stabilizes increasing chains.
pub fn pointed_widening_laws(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let u = inst.universe;
    let dom = inst
        .domain
        .with_point(random_set(u, inst.aux_seed ^ 0x9E37));
    let x = inst.pre.clone();
    let y = inst.spec.clone();
    let w = dom.pointed_widen(&x, &y);
    if !(x.is_subset(&w) && y.is_subset(&w)) {
        return violation("Def 7.11: pointed widening is not an upper bound");
    }
    let mut acc = x;
    let mut stable = 0u32;
    for k in 0..64u64 {
        let grow = acc.union(&random_set(u, inst.aux_seed.wrapping_add(k)));
        let next = dom.pointed_widen(&acc, &grow);
        if next == acc {
            stable += 1;
            if stable > 2 {
                break;
            }
        } else {
            stable = 0;
        }
        acc = next;
    }
    if stable <= 2 {
        return violation("Thm 7.12: pointed widening chain did not stabilize");
    }
    Ok(OracleOutcome::Pass)
}

/// §5 + the §1 claim: `LCL_A` decides the spec exactly — `prove_spec`
/// returns `Valid` iff `⟦r⟧P ⊆ Spec` concretely, and a `TrueAlarm`
/// witness is a reachable store outside the spec.
pub fn lcl_spec_decision(inst: &OracleInstance<'_>) -> Result<OracleOutcome, SemError> {
    let u = inst.universe;
    let lcl = Lcl::from_algebra(u, inst.alg.clone());
    let verdict = match lcl.prove_spec(inst.domain.clone(), &inst.pre, &inst.program, &inst.spec) {
        Ok(v) => v,
        Err(e) => return lift(e),
    };
    let sem = Concrete::new(u);
    let reach = sem.exec(&inst.program, &inst.pre)?;
    let truth = reach.is_subset(&inst.spec);
    if verdict.is_valid() != truth {
        return violation(format!(
            "§5: LCL verdict {} but concrete truth {}",
            verdict.is_valid(),
            truth
        ));
    }
    if let crate::lcl::SpecVerdict::TrueAlarm { witness, .. } = &verdict {
        if !reach.contains(*witness) || inst.spec.contains(*witness) {
            return violation("§5: TrueAlarm witness is not a reachable spec violation");
        }
    }
    Ok(OracleOutcome::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_domains::IntervalEnv;
    use air_lang::parse_program;

    fn instance(u: &Universe) -> OracleInstance<'_> {
        OracleInstance {
            universe: u,
            domain: EnumDomain::from_abstraction(u, IntervalEnv::new(u)),
            program: parse_program("if (x >= 0) then { skip } else { x := 0 - x }").unwrap(),
            pre: u.filter(|s| s[0] % 2 != 0),
            spec: u.filter(|s| s[0] != 0),
            guard: air_lang::parse_bexp("x >= 0").unwrap(),
            aux_seed: 7,
            alg: EnumAlgebra::with_cache(u, air_lang::SemCache::new()),
        }
    }

    #[test]
    fn all_oracles_pass_on_absval() {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let inst = instance(&u);
        for (name, theorem) in ORACLES {
            let out = run_oracle(name, &inst)
                .expect("registered oracle")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out, OracleOutcome::Pass, "{name} ({theorem})");
        }
    }

    #[test]
    fn unknown_oracle_is_none() {
        let u = Universe::new(&[("x", -2, 2)]).unwrap();
        assert!(run_oracle("no_such_oracle", &instance(&u)).is_none());
    }

    #[test]
    fn violation_surface_reports_message() {
        let v = OracleOutcome::Violation("broken".into());
        assert!(v.is_violation());
        assert_eq!(v.message(), Some("broken"));
        assert_eq!(OracleOutcome::Pass.message(), None);
    }
}
