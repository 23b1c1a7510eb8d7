//! The combined oracle registry: the nine theorem oracles of
//! `air_core::oracles` plus the CEGAR spuriousness oracle of
//! `air_cegar::oracle`, dispatched by name over [`BuiltCase`]s.

use crate::case::BuiltCase;
use air_core::oracles::{OracleInstance, OracleOutcome};
use air_core::EnumAlgebra;
use air_lang::{SemCache, SemError};

/// CEGAR instances blow up as `locations × stores`; beyond this many
/// product states the oracle is skipped (counted, not hidden).
const MAX_CEGAR_STATES: usize = 4_000;

/// Every oracle name with its paper artifact, in run order.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    let mut rows: Vec<(&'static str, &'static str)> = air_core::ORACLES.to_vec();
    rows.push(air_cegar::oracle::ORACLE);
    rows
}

/// The paper artifact for an oracle name.
pub fn theorem_of(name: &str) -> Option<&'static str> {
    registry().iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

fn instance(b: &BuiltCase) -> OracleInstance<'_> {
    OracleInstance {
        universe: &b.universe,
        domain: b.domain.clone(),
        program: b.case.program.clone(),
        pre: b.pre.clone(),
        spec: b.spec.clone(),
        guard: b.case.pre.clone(),
        aux_seed: b.case.seed ^ 0x5DEE_CE66_D5DE_ECE6,
        alg: EnumAlgebra::with_cache(&b.universe, SemCache::new()),
    }
}

/// Runs one oracle by name. `None` for unknown names; `Err(SemError)`
/// marks an unevaluable instance (a skip). The CEGAR oracle runs its own
/// transition-system machinery.
pub fn run(name: &str, b: &BuiltCase) -> Option<Result<OracleOutcome, SemError>> {
    if name == "cegar_spuriousness" {
        let states = b.universe.size() * (b.case.program.basic_count() + 2);
        if states > MAX_CEGAR_STATES {
            // Too large to model-check enumeratively; report as a skip
            // via the Exhausted convention.
            return Some(Err(SemError::Exhausted(air_lattice::Exhaustion {
                phase: "fuzz.cegar.size_gate".to_string(),
                spent: states as u64,
                reason: air_lattice::ExhaustReason::Fuel,
            })));
        }
        return Some(air_cegar::cegar_spuriousness(
            &b.universe,
            &b.case.program,
            &b.pre,
            &b.spec,
        ));
    }
    air_core::run_oracle(name, &instance(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::FuzzCase;

    #[test]
    fn registry_has_ten_oracles_with_theorems() {
        let rows = registry();
        assert_eq!(rows.len(), 10, "the paper's ~10 oracles: {rows:?}");
        assert!(rows.iter().any(|(n, _)| *n == "cegar_spuriousness"));
        assert_eq!(theorem_of("forward_repair"), Some("Theorem 7.1"));
        assert_eq!(theorem_of("nope"), None);
    }

    #[test]
    fn all_oracles_run_on_a_small_case() {
        let case = FuzzCase {
            seed: 3,
            decls: vec![("x".into(), -3, 3)],
            domain: "int".into(),
            program: air_lang::parse_program("if (x >= 0) then { skip } else { x := 0 - x }")
                .unwrap(),
            pre: air_lang::parse_bexp("x != 0").unwrap(),
            spec: air_lang::parse_bexp("x >= 1").unwrap(),
        };
        let built = case.build().unwrap();
        for (name, _) in registry() {
            let out = run(name, &built).expect("registered");
            let verdict = out.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(verdict, OracleOutcome::Pass, "{name}");
        }
        assert!(run("unknown", &built).is_none());
    }
}
