//! Fuzz cases: one generated (program, domain, precondition, spec)
//! instance, plus the machinery to *build* it into the concrete objects
//! the engines and oracles consume.

use air_core::{build_domain, EnumDomain};
use air_lang::gen::{sample_domain, sample_universe, GenConfig, ProgramGen, XorShift};
use air_lang::{BExp, Concrete, Reg, StateSet, Universe};

/// One fuzz instance in symbolic form — everything needed to persist,
/// regenerate and rebuild it.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The seed this case was generated from (provenance; a parsed seed
    /// file keeps the recorded value).
    pub seed: u64,
    /// Variable declarations `(name, lo, hi)` of the universe.
    pub decls: Vec<(String, i64, i64)>,
    /// Abstract-domain name (one of `air_lang::gen::DOMAIN_NAMES`).
    pub domain: String,
    /// The regular command under test.
    pub program: Reg,
    /// Precondition, as a guard over the universe.
    pub pre: BExp,
    /// Specification (postcondition), as a guard over the universe.
    pub spec: BExp,
}

/// Caps keeping generated instances cheap enough for enumerative
/// oracles: at most 3 variables, half-span 5, 300 stores.
pub const MAX_VARS: usize = 3;
pub const MAX_HALFSPAN: i64 = 5;
pub const MAX_STORES: u64 = 300;

impl FuzzCase {
    /// Deterministically generates the case for `seed`: samples a
    /// universe, a domain, a program over the sampled variables and a
    /// pre/spec guard pair.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = XorShift::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let decls = sample_universe(&mut rng, MAX_VARS, MAX_HALFSPAN, MAX_STORES);
        let domain = sample_domain(&mut rng).to_string();
        let config = GenConfig {
            vars: decls.iter().map(|(n, _, _)| n.clone()).collect(),
            const_bound: rng.range_i64(1, 4),
            max_depth: 3,
            allow_star: true,
        };
        let mut gen = ProgramGen::new(rng.next_u64(), config);
        let program = gen.reg();
        let pre = if rng.chance(1, 2) {
            gen.multi_guard()
        } else {
            gen.bexp(2)
        };
        let spec = if rng.chance(1, 2) {
            gen.multi_guard()
        } else {
            gen.bexp(2)
        };
        FuzzCase {
            seed,
            decls,
            domain,
            program,
            pre,
            spec,
        }
    }

    /// Number of basic commands — the size the shrinker minimizes.
    pub fn commands(&self) -> usize {
        self.program.basic_count()
    }

    /// Evaluates the symbolic case into concrete engine inputs.
    ///
    /// # Errors
    ///
    /// A human-readable message when the universe declarations are
    /// invalid, the domain name is unknown, or a guard cannot be
    /// evaluated over the universe.
    pub fn build(&self) -> Result<BuiltCase, String> {
        let refs: Vec<(&str, i64, i64)> = self
            .decls
            .iter()
            .map(|(n, lo, hi)| (n.as_str(), *lo, *hi))
            .collect();
        let universe = Universe::new(&refs).map_err(|e| format!("universe: {e}"))?;
        let sem = Concrete::new(&universe);
        let pre = sem
            .sat(&self.pre)
            .map_err(|e| format!("pre `{}`: {e}", self.pre))?;
        let spec = sem
            .sat(&self.spec)
            .map_err(|e| format!("spec `{}`: {e}", self.spec))?;
        let domain = build_domain(&self.domain, &universe)
            .ok_or_else(|| format!("unknown domain `{}`", self.domain))?;
        Ok(BuiltCase {
            case: self.clone(),
            universe,
            domain,
            pre,
            spec,
        })
    }
}

/// A [`FuzzCase`] evaluated into the concrete objects engines consume.
/// The domain is rebuilt from its name, so the case stays serializable.
#[derive(Clone, Debug)]
pub struct BuiltCase {
    /// The symbolic case this was built from.
    pub case: FuzzCase,
    /// The finite universe of stores.
    pub universe: Universe,
    /// The base abstract domain.
    pub domain: EnumDomain,
    /// Concrete precondition state set.
    pub pre: StateSet,
    /// Concrete specification state set.
    pub spec: StateSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(FuzzCase::generate(seed), FuzzCase::generate(seed));
        }
        assert_ne!(FuzzCase::generate(1), FuzzCase::generate(2));
    }

    #[test]
    fn generated_cases_build() {
        let mut built = 0;
        for seed in 0..100 {
            if FuzzCase::generate(seed).build().is_ok() {
                built += 1;
            }
        }
        assert!(built >= 95, "only {built}/100 generated cases build");
    }
}
