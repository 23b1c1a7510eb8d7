//! Umbrella crate for the Abstract Interpretation Repair (AIR) workspace.
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can refer to everything through a single dependency:
//!
//! - [`lattice`] — set kernels (bitsets, interval decision diagrams),
//!   memo tables, run budgets and the deterministic parallel map.
//! - [`lang`] — the regular-command language `Reg`, an Imp-like surface
//!   syntax with a parser, stores, finite universes and the concrete
//!   collecting semantics.
//! - [`domains`] — abstract domains (intervals, octagons, signs, parity,
//!   constants, congruences, Cartesian predicates, …) presented by
//!   `α`/`γ`; their closures are the engines' base domains.
//! - [`core`] — the paper's contribution: local completeness, pointed
//!   shells, forward/backward repair, pointed widening and the verifier.
//! - [`cegar`] — finite transition systems, abstract model checking and the
//!   CEGAR-as-AIR refinement heuristics of Section 6.
//! - [`trace`] — structured event tracing, phase profiling and the
//!   repair-derivation DOT export wired through every engine above.
//! - [`fuzz`] — the theorem-oracle fuzzer: seeded instance generation,
//!   differential engine sweeps, greedy shrinking and replayable seed
//!   files (see `FUZZING.md`).
//! - [`resilience`] — deterministic fault injection (seeded fault plans
//!   keyed on trace-point sites), `catch_unwind` supervision with
//!   bounded retry, and crash-safe atomic checkpoints; the substrate of
//!   `air chaos`.
//! - [`serve`] — repair-as-a-service: the `air serve` daemon keeping
//!   interner, memo tables and semantic caches warm across requests,
//!   with governed admission and per-tenant quotas (see `SERVING.md`).
//!
//! # Quickstart
//!
//! ```
//! use air::core::{EnumDomain, Verifier};
//! use air::domains::IntervalEnv;
//! use air::lang::{parse_program, Universe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // AbsVal from the paper's introduction: |x| of an odd input is never 0.
//! let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
//! let universe = Universe::new(&[("x", -8, 8)])?;
//! let input = universe.filter(|s| s[0] % 2 != 0);
//! let spec = universe.filter(|s| s[0] != 0);
//!
//! let domain = EnumDomain::from_abstraction(&universe, IntervalEnv::new(&universe));
//! let verdict = Verifier::new(&universe).backward(domain, &prog, &input, &spec)?;
//! assert!(verdict.is_proved());
//! # Ok(())
//! # }
//! ```

pub use air_cegar as cegar;
pub use air_core as core;
pub use air_domains as domains;
pub use air_fuzz as fuzz;
pub use air_lang as lang;
pub use air_lattice as lattice;
pub use air_resilience as resilience;
pub use air_serve as serve;
pub use air_trace as trace;
