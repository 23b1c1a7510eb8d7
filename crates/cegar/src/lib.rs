//! CEGAR as Abstract Interpretation Repair (Section 6 of the paper).
//!
//! This crate provides the abstract-model-checking substrate the paper
//! relates AIR to:
//!
//! - [`ts`] — finite transition systems with `post`/`pre` transformers,
//!   and `post_{π_k}` as an additive transformer of `air-core`'s
//!   [`LocalCompleteness`](air_core::LocalCompleteness) queries;
//! - [`partition`] — partitioning abstractions (unions of blocks), whose
//!   closure is an `air-core` [`EnumDomain`](air_core::EnumDomain);
//! - [`moore`] — Moore-family refinement beyond partitions, on an
//!   `EnumDomain` plus Theorem 6.4 points;
//! - [`amc`] — the existential abstract transition system and abstract
//!   counterexample search;
//! - [`spurious`] — the forward sets `S_k` of eq. (2), the backward sets
//!   `T_k`, the dead/bad/irrelevant split, and the spuriousness check
//!   (Lemmas 6.1 and 6.3);
//! - [`refine`] — the three refinement heuristics: classic CEGAR,
//!   forward-AIR (Theorem 6.2) and backward-AIR (Theorem 6.4);
//! - [`driver`] — the CEGAR loop with statistics;
//! - [`program_ts`] — compiling a regular command over a finite universe
//!   into a transition system, so the same programs drive both AIR and
//!   CEGAR.
//!
//! States are the stores of a one-variable universe
//! ([`ts::state_universe`]), so Section 4 is not restated here: Lemma 6.1
//! and Theorems 6.2/6.4 are checked by the same local-completeness and
//! pointed-shell code Algorithms 1 and 2 run. The Section 6 artifacts
//! (Lemma 6.1, Theorems 6.2/6.4, the three refinement heuristics) are
//! mapped to their functions in `PAPER_MAP.md` at the repository root. The abstraction build and backward-AIR splits
//! optionally fan out over worker threads ([`Cegar::jobs`]) with bitwise
//! identical results.
//!
//! # Example
//!
//! ```
//! use air_cegar::driver::{Cegar, CegarResult, Heuristic};
//! use air_cegar::ts::TransitionSystem;
//! use air_lattice::BitVecSet;
//!
//! // A 4-state system: 0 → 1 → 2, and 3 isolated; is state 3 reachable
//! // from 0? (No.)
//! let mut ts = TransitionSystem::new(4);
//! ts.add_edge(0, 1);
//! ts.add_edge(1, 2);
//! let init = BitVecSet::from_indices(4, [0]);
//! let bad = BitVecSet::from_indices(4, [3]);
//! let result = Cegar::new(&ts, &init, &bad, Heuristic::BackwardAir).run().unwrap();
//! assert!(matches!(result, CegarResult::Safe { .. }));
//! ```

pub mod amc;
pub mod bridge;
pub mod driver;
pub mod moore;
pub mod oracle;
pub mod partition;
pub mod program_ts;
pub mod refine;
pub mod spurious;
pub mod ts;

pub use driver::{Cegar, CegarError, CegarResult, Heuristic};
pub use moore::{MooreCegar, MooreResult};
pub use oracle::cegar_spuriousness;
pub use partition::Partition;
pub use program_ts::ProgramTs;
pub use spurious::SpuriousAnalysis;
pub use ts::TransitionSystem;
