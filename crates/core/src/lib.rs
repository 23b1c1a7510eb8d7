//! Abstract Interpretation Repair (AIR) — the PLDI 2022 paper's core.
//!
//! Whenever an abstract interpretation raises a false alarm, the abstract
//! domain is *locally incomplete* for some transfer function on some input.
//! AIR repairs the domain by adding the fewest, most abstract new elements
//! — *pointed shells* — that restore local completeness, either forward
//! along the concrete computation or backward along the abstract one.
//!
//! The engine is *enumerative*: it works on the powerset of a finite
//! [`Universe`](air_lang::Universe) of stores, exactly like the paper's
//! pilot implementation (Section 8). Abstract domains are presented as
//! closures over state sets ([`EnumDomain`]), starting from any symbolic
//! domain of `air-domains` (intervals, octagons, signs, predicates, …) and
//! growing by *pointed refinements* `A ⊞ N`.
//!
//! Module map (paper section in parentheses):
//!
//! - [`domain`] — `A ⊞ N` pointed refinements of enumerated domains (§3.1).
//! - [`algebra`] — the state-algebra seam under Algorithms 1 and 2,
//!   local completeness and `⟦·⟧♯_{A⊞N}`, and its enumerative
//!   implementation ([`EnumAlgebra`]).
//! - [`absint`] — the abstract semantics `⟦·⟧♯_{A⊞N}` with best correct
//!   approximations of basic commands, plus pointed widening (§3.2, §7).
//! - [`local`] — local completeness, the set `L^A_{c,f}`, pointed shells
//!   and the Boolean-guard shell (§4).
//! - [`forward`] — Algorithm 1, `fRepair` (§7.1).
//! - [`backward`] — Algorithm 2, `bRepair` and `inv` (§7.2).
//! - [`symbolic`] — the symbolic algebra ([`SymAlgebra`]): `Int ⊞ N` on
//!   decision diagrams under the same engines.
//! - [`verify`] — the user-facing verifier built on Corollary 7.7.
//! - [`session`] — incremental re-repair: warm [`RepairSession`]s whose
//!   re-verification cost tracks the structural distance of an edit.
//! - [`summarize`](mod@summarize) — renders repaired abstract elements as unions of boxes
//!   so they print like the paper's `P̄`, `R₁…R₃`, `V̄`.
//!
//! Every definition, theorem and algorithm this crate implements
//! (Definitions 4.1/4.3, Theorems 4.4/4.9/4.11, Algorithms 1–2,
//! Definition 7.11, Corollary 7.7) is mapped to its function in
//! `PAPER_MAP.md` at the repository root. All engines memoize through
//! [`air_lang::SemCache`] by default; `uncached()` constructors give the
//! bitwise-identical reference path.
//!
//! # Quickstart (the paper's introduction, mechanized)
//!
//! ```
//! use air_core::{EnumDomain, Verifier};
//! use air_domains::IntervalEnv;
//! use air_lang::{parse_program, Universe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // AbsVal: |x| of an odd input is never 0, but Int cannot prove it.
//! let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
//! let u = Universe::new(&[("x", -8, 8)])?;
//! let odd = u.filter(|s| s[0] % 2 != 0);
//! let spec = u.filter(|s| s[0] != 0);
//!
//! let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
//! let verifier = Verifier::new(&u);
//! let verdict = verifier.backward(dom, &prog, &odd, &spec)?;
//! assert!(verdict.is_proved());
//! # Ok(())
//! # }
//! ```

// Repair engines run on user-influenced programs: a reachable
// `unwrap()` is an abort, not an error. Tests may still use it freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// The hot path lives here: a clone of a `StateSet` or an `EnumDomain`
// copies whole bitsets, so a redundant one is a real regression.
#![deny(clippy::redundant_clone)]

pub mod absint;
pub mod algebra;
pub mod backward;
pub mod domain;
pub mod forward;
pub mod global;
pub mod lcl;
pub mod local;
pub mod oracles;
pub mod session;
pub mod summarize;
pub mod symbolic;
pub mod verify;

pub use absint::{AbstractSemantics, StarStrategy};
pub use algebra::{EnumAlgebra, PointedDomain, StateAlgebra, StoreSet};
pub use backward::{BackwardOutcome, BackwardRepair, UnrollStrategy};
pub use domain::{build_domain, EnumDomain};
pub use forward::{ForwardRepair, PartialRepair, RepairError, RepairOutcome, RepairRule};
pub use lcl::{Derivation, Lcl, LclError, SpecVerdict, Triple};
pub use local::{LocalCompleteness, ShellResult};
pub use oracles::{run_oracle, OracleInstance, OracleOutcome, ORACLES};
pub use session::{RepairSession, ReuseStats, SessionOutcome};
pub use summarize::{summarize, BoxSummary};
pub use symbolic::{SymAlgebra, SymDomain};
pub use verify::{Verdict, Verifier};
