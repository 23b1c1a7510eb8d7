//! The regular-command language of the AIR paper (Section 3.2) and its
//! concrete collecting semantics over finite universes.
//!
//! Programs are *regular commands*
//!
//! ```text
//! Reg ∋ r ::= e | r; r | r ⊕ r | r*
//! Exp ∋ e ::= skip | x := a | b?
//! ```
//!
//! with an Imp-like surface syntax (`if`/`while`/`do-while` desugar to
//! regular commands exactly as in the paper). The concrete domain is the
//! powerset of program stores over a finite [`Universe`] of bounded integer
//! variables — the same design point as the paper's pilot implementation
//! (Section 8: "finite integer domains … explicit enumeration").
//!
//! The collecting semantics and `wlp` are written once, over a
//! [`SetKernel`] seam with two kernels: bitsets over the [`Universe`]'s
//! index space and decision diagrams ([`SymEngine`]). An optional memo
//! (the [`SemCache`] tables) keeps their node images.
//!
//! Paper↔code correspondences for this crate (`Reg` and its semantics
//! from §3.2, `wlp` from Definition 7.3, the [`SemCache`] memo layer) are
//! catalogued in `PAPER_MAP.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use air_lang::{parse_program, Concrete, Universe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = parse_program(
//!     "i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }",
//! )?;
//! let universe = Universe::new(&[("i", 0, 7), ("j", 0, 20)])?;
//! let sem = Concrete::new(&universe);
//! let out = sem.exec(&prog, &universe.full())?;
//! // The loop computes the 5th triangular number.
//! assert!(out.iter().all(|idx| {
//!     let s = universe.store_at(idx);
//!     s[universe.var_index("i").unwrap()] > 5
//! }));
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod ast;
pub mod cache;
pub mod gen;
pub mod parser;
pub mod pretty;
#[cfg(test)]
mod reference;
pub mod resolve;
pub mod semantics;
pub mod store;
pub mod sym;

pub use arena::{InternOutcome, TermArena, TermId, TermNode};
pub use ast::{AExp, BExp, Exp, Reg};
pub use cache::{SemCache, DEFAULT_BYPASS_THRESHOLD};
pub use parser::{parse_bexp, parse_program, ParseError};
pub use semantics::{Concrete, Memo, NoMemo, SemError, SetKernel, StoreSet, Wlp};
pub use store::{StateSet, Store, Universe, UniverseError};
pub use sym::SymEngine;
