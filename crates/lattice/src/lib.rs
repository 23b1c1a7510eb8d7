//! Set kernels and runtime substrate for abstract interpretation.
//!
//! This crate provides what the rest of the Abstract Interpretation
//! Repair (AIR) workspace builds its engines on:
//!
//! - [`bitset`] — a compact dynamic bitset, the explicit representation
//!   of state sets over finite universes.
//! - [`symbolic`] — interval decision diagrams ([`SymState`]), the
//!   symbolic representation of the same sets.
//! - [`cache`] — sharded thread-safe memo tables, hash-consing interners
//!   and hit/miss counters shared by the closure, transfer-function and
//!   `wlp` caches of the repair engine.
//! - [`parallel`] — deterministic work-stealing [`par_map`] over slices,
//!   the substrate of the parallel corpus/CEGAR drivers.
//! - [`governor`] — fuel counters, wall-clock deadlines and cooperative
//!   cancellation ([`Governor`]), checked at every engine loop head so
//!   divergent repairs surface structured exhaustion instead of hanging.
//!
//! Upper closure operators — the paper's abstract domains — live where
//! the engines run them: `air_core::PointedDomain::close` and
//! `air_domains::Abstraction::closure_set`. Paper↔code correspondences for
//! the whole workspace are catalogued in `PAPER_MAP.md` at the repository
//! root.
//!
//! # Example
//!
//! ```
//! use air_lattice::bitset::BitVecSet;
//!
//! let a = BitVecSet::from_indices(8, [1, 3]);
//! let b = BitVecSet::from_indices(8, [3, 5]);
//! assert!(a.union(&b).contains(5));
//! assert!(!a.is_subset(&b));
//! ```

pub mod bitset;
pub mod cache;
pub mod governor;
pub mod parallel;
pub mod symbolic;

pub use bitset::BitVecSet;
pub use cache::{CacheStats, Interner, MemoTable};
pub use governor::{Budget, ExhaustReason, Exhaustion, Governor};
pub use parallel::{available_jobs, par_map, par_map_governed, par_map_indexed};
pub use symbolic::{SymShape, SymState};
