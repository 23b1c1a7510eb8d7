//! Abstract domains for the AIR workspace, built from scratch.
//!
//! Two layers are provided:
//!
//! 1. **Value domains** ([`AbstractValue`]) abstract single integers:
//!    [`Interval`], [`Sign`], [`Parity`], [`Constant`], [`Congruence`].
//!    They are lifted pointwise to program stores by the nonrelational
//!    environment domain [`EnvDomain`].
//! 2. **Store domains** ([`Abstraction`]) abstract sets of stores: every
//!    `EnvDomain<V>`, the relational [`OctagonDomain`] and
//!    [`AffineDomain`], the Cartesian [`PredicateDomain`] and its Boolean
//!    (disjunctive) completion [`BooleanPredicateDomain`], reduced
//!    [`Product`]s and bounded [`Disjunctive`] completions.
//!
//! A store domain is presented by `α`/`γ` over a finite universe; its
//! induced upper closure [`Abstraction::closure_set`] is the base domain
//! `A` that `air-core`'s `EnumDomain` refines with points (`A ⊞ N`) and
//! every repair engine runs on.
//!
//! How these domains plug into the paper's constructions is catalogued in
//! `PAPER_MAP.md` at the repository root.
//!
//! # Example: the paper's introductory false alarm
//!
//! ```
//! use air_domains::{Abstraction, IntervalEnv};
//! use air_lang::Universe;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let u = Universe::new(&[("x", -8, 8)])?;
//! let dom = IntervalEnv::new(&u);
//!
//! // Int({odd x}) = [-7, 7], which wrongly includes 0 — the root of the
//! // paper's division-by-zero false alarm on AbsVal.
//! let odd = u.filter(|s| s[0] % 2 != 0);
//! let closed = dom.closure_set(&u, &odd);
//! assert_eq!(closed, u.filter(|s| s[0].abs() <= 7));
//! assert!(dom.gamma_contains(&dom.alpha_set(&u, &odd), &[0]));
//! # Ok(())
//! # }
//! ```

// Closures run on user-influenced universes: a reachable `unwrap()` is an
// abort, not an error. Tests may still use it freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod affine;
pub mod congruence;
pub mod constant;
pub mod disjunctive;
pub mod env;
pub mod interval;
pub mod octagon;
pub mod parity;
pub mod predicate;
pub mod product;
pub mod sign;
pub mod traits;
pub mod value;

pub use affine::AffineDomain;
pub use congruence::Congruence;
pub use constant::Constant;
pub use disjunctive::Disjunctive;
pub use env::{CongruenceEnv, ConstantEnv, EnvDomain, EnvElem, IntervalEnv, ParityEnv, SignEnv};
pub use interval::{Interval, IntervalBound};
pub use octagon::{Oct, OctagonDomain};
pub use parity::Parity;
pub use predicate::{BooleanPredicateDomain, PredicateDomain};
pub use product::Product;
pub use sign::Sign;
pub use traits::Abstraction;
pub use value::AbstractValue;
