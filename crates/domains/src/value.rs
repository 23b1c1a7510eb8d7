//! The value-domain trait: abstractions of single integers.
//!
//! A value domain abstracts `℘(ℤ)`; the nonrelational
//! [`EnvDomain`](crate::env::EnvDomain) lifts it pointwise to stores. It
//! provides the lattice structure, `α` of a constant and `γ` membership
//! (a row of values at a time, for the enumerated closure).

use std::fmt;

/// An abstraction of sets of integers.
pub trait AbstractValue: Clone + PartialEq + fmt::Debug + 'static {
    /// Short domain name.
    const NAME: &'static str;

    /// The abstraction of `ℤ`.
    fn top() -> Self;

    /// The abstraction of `∅`.
    fn bottom() -> Self;

    /// Returns `true` if this is the abstraction of `∅`.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    /// Abstract order.
    fn leq(&self, other: &Self) -> bool;

    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;

    /// Greatest lower bound.
    fn meet(&self, other: &Self) -> Self;

    /// Widening; join is the correct default for finite-height domains.
    fn widen(&self, other: &Self) -> Self {
        self.join(other)
    }

    /// Abstraction of the singleton `{v}`.
    fn from_const(v: i64) -> Self;

    /// Membership: `v ∈ γ(self)`.
    fn contains(&self, v: i64) -> bool;

    /// `true` when [`runs_in`](Self::runs_in) is a closed form and `γ` of
    /// every element is an integer interval, so it meets `[lo, hi]` in at
    /// most one run.
    const CONVEX: bool = false;

    /// Overwrites `runs` with the maximal runs `(a, b)` (inclusive,
    /// ascending) of `[lo, hi] ∩ γ(self)`. The default tests every value
    /// with [`contains`](Self::contains).
    fn runs_in(&self, lo: i64, hi: i64, runs: &mut Vec<(i64, i64)>) {
        runs.clear();
        for v in lo..=hi {
            if self.contains(v) {
                crate::traits::push_run_value(runs, v);
            }
        }
    }
}

/// Finite-sample law checks for value domains, shared by their test suites.
pub mod laws {
    use super::*;

    /// Checks lattice laws and `from_const`/`contains` coherence over a
    /// sample of elements and test values.
    pub fn check_value_domain<V: AbstractValue>(
        sample: &[V],
        values: &[i64],
    ) -> Result<(), String> {
        for a in sample {
            if !a.leq(&V::top()) {
                return Err(format!("{a:?} ≰ ⊤"));
            }
            if !V::bottom().leq(a) {
                return Err(format!("⊥ ≰ {a:?}"));
            }
            if !a.leq(&a.join(&V::bottom())) || !a.join(&V::bottom()).leq(a) {
                return Err(format!("⊥ not a join unit at {a:?}"));
            }
            for b in sample {
                let j = a.join(b);
                let m = a.meet(b);
                if !a.leq(&j) || !b.leq(&j) {
                    return Err(format!("join not upper bound: {a:?}, {b:?}"));
                }
                if !m.leq(a) || !m.leq(b) {
                    return Err(format!("meet not lower bound: {a:?}, {b:?}"));
                }
                if !a.leq(&a.widen(b)) || !b.leq(&a.widen(b)) {
                    return Err(format!("widening not an upper bound: {a:?}, {b:?}"));
                }
                // γ-coherence of the order: a ≤ b ⇒ γ(a) ⊆ γ(b) on samples.
                if a.leq(b) {
                    for &v in values {
                        if a.contains(v) && !b.contains(v) {
                            return Err(format!(
                                "order not γ-monotone: {a:?} ≤ {b:?} but {v} only in γ(a)"
                            ));
                        }
                    }
                }
                // γ(join) ⊇ γ(a) ∪ γ(b); γ(meet) ⊆ γ(a) ∩ γ(b).
                for &v in values {
                    if (a.contains(v) || b.contains(v)) && !j.contains(v) {
                        return Err(format!("γ(join) misses {v}: {a:?} ∨ {b:?}"));
                    }
                    if m.contains(v) && !(a.contains(v) && b.contains(v)) {
                        return Err(format!("γ(meet) too big at {v}: {a:?} ∧ {b:?}"));
                    }
                }
            }
        }
        for &v in values {
            if !V::from_const(v).contains(v) {
                return Err(format!("from_const({v}) does not contain {v}"));
            }
            if V::bottom().contains(v) {
                return Err(format!("⊥ contains {v}"));
            }
            if !V::top().contains(v) {
                return Err(format!("⊤ misses {v}"));
            }
        }
        Ok(())
    }
}
