//! The value-domain trait: abstractions of single integers.
//!
//! A value domain abstracts `℘(ℤ)`; the nonrelational
//! [`EnvDomain`](crate::env::EnvDomain) lifts it pointwise to stores.
//! Besides the lattice structure and sound forward arithmetic, value
//! domains may provide *backward* (refutation) operators used by the
//! HC4-style guard refinement in the environment domain; the defaults are
//! sound no-ops.

use std::fmt;

use air_lang::ast::CmpOp;

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

    /// Narrowing; returning the refined iterate is the simplest sound
    /// choice.
    fn narrow(&self, other: &Self) -> Self {
        other.clone()
    }

    /// Abstraction of the singleton `{v}`.
    fn from_const(v: i64) -> Self;

    /// Sound abstract addition.
    fn add(&self, other: &Self) -> Self;

    /// Sound abstract subtraction.
    fn sub(&self, other: &Self) -> Self;

    /// Sound abstract multiplication.
    fn mul(&self, other: &Self) -> Self;

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

    /// Refines `(l, r)` under the assumption `l op r` holds for some pair
    /// of concrete values. Must be a sound *reduction*: the returned pair
    /// over-approximates `{(x, y) ∈ γ(l)×γ(r) | x op y}` componentwise.
    fn refine_cmp(op: CmpOp, l: &Self, r: &Self) -> (Self, Self) {
        let _ = op;
        (l.clone(), r.clone())
    }

    /// Backward addition: given that `x + y ∈ γ(out)`, tighten `l` and `r`.
    /// The default inverts through subtraction — sound whenever `sub` is:
    /// `x = (x+y) − y ∈ γ(out −♯ r)`.
    fn back_add(out: &Self, l: &Self, r: &Self) -> (Self, Self) {
        (l.meet(&out.sub(r)), r.meet(&out.sub(l)))
    }

    /// Backward subtraction: `x − y ∈ γ(out)` gives `x ∈ γ(out +♯ r)` and
    /// `y ∈ γ(l −♯ out)`.
    fn back_sub(out: &Self, l: &Self, r: &Self) -> (Self, Self) {
        (l.meet(&out.add(r)), r.meet(&l.sub(out)))
    }

    /// Backward multiplication.
    fn back_mul(out: &Self, l: &Self, r: &Self) -> (Self, Self) {
        let _ = out;
        (l.clone(), r.clone())
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

    /// Checks soundness of forward arithmetic on constants:
    /// `x ∈ γ(a), y ∈ γ(b) ⇒ x∘y ∈ γ(a ∘♯ b)`.
    pub fn check_arith_sound<V: AbstractValue>(sample: &[V], values: &[i64]) -> Result<(), String> {
        for a in sample {
            for b in sample {
                for &x in values {
                    for &y in values {
                        if !a.contains(x) || !b.contains(y) {
                            continue;
                        }
                        let cases: [(&str, Option<i64>, V); 3] = [
                            ("add", x.checked_add(y), a.add(b)),
                            ("sub", x.checked_sub(y), a.sub(b)),
                            ("mul", x.checked_mul(y), a.mul(b)),
                        ];
                        for (op, conc, abs) in cases {
                            if let Some(c) = conc {
                                if !abs.contains(c) {
                                    return Err(format!(
                                        "unsound {op}: {x} ∈ {a:?}, {y} ∈ {b:?}, {c} ∉ {abs:?}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks soundness of comparison refinement: any concrete pair
    /// satisfying `op` survives `refine_cmp`.
    pub fn check_refine_cmp_sound<V: AbstractValue>(
        sample: &[V],
        values: &[i64],
    ) -> Result<(), String> {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for a in sample {
            for b in sample {
                for op in ops {
                    let (ra, rb) = V::refine_cmp(op, a, b);
                    for &x in values {
                        for &y in values {
                            if a.contains(x)
                                && b.contains(y)
                                && op.eval(x, y)
                                && (!ra.contains(x) || !rb.contains(y))
                            {
                                return Err(format!(
                                    "unsound refine {op:?}: ({x},{y}) lost from {a:?},{b:?}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks soundness of backward arithmetic: if `x ∈ γ(l)`, `y ∈ γ(r)`
    /// and `x∘y ∈ γ(out)`, the pair survives the backward operator.
    pub fn check_backward_sound<V: AbstractValue>(
        sample: &[V],
        values: &[i64],
    ) -> Result<(), String> {
        for out in sample {
            for l in sample {
                for r in sample {
                    for &x in values {
                        for &y in values {
                            if !l.contains(x) || !r.contains(y) {
                                continue;
                            }
                            let checks: [(&str, Option<i64>, (V, V)); 3] = [
                                ("back_add", x.checked_add(y), V::back_add(out, l, r)),
                                ("back_sub", x.checked_sub(y), V::back_sub(out, l, r)),
                                ("back_mul", x.checked_mul(y), V::back_mul(out, l, r)),
                            ];
                            for (name, conc, (rl, rr)) in checks {
                                if let Some(c) = conc {
                                    if out.contains(c) && (!rl.contains(x) || !rr.contains(y)) {
                                        return Err(format!(
                                            "unsound {name}: ({x},{y}) lost, out={out:?}, l={l:?}, r={r:?}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
