//! The interval domain `Int` over `ℤ ∪ {−∞, +∞}` (paper, Section 1).
//!
//! `Int(S)` is the least interval `[a, b]` containing `S`. The domain has
//! infinite ascending chains, so a standard widening (and narrowing) is
//! provided; it is the domain the paper's running examples start from.

use std::fmt;

use air_lang::ast::CmpOp;

use crate::value::AbstractValue;

/// An interval endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum IntervalBound {
    /// `−∞`.
    NegInf,
    /// A finite endpoint.
    Fin(i64),
    /// `+∞`.
    PosInf,
}

use IntervalBound::{Fin, NegInf, PosInf};

impl IntervalBound {
    fn le(self, other: IntervalBound) -> bool {
        match (self, other) {
            (NegInf, _) | (_, PosInf) => true,
            (Fin(a), Fin(b)) => a <= b,
            (PosInf, _) | (_, NegInf) => false,
        }
    }

    fn min(self, other: IntervalBound) -> IntervalBound {
        if self.le(other) {
            self
        } else {
            other
        }
    }

    fn max(self, other: IntervalBound) -> IntervalBound {
        if self.le(other) {
            other
        } else {
            self
        }
    }

    /// Saturating addition; `−∞ + +∞` cannot arise from well-formed
    /// interval arithmetic (lo+lo / hi+hi only) but is defined conservatively.
    fn add(self, other: IntervalBound) -> IntervalBound {
        match (self, other) {
            (NegInf, PosInf) | (PosInf, NegInf) => {
                unreachable!("mixed infinities in bound addition")
            }
            (NegInf, _) | (_, NegInf) => NegInf,
            (PosInf, _) | (_, PosInf) => PosInf,
            (Fin(a), Fin(b)) => match a.checked_add(b) {
                Some(c) => Fin(c),
                None if a > 0 => PosInf,
                None => NegInf,
            },
        }
    }

    fn neg(self) -> IntervalBound {
        match self {
            NegInf => PosInf,
            PosInf => NegInf,
            Fin(a) => a.checked_neg().map(Fin).unwrap_or(PosInf),
        }
    }

    /// Multiplication with the convention `0 · ±∞ = 0` (sound because the
    /// concretization only contains finite integers).
    fn mul(self, other: IntervalBound) -> IntervalBound {
        let sign = |b: IntervalBound| match b {
            NegInf => -1,
            PosInf => 1,
            Fin(v) => v.signum() as i32,
        };
        match (self, other) {
            (Fin(0), _) | (_, Fin(0)) => Fin(0),
            (Fin(a), Fin(b)) => match a.checked_mul(b) {
                Some(c) => Fin(c),
                None if (a > 0) == (b > 0) => PosInf,
                None => NegInf,
            },
            _ => {
                if sign(self) * sign(other) >= 0 {
                    PosInf
                } else {
                    NegInf
                }
            }
        }
    }

    fn pred(self) -> IntervalBound {
        match self {
            Fin(a) => Fin(a.saturating_sub(1)),
            inf => inf,
        }
    }

    fn succ(self) -> IntervalBound {
        match self {
            Fin(a) => Fin(a.saturating_add(1)),
            inf => inf,
        }
    }
}

impl fmt::Display for IntervalBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegInf => write!(f, "-inf"),
            PosInf => write!(f, "+inf"),
            Fin(v) => write!(f, "{v}"),
        }
    }
}

/// An integer interval, possibly empty or unbounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Interval {
    /// The empty interval `⊥`.
    Empty,
    /// `[lo, hi]` with `lo ≤ hi`; invariant: `lo ≠ +∞`, `hi ≠ −∞`.
    Range(IntervalBound, IntervalBound),
}

impl Interval {
    /// The finite interval `[lo, hi]`; empty if `lo > hi`.
    pub fn of(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::Empty
        } else {
            Interval::Range(Fin(lo), Fin(hi))
        }
    }

    /// `[lo, +∞]`.
    pub fn at_least(lo: i64) -> Interval {
        Interval::Range(Fin(lo), PosInf)
    }

    /// `[−∞, hi]`.
    pub fn at_most(hi: i64) -> Interval {
        Interval::Range(NegInf, Fin(hi))
    }

    /// General constructor; normalizes empty ranges to `⊥`.
    pub fn from_bounds(lo: IntervalBound, hi: IntervalBound) -> Interval {
        if lo.le(hi) && lo != PosInf && hi != NegInf {
            Interval::Range(lo, hi)
        } else {
            Interval::Empty
        }
    }

    /// The lower bound, if the interval is non-empty.
    pub fn lo(&self) -> Option<IntervalBound> {
        match self {
            Interval::Empty => None,
            Interval::Range(lo, _) => Some(*lo),
        }
    }

    /// The upper bound, if the interval is non-empty.
    pub fn hi(&self) -> Option<IntervalBound> {
        match self {
            Interval::Empty => None,
            Interval::Range(_, hi) => Some(*hi),
        }
    }

    /// Returns `true` if the interval is a singleton, yielding its value.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Interval::Range(Fin(a), Fin(b)) if a == b => Some(*a),
            _ => None,
        }
    }

    /// Unary negation `[-hi, -lo]`.
    pub fn negate(&self) -> Interval {
        match self {
            Interval::Empty => Interval::Empty,
            Interval::Range(lo, hi) => Interval::from_bounds(hi.neg(), lo.neg()),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interval::Empty => write!(f, "⊥"),
            Interval::Range(lo, hi) => write!(f, "[{lo}, {hi}]"),
        }
    }
}

impl AbstractValue for Interval {
    const NAME: &'static str = "Int";

    fn top() -> Self {
        Interval::Range(NegInf, PosInf)
    }

    fn bottom() -> Self {
        Interval::Empty
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (Interval::Empty, _) => true,
            (_, Interval::Empty) => false,
            (Interval::Range(a, b), Interval::Range(c, d)) => c.le(*a) && b.le(*d),
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, x) | (x, Interval::Empty) => *x,
            (Interval::Range(a, b), Interval::Range(c, d)) => Interval::Range(a.min(*c), b.max(*d)),
        }
    }

    fn meet(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, _) | (_, Interval::Empty) => Interval::Empty,
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                Interval::from_bounds(a.max(*c), b.min(*d))
            }
        }
    }

    /// Standard interval widening: unstable bounds jump to infinity.
    fn widen(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, x) | (x, Interval::Empty) => *x,
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                let lo = if a.le(*c) { *a } else { NegInf };
                let hi = if d.le(*b) { *b } else { PosInf };
                Interval::Range(lo, hi)
            }
        }
    }

    /// Standard interval narrowing: only infinite bounds are refined.
    fn narrow(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, _) | (_, Interval::Empty) => Interval::Empty,
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                let lo = if *a == NegInf { *c } else { *a };
                let hi = if *b == PosInf { *d } else { *b };
                Interval::from_bounds(lo, hi)
            }
        }
    }

    fn from_const(v: i64) -> Self {
        Interval::of(v, v)
    }

    fn add(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, _) | (_, Interval::Empty) => Interval::Empty,
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                Interval::from_bounds(a.add(*c), b.add(*d))
            }
        }
    }

    fn sub(&self, other: &Self) -> Self {
        self.add(&other.negate())
    }

    fn mul(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Empty, _) | (_, Interval::Empty) => Interval::Empty,
            (Interval::Range(a, b), Interval::Range(c, d)) => {
                let products = [a.mul(*c), a.mul(*d), b.mul(*c), b.mul(*d)];
                let lo = products.iter().copied().fold(PosInf, IntervalBound::min);
                let hi = products.iter().copied().fold(NegInf, IntervalBound::max);
                Interval::from_bounds(lo, hi)
            }
        }
    }

    fn contains(&self, v: i64) -> bool {
        match self {
            Interval::Empty => false,
            Interval::Range(lo, hi) => lo.le(Fin(v)) && Fin(v).le(*hi),
        }
    }

    const CONVEX: bool = true;

    /// `[lo, hi] ∩ γ(self)` by clamping the bounds: one run or none.
    fn runs_in(&self, lo: i64, hi: i64, runs: &mut Vec<(i64, i64)>) {
        runs.clear();
        let Interval::Range(a, b) = self else {
            return;
        };
        let a = match a {
            Fin(a) => (*a).max(lo),
            NegInf => lo,
            PosInf => return,
        };
        let b = match b {
            Fin(b) => (*b).min(hi),
            PosInf => hi,
            NegInf => return,
        };
        if a <= b {
            runs.push((a, b));
        }
    }

    fn refine_cmp(op: CmpOp, l: &Self, r: &Self) -> (Self, Self) {
        let (Interval::Range(l_lo, _), Interval::Range(_, r_hi)) = (l, r) else {
            return (Interval::Empty, Interval::Empty);
        };
        match op {
            CmpOp::Le => {
                let l2 = l.meet(&Interval::from_bounds(NegInf, *r_hi));
                let r2 = r.meet(&Interval::from_bounds(*l_lo, PosInf));
                (l2, r2)
            }
            CmpOp::Lt => {
                let l2 = l.meet(&Interval::from_bounds(NegInf, r_hi.pred()));
                let r2 = r.meet(&Interval::from_bounds(l_lo.succ(), PosInf));
                (l2, r2)
            }
            CmpOp::Ge => {
                let (r2, l2) = Interval::refine_cmp(CmpOp::Le, r, l);
                (l2, r2)
            }
            CmpOp::Gt => {
                let (r2, l2) = Interval::refine_cmp(CmpOp::Lt, r, l);
                (l2, r2)
            }
            CmpOp::Eq => {
                let m = l.meet(r);
                (m, m)
            }
            CmpOp::Ne => {
                let l2 = match r.as_const() {
                    Some(c) => remove_endpoint(*l, c),
                    None => *l,
                };
                let r2 = match l.as_const() {
                    Some(c) => remove_endpoint(*r, c),
                    None => *r,
                };
                (l2, r2)
            }
        }
    }

    fn back_mul(out: &Self, l: &Self, r: &Self) -> (Self, Self) {
        // Only the constant-factor case is refined: x·c ∈ out ⇒ x ∈ out/c.
        let l2 = match r.as_const() {
            Some(c) if c != 0 => l.meet(&div_const(out, c)),
            _ => *l,
        };
        let r2 = match l.as_const() {
            Some(c) if c != 0 => r.meet(&div_const(out, c)),
            _ => *r,
        };
        (l2, r2)
    }
}

/// Removes `c` from an interval when it is an endpoint (the only exact
/// interval refinement of `≠`).
fn remove_endpoint(iv: Interval, c: i64) -> Interval {
    match iv {
        Interval::Range(Fin(lo), hi) if lo == c => Interval::from_bounds(Fin(lo + 1), hi),
        Interval::Range(lo, Fin(hi)) if hi == c => Interval::from_bounds(lo, Fin(hi - 1)),
        other => other,
    }
}

/// The outward-rounded quotient `{x | x·c ∈ out}` for a nonzero constant
/// `c`.
fn div_const(out: &Interval, c: i64) -> Interval {
    fn floor_div(v: i64, c: i64) -> i64 {
        let (q, r) = (v / c, v % c);
        if r != 0 && ((r < 0) != (c < 0)) {
            q - 1
        } else {
            q
        }
    }
    fn ceil_div(v: i64, c: i64) -> i64 {
        let (q, r) = (v / c, v % c);
        if r != 0 && ((r < 0) == (c < 0)) {
            q + 1
        } else {
            q
        }
    }
    let Interval::Range(lo, hi) = out else {
        return Interval::Empty;
    };
    let map = |b: IntervalBound, f: fn(i64, i64) -> i64| match b {
        Fin(v) => Fin(f(v, c)),
        inf => {
            if c > 0 {
                inf
            } else {
                inf.neg()
            }
        }
    };
    // x·c ∈ [lo, hi]: for c > 0, x ∈ [ceil(lo/c), floor(hi/c)];
    // for c < 0, x ∈ [ceil(hi/c), floor(lo/c)].
    if c > 0 {
        Interval::from_bounds(map(*lo, ceil_div), map(*hi, floor_div))
    } else {
        Interval::from_bounds(map(*hi, ceil_div), map(*lo, floor_div))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::laws;

    fn sample() -> Vec<Interval> {
        vec![
            Interval::Empty,
            Interval::top(),
            Interval::of(0, 0),
            Interval::of(-3, 5),
            Interval::of(2, 2),
            Interval::of(-7, -1),
            Interval::at_least(1),
            Interval::at_most(0),
            Interval::of(1, 10),
        ]
    }

    fn values() -> Vec<i64> {
        vec![-8, -7, -3, -1, 0, 1, 2, 3, 5, 7, 10, 11]
    }

    #[test]
    fn value_domain_laws() {
        laws::check_value_domain(&sample(), &values()).unwrap();
    }

    #[test]
    fn arithmetic_soundness() {
        laws::check_arith_sound(&sample(), &values()).unwrap();
    }

    #[test]
    fn refine_cmp_soundness() {
        laws::check_refine_cmp_sound(&sample(), &values()).unwrap();
    }

    #[test]
    fn backward_soundness() {
        laws::check_backward_sound(&sample(), &values()).unwrap();
    }

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Interval::of(3, 2), Interval::Empty);
        assert_eq!(Interval::of(2, 2).as_const(), Some(2));
        assert_eq!(Interval::of(1, 2).as_const(), None);
        assert_eq!(Interval::at_least(0).lo(), Some(Fin(0)));
        assert_eq!(Interval::at_least(0).hi(), Some(PosInf));
        assert_eq!(Interval::Empty.lo(), None);
        assert_eq!(Interval::of(-2, 5).to_string(), "[-2, 5]");
        assert_eq!(Interval::top().to_string(), "[-inf, +inf]");
    }

    #[test]
    fn precise_arithmetic() {
        let a = Interval::of(1, 3);
        let b = Interval::of(-2, 4);
        assert_eq!(a.add(&b), Interval::of(-1, 7));
        assert_eq!(a.sub(&b), Interval::of(-3, 5));
        assert_eq!(a.mul(&b), Interval::of(-6, 12));
        assert_eq!(
            Interval::of(-2, 3).mul(&Interval::of(-5, -1)),
            Interval::of(-15, 10)
        );
        assert_eq!(a.negate(), Interval::of(-3, -1));
    }

    #[test]
    fn arithmetic_with_infinities() {
        let pos = Interval::at_least(1);
        assert_eq!(pos.add(&pos), Interval::at_least(2));
        assert_eq!(pos.mul(&pos), Interval::at_least(1));
        assert_eq!(
            pos.mul(&Interval::of(-1, -1)),
            Interval::Range(NegInf, Fin(-1))
        );
        // 0·∞ = 0 convention keeps [0,0]·⊤ exact.
        assert_eq!(Interval::of(0, 0).mul(&Interval::top()), Interval::of(0, 0));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        // A partially overflowing bound saturates to +∞ soundly.
        let wide = Interval::of(0, i64::MAX - 1);
        let two = Interval::of(0, 2);
        assert_eq!(wide.add(&two), Interval::Range(Fin(0), PosInf));
        // When *both* bounds overflow upward, no i64 remains in the result;
        // the concrete semantics errors on overflow, so ⊥ is the honest
        // normalization of the pseudo-interval [+∞, +∞].
        let big = Interval::of(i64::MAX - 1, i64::MAX - 1);
        assert_eq!(big.add(&Interval::of(2, 2)), Interval::Empty);
    }

    #[test]
    fn widening_jumps_to_infinity() {
        let a = Interval::of(0, 1);
        let b = Interval::of(0, 2);
        assert_eq!(a.widen(&b), Interval::Range(Fin(0), PosInf));
        let c = Interval::of(-1, 1);
        assert_eq!(a.widen(&c), Interval::Range(NegInf, Fin(1)));
        // Stable bounds are kept.
        assert_eq!(a.widen(&a), a);
        // Widening chain terminates.
        let mut x = Interval::of(0, 0);
        for k in 1..100 {
            let next = x.widen(&x.join(&Interval::of(0, k)));
            if next == x {
                break;
            }
            x = next;
        }
        assert_eq!(x, Interval::Range(Fin(0), PosInf));
    }

    #[test]
    fn narrowing_refines_infinite_bounds_only() {
        let wide = Interval::Range(Fin(0), PosInf);
        let better = Interval::of(0, 10);
        assert_eq!(wide.narrow(&better), Interval::of(0, 10));
        let finite = Interval::of(0, 20);
        assert_eq!(finite.narrow(&better), finite);
    }

    #[test]
    fn refine_le_lt() {
        let l = Interval::of(0, 10);
        let r = Interval::of(3, 5);
        let (l2, r2) = Interval::refine_cmp(CmpOp::Le, &l, &r);
        assert_eq!(l2, Interval::of(0, 5));
        assert_eq!(r2, Interval::of(3, 5));
        let (l3, r3) = Interval::refine_cmp(CmpOp::Lt, &l, &r);
        assert_eq!(l3, Interval::of(0, 4));
        assert_eq!(r3, Interval::of(3, 5));
        let (l4, _) = Interval::refine_cmp(CmpOp::Gt, &l, &r);
        assert_eq!(l4, Interval::of(4, 10));
    }

    #[test]
    fn refine_eq_ne() {
        let l = Interval::of(0, 10);
        let r = Interval::of(5, 15);
        let (l2, r2) = Interval::refine_cmp(CmpOp::Eq, &l, &r);
        assert_eq!(l2, Interval::of(5, 10));
        assert_eq!(r2, Interval::of(5, 10));
        let (l3, _) = Interval::refine_cmp(CmpOp::Ne, &Interval::of(0, 10), &Interval::of(0, 0));
        assert_eq!(l3, Interval::of(1, 10));
        let (l4, _) = Interval::refine_cmp(CmpOp::Ne, &Interval::of(0, 10), &Interval::of(10, 10));
        assert_eq!(l4, Interval::of(0, 9));
        // Interior holes are not representable: no refinement.
        let (l5, _) = Interval::refine_cmp(CmpOp::Ne, &Interval::of(0, 10), &Interval::of(5, 5));
        assert_eq!(l5, Interval::of(0, 10));
    }

    #[test]
    fn backward_add_sub() {
        let out = Interval::of(5, 6);
        let l = Interval::of(0, 10);
        let r = Interval::of(2, 3);
        let (l2, r2) = Interval::back_add(&out, &l, &r);
        assert_eq!(l2, Interval::of(2, 4)); // 5-3 .. 6-2
        assert_eq!(r2, Interval::of(2, 3));
        let (l3, r3) = Interval::back_sub(&out, &l, &r);
        assert_eq!(l3, Interval::of(7, 9)); // 5+2 .. 6+3
        assert_eq!(r3, Interval::of(2, 3));
    }

    #[test]
    fn backward_mul_constant() {
        let out = Interval::of(4, 10);
        let l = Interval::of(-10, 10);
        let c2 = Interval::from_const(2);
        let (l2, _) = Interval::back_mul(&out, &l, &c2);
        assert_eq!(l2, Interval::of(2, 5));
        let cm2 = Interval::from_const(-2);
        let (l3, _) = Interval::back_mul(&out, &l, &cm2);
        assert_eq!(l3, Interval::of(-5, -2));
        // Odd bounds round inward (x·2 ∈ [5,9] ⇒ x ∈ [3,4]).
        let (l4, _) = Interval::back_mul(&Interval::of(5, 9), &l, &c2);
        assert_eq!(l4, Interval::of(3, 4));
    }

    #[test]
    fn meet_and_join() {
        let a = Interval::of(0, 5);
        let b = Interval::of(3, 9);
        assert_eq!(a.meet(&b), Interval::of(3, 5));
        assert_eq!(a.join(&b), Interval::of(0, 9));
        let disjoint = Interval::of(7, 9);
        assert_eq!(a.meet(&disjoint), Interval::Empty);
        assert_eq!(a.join(&disjoint), Interval::of(0, 9)); // convex hull includes the gap
    }
}
