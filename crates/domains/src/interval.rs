//! The interval domain `Int` over `ℤ ∪ {−∞, +∞}` (paper, Section 1).
//!
//! `Int(S)` is the least interval `[a, b]` containing `S`. The domain has
//! infinite ascending chains, so a standard widening is provided; it is
//! the domain the paper's running examples start from.

use std::fmt;

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

    fn from_const(v: i64) -> Self {
        Interval::of(v, v)
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
