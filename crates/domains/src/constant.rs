//! The flat constant-propagation domain `⊥ < … -1, 0, 1 … < ⊤`.

use std::fmt;

use crate::value::AbstractValue;

/// A constant abstraction (Kildall's lattice).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Constant {
    /// `⊥` — no value.
    Bot,
    /// Exactly one value.
    Const(i64),
    /// `⊤` — any value.
    Top,
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Bot => write!(f, "⊥"),
            Constant::Const(v) => write!(f, "{v}"),
            Constant::Top => write!(f, "⊤"),
        }
    }
}

impl AbstractValue for Constant {
    const NAME: &'static str = "Const";

    fn top() -> Self {
        Constant::Top
    }

    fn bottom() -> Self {
        Constant::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        matches!((self, other), (Constant::Bot, _) | (_, Constant::Top)) || self == other
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Constant::Bot, x) | (x, Constant::Bot) => *x,
            (x, y) if x == y => *x,
            _ => Constant::Top,
        }
    }

    fn meet(&self, other: &Self) -> Self {
        match (self, other) {
            (Constant::Top, x) | (x, Constant::Top) => *x,
            (x, y) if x == y => *x,
            _ => Constant::Bot,
        }
    }

    fn from_const(v: i64) -> Self {
        Constant::Const(v)
    }

    fn contains(&self, v: i64) -> bool {
        match self {
            Constant::Bot => false,
            Constant::Const(c) => *c == v,
            Constant::Top => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::laws;

    fn sample() -> Vec<Constant> {
        vec![
            Constant::Bot,
            Constant::Top,
            Constant::Const(-2),
            Constant::Const(0),
            Constant::Const(3),
        ]
    }

    fn values() -> Vec<i64> {
        vec![-2, -1, 0, 1, 3, 4]
    }

    #[test]
    fn value_domain_laws() {
        laws::check_value_domain(&sample(), &values()).unwrap();
    }
}
