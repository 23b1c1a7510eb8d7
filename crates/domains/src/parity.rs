//! The parity domain `{⊥, even, odd, ⊤}`.
//!
//! Parity abstracts the paper's introductory input property
//! `I = {x | x is odd}` exactly — one of the few textbook domains that can
//! express it — and is used in tests contrasting expressible and
//! inexpressible inputs.

use std::fmt;

use crate::value::AbstractValue;

const EVEN: u8 = 0b01;
const ODD: u8 = 0b10;

/// A parity abstraction: any union of the even and odd classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Parity(u8);

impl Parity {
    /// `⊥`.
    pub const BOT: Parity = Parity(0);
    /// Even integers.
    pub const EVEN: Parity = Parity(EVEN);
    /// Odd integers.
    pub const ODD: Parity = Parity(ODD);
    /// `⊤`.
    pub const TOP: Parity = Parity(EVEN | ODD);
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.0 {
            0 => "⊥",
            EVEN => "even",
            ODD => "odd",
            _ => "⊤",
        };
        write!(f, "{s}")
    }
}

impl AbstractValue for Parity {
    const NAME: &'static str = "Par";

    fn top() -> Self {
        Parity::TOP
    }

    fn bottom() -> Self {
        Parity::BOT
    }

    fn leq(&self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }

    fn join(&self, other: &Self) -> Self {
        Parity(self.0 | other.0)
    }

    fn meet(&self, other: &Self) -> Self {
        Parity(self.0 & other.0)
    }

    fn from_const(v: i64) -> Self {
        if v % 2 == 0 {
            Parity::EVEN
        } else {
            Parity::ODD
        }
    }

    fn contains(&self, v: i64) -> bool {
        self.0 & (if v % 2 == 0 { EVEN } else { ODD }) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::laws;

    fn sample() -> Vec<Parity> {
        vec![Parity::BOT, Parity::EVEN, Parity::ODD, Parity::TOP]
    }

    fn values() -> Vec<i64> {
        vec![-5, -2, -1, 0, 1, 2, 7, 8]
    }

    #[test]
    fn value_domain_laws() {
        laws::check_value_domain(&sample(), &values()).unwrap();
    }

    #[test]
    fn negative_values_classified() {
        assert!(Parity::ODD.contains(-3));
        assert!(Parity::EVEN.contains(-4));
        assert_eq!(Parity::from_const(-3), Parity::ODD);
    }

    #[test]
    fn display() {
        assert_eq!(Parity::EVEN.to_string(), "even");
        assert_eq!(Parity::TOP.to_string(), "⊤");
    }
}
