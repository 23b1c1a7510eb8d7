//! The eight-element sign domain.
//!
//! Elements are unions of the three basic sign classes `<0`, `=0`, `>0`,
//! encoded as a 3-bit mask, which makes the lattice structure (subset
//! order) and precision arguments immediate:
//!
//! ```text
//!            ⊤ = {<0,=0,>0}
//!      ≤0        ≠0        ≥0
//!        <0      =0      >0
//!              ⊥ = {}
//! ```

use std::fmt;

use crate::value::AbstractValue;

const NEG: u8 = 0b001;
const ZERO: u8 = 0b010;
const POS: u8 = 0b100;
const ALL: u8 = 0b111;

/// A sign abstraction: any union of `<0`, `=0`, `>0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sign(u8);

impl Sign {
    /// `⊥` (no integers).
    pub const BOT: Sign = Sign(0);
    /// Strictly negative.
    pub const NEG: Sign = Sign(NEG);
    /// Exactly zero.
    pub const ZERO: Sign = Sign(ZERO);
    /// Strictly positive.
    pub const POS: Sign = Sign(POS);
    /// `≤ 0`.
    pub const NON_POS: Sign = Sign(NEG | ZERO);
    /// `≠ 0`.
    pub const NON_ZERO: Sign = Sign(NEG | POS);
    /// `≥ 0`.
    pub const NON_NEG: Sign = Sign(ZERO | POS);
    /// `⊤` (all integers).
    pub const TOP: Sign = Sign(ALL);

    fn has(self, class: u8) -> bool {
        self.0 & class != 0
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.0 {
            0 => "⊥",
            x if x == NEG => "<0",
            x if x == ZERO => "=0",
            x if x == POS => ">0",
            x if x == (NEG | ZERO) => "<=0",
            x if x == (NEG | POS) => "!=0",
            x if x == (ZERO | POS) => ">=0",
            _ => "⊤",
        };
        write!(f, "{s}")
    }
}

impl AbstractValue for Sign {
    const NAME: &'static str = "Sign";

    fn top() -> Self {
        Sign::TOP
    }

    fn bottom() -> Self {
        Sign::BOT
    }

    fn leq(&self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }

    fn join(&self, other: &Self) -> Self {
        Sign(self.0 | other.0)
    }

    fn meet(&self, other: &Self) -> Self {
        Sign(self.0 & other.0)
    }

    fn from_const(v: i64) -> Self {
        match v.signum() {
            -1 => Sign::NEG,
            0 => Sign::ZERO,
            _ => Sign::POS,
        }
    }

    fn contains(&self, v: i64) -> bool {
        self.has(match v.signum() {
            -1 => NEG,
            0 => ZERO,
            _ => POS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::laws;

    fn sample() -> Vec<Sign> {
        (0..=ALL).map(Sign).collect()
    }

    fn values() -> Vec<i64> {
        vec![-100, -2, -1, 0, 1, 2, 100]
    }

    #[test]
    fn value_domain_laws() {
        laws::check_value_domain(&sample(), &values()).unwrap();
    }

    #[test]
    fn display_names() {
        assert_eq!(Sign::NON_ZERO.to_string(), "!=0");
        assert_eq!(Sign::BOT.to_string(), "⊥");
        assert_eq!(Sign::TOP.to_string(), "⊤");
    }
}
