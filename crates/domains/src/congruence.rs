//! Granger's congruence domain `{⊥} ∪ {aℤ + b}`.
//!
//! An element `(m, r)` with `m > 0` denotes `{x | x ≡ r (mod m)}`; `(0, c)`
//! denotes the constant `{c}`; `(1, 0)` is `⊤`. The domain generalizes
//! [`Parity`](crate::parity::Parity) (`m = 2`) and, like it, can express
//! the paper's odd-input property exactly.

use std::fmt;

use crate::value::AbstractValue;

/// A congruence abstraction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Congruence {
    /// `⊥`.
    Bot,
    /// `mℤ + r`; invariant: `m ≥ 0`, and `0 ≤ r < m` when `m > 0`.
    Class {
        /// The modulus (`0` encodes a single constant).
        modulus: i64,
        /// The remainder (the constant itself when `modulus = 0`).
        rem: i64,
    },
}

impl Congruence {
    /// The class `mℤ + r`, normalized.
    pub fn class(modulus: i64, rem: i64) -> Congruence {
        let modulus = modulus.abs();
        if modulus == 0 {
            Congruence::Class { modulus: 0, rem }
        } else {
            Congruence::Class {
                modulus,
                rem: rem.rem_euclid(modulus),
            }
        }
    }

    fn parts(&self) -> Option<(i64, i64)> {
        match self {
            Congruence::Bot => None,
            Congruence::Class { modulus, rem } => Some((*modulus, *rem)),
        }
    }
}

impl fmt::Display for Congruence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Congruence::Bot => write!(f, "⊥"),
            Congruence::Class { modulus: 0, rem } => write!(f, "{rem}"),
            Congruence::Class { modulus: 1, .. } => write!(f, "⊤"),
            Congruence::Class { modulus, rem } => write!(f, "{modulus}ℤ+{rem}"),
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl AbstractValue for Congruence {
    const NAME: &'static str = "Cong";

    fn top() -> Self {
        Congruence::class(1, 0)
    }

    fn bottom() -> Self {
        Congruence::Bot
    }

    fn leq(&self, other: &Self) -> bool {
        match (self.parts(), other.parts()) {
            (None, _) => true,
            (_, None) => false,
            (Some((m1, r1)), Some((m2, r2))) => {
                if m2 == 0 {
                    m1 == 0 && r1 == r2
                } else {
                    // m2ℤ+r2 ⊇ m1ℤ+r1 iff m2 | m1 (with 0 ≡ "infinitely
                    // precise") and r1 ≡ r2 (mod m2).
                    (m1 == 0 || m1 % m2 == 0) && (r1 - r2).rem_euclid(m2) == 0
                }
            }
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self.parts(), other.parts()) {
            (None, _) => *other,
            (_, None) => *self,
            (Some((m1, r1)), Some((m2, r2))) => {
                let m = gcd(gcd(m1, m2), (r1 - r2).abs());
                Congruence::class(m, r1)
            }
        }
    }

    fn meet(&self, other: &Self) -> Self {
        match (self.parts(), other.parts()) {
            (None, _) | (_, None) => Congruence::Bot,
            (Some((0, c)), Some(_)) => {
                if other.contains(c) {
                    *self
                } else {
                    Congruence::Bot
                }
            }
            (Some(_), Some((0, c))) => {
                if self.contains(c) {
                    *other
                } else {
                    Congruence::Bot
                }
            }
            (Some((m1, r1)), Some((m2, r2))) => {
                // Chinese remainder: solvable iff gcd(m1, m2) | r1 − r2.
                let g = gcd(m1, m2);
                if (r1 - r2) % g != 0 {
                    return Congruence::Bot;
                }
                let Some(lcm) = (m1 / g).checked_mul(m2) else {
                    return *self; // overflow: sound over-approximation
                };
                // Find x ≡ r1 (mod m1), x ≡ r2 (mod m2) by stepping r1 by m1.
                // Cheap because moduli in this workspace are tiny.
                let mut x = r1;
                for _ in 0..(m2 / g) {
                    if (x - r2).rem_euclid(m2) == 0 {
                        return Congruence::class(lcm, x);
                    }
                    x += m1;
                }
                Congruence::Bot
            }
        }
    }

    fn from_const(v: i64) -> Self {
        Congruence::class(0, v)
    }

    fn contains(&self, v: i64) -> bool {
        match self.parts() {
            None => false,
            Some((0, c)) => v == c,
            Some((m, r)) => (v - r).rem_euclid(m) == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::laws;

    fn sample() -> Vec<Congruence> {
        vec![
            Congruence::Bot,
            Congruence::top(),
            Congruence::class(2, 0),
            Congruence::class(2, 1),
            Congruence::class(3, 2),
            Congruence::class(4, 1),
            Congruence::class(6, 5),
            Congruence::from_const(0),
            Congruence::from_const(5),
            Congruence::from_const(-3),
        ]
    }

    fn values() -> Vec<i64> {
        (-12..=12).collect()
    }

    #[test]
    fn value_domain_laws() {
        laws::check_value_domain(&sample(), &values()).unwrap();
    }

    #[test]
    fn normalization() {
        assert_eq!(Congruence::class(-4, 7), Congruence::class(4, 3));
        assert_eq!(Congruence::class(3, -1), Congruence::class(3, 2));
        assert_eq!(Congruence::class(0, -5), Congruence::from_const(-5));
    }

    #[test]
    fn join_computes_gcd_class() {
        // {4} ∨ {10} = 6ℤ+4 (both ≡ 4 mod 6).
        let j = Congruence::from_const(4).join(&Congruence::from_const(10));
        assert_eq!(j, Congruence::class(6, 4));
        // even ∨ odd = ⊤
        let j2 = Congruence::class(2, 0).join(&Congruence::class(2, 1));
        assert_eq!(j2, Congruence::top());
    }

    #[test]
    fn meet_is_crt() {
        // x ≡ 1 (mod 2) ∧ x ≡ 2 (mod 3) = x ≡ 5 (mod 6).
        let m = Congruence::class(2, 1).meet(&Congruence::class(3, 2));
        assert_eq!(m, Congruence::class(6, 5));
        // Incompatible: x ≡ 0 (mod 2) ∧ x ≡ 1 (mod 2) = ⊥.
        let m2 = Congruence::class(2, 0).meet(&Congruence::class(2, 1));
        assert_eq!(m2, Congruence::Bot);
        // Constant against class.
        let m3 = Congruence::from_const(7).meet(&Congruence::class(2, 1));
        assert_eq!(m3, Congruence::from_const(7));
        let m4 = Congruence::from_const(6).meet(&Congruence::class(2, 1));
        assert_eq!(m4, Congruence::Bot);
    }

    #[test]
    fn display() {
        assert_eq!(Congruence::class(2, 1).to_string(), "2ℤ+1");
        assert_eq!(Congruence::from_const(3).to_string(), "3");
        assert_eq!(Congruence::top().to_string(), "⊤");
    }
}
