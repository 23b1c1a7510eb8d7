//! Reduced products of abstract domains.
//!
//! The (direct) product of two abstractions tracks both components; the
//! *reduced* product additionally propagates information between them
//! (Granger's mutual reduction), e.g. `Int × Parity` tightens interval
//! endpoints to the parity and collapses singleton intervals into constant
//! parities. Reduction is what makes the induced closure `γ∘α` idempotent
//! on the product, so reduced products can serve as base domains of the
//! enumerative repair engine.

use crate::env::{EnvDomain, EnvElem};
use crate::interval::Interval;
use crate::traits::Abstraction;
use crate::value::AbstractValue;

/// A mutual-reduction operator between two domains' elements.
pub trait Reduce<A: Abstraction, B: Abstraction> {
    /// Refines the pair without changing `γ(a) ∩ γ(b)`.
    fn reduce(&self, da: &A, db: &B, a: A::Elem, b: B::Elem) -> (A::Elem, B::Elem);
}

/// The trivial reduction (direct product).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoReduce;

impl<A: Abstraction, B: Abstraction> Reduce<A, B> for NoReduce {
    fn reduce(&self, _da: &A, _db: &B, a: A::Elem, b: B::Elem) -> (A::Elem, B::Elem) {
        (a, b)
    }
}

/// The product domain `A × B` with a pluggable reduction.
///
/// # Example
///
/// ```
/// use air_domains::product::{IntervalValueReduce, Product};
/// use air_domains::{Abstraction, IntervalEnv, ParityEnv};
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u));
/// // α({1, 5}) = ([1,5], odd): the reduced product keeps the parity and
/// // excludes the even values the plain interval would admit.
/// let a = dom.alpha_set(&u, &u.of_values([1, 5]));
/// assert!(dom.gamma_contains(&a, &[3]));
/// assert!(!dom.gamma_contains(&a, &[4]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Product<A, B, R = NoReduce> {
    left: A,
    right: B,
    reduce: R,
    name: String,
}

impl<A: Abstraction, B: Abstraction> Product<A, B, NoReduce> {
    /// The direct product (no reduction).
    pub fn direct(left: A, right: B) -> Self {
        let name = format!("{}×{}", left.name(), right.name());
        Product {
            left,
            right,
            reduce: NoReduce,
            name,
        }
    }
}

impl<V: AbstractValue> Product<EnvDomain<Interval>, EnvDomain<V>, IntervalValueReduce> {
    /// The reduced product of intervals with any value domain, using
    /// endpoint tightening (Granger-style).
    pub fn reduced_interval(left: EnvDomain<Interval>, right: EnvDomain<V>) -> Self {
        let name = format!("{}⊗{}", left.name(), right.name());
        Product {
            left,
            right,
            reduce: IntervalValueReduce,
            name,
        }
    }
}

impl<A, B, R> Product<A, B, R>
where
    A: Abstraction,
    B: Abstraction,
    R: Reduce<A, B>,
{
    /// Applies the reduction and normalizes bottoms.
    fn normalize(&self, a: A::Elem, b: B::Elem) -> (A::Elem, B::Elem) {
        if self.left.is_bottom(&a) || self.right.is_bottom(&b) {
            return (self.left.bottom(), self.right.bottom());
        }
        let (a, b) = self.reduce.reduce(&self.left, &self.right, a, b);
        if self.left.is_bottom(&a) || self.right.is_bottom(&b) {
            (self.left.bottom(), self.right.bottom())
        } else {
            (a, b)
        }
    }

    /// The left component domain.
    pub fn left(&self) -> &A {
        &self.left
    }

    /// The right component domain.
    pub fn right(&self) -> &B {
        &self.right
    }
}

impl<A, B, R> Abstraction for Product<A, B, R>
where
    A: Abstraction,
    B: Abstraction,
    R: Reduce<A, B>,
{
    type Elem = (A::Elem, B::Elem);

    fn name(&self) -> &str {
        &self.name
    }

    fn bottom(&self) -> Self::Elem {
        (self.left.bottom(), self.right.bottom())
    }

    fn is_bottom(&self, e: &Self::Elem) -> bool {
        self.left.is_bottom(&e.0) || self.right.is_bottom(&e.1)
    }

    fn leq(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        if self.is_bottom(a) {
            return true;
        }
        self.left.leq(&a.0, &b.0) && self.right.leq(&a.1, &b.1)
    }

    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        if self.is_bottom(a) {
            return b.clone();
        }
        if self.is_bottom(b) {
            return a.clone();
        }
        self.normalize(self.left.join(&a.0, &b.0), self.right.join(&a.1, &b.1))
    }

    fn widen(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        // No reduction after widening (it could undo the extrapolation).
        (self.left.widen(&a.0, &b.0), self.right.widen(&a.1, &b.1))
    }

    fn alpha_store(&self, store: &[i64]) -> Self::Elem {
        self.normalize(self.left.alpha_store(store), self.right.alpha_store(store))
    }

    fn gamma_contains(&self, e: &Self::Elem, store: &[i64]) -> bool {
        self.left.gamma_contains(&e.0, store) && self.right.gamma_contains(&e.1, store)
    }
}

/// Granger reduction between per-variable intervals and any value domain:
/// interval endpoints are tightened until they belong to the companion
/// value, and singleton intervals constrain the companion to a constant.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntervalValueReduce;

/// How far an endpoint is scanned during tightening; beyond this the
/// (sound) untightened bound is kept.
const TIGHTEN_FUEL: i64 = 256;

fn reduce_value<V: AbstractValue>(iv: Interval, v: V) -> (Interval, V) {
    if iv.is_bottom() || v.is_bottom() {
        return (Interval::bottom(), V::bottom());
    }
    let mut iv = iv;
    // Tighten finite endpoints into γ(v).
    loop {
        match iv {
            Interval::Range(crate::interval::IntervalBound::Fin(lo), hi) if !v.contains(lo) => {
                let stop = match hi {
                    crate::interval::IntervalBound::Fin(h) => h,
                    _ => lo.saturating_add(TIGHTEN_FUEL),
                };
                if lo >= stop || stop - lo > TIGHTEN_FUEL {
                    break;
                }
                iv = Interval::from_bounds(crate::interval::IntervalBound::Fin(lo + 1), hi);
                if iv.is_bottom() {
                    return (Interval::bottom(), V::bottom());
                }
            }
            _ => break,
        }
    }
    loop {
        match iv {
            Interval::Range(lo, crate::interval::IntervalBound::Fin(hi)) if !v.contains(hi) => {
                let stop = match lo {
                    crate::interval::IntervalBound::Fin(l) => l,
                    _ => hi.saturating_sub(TIGHTEN_FUEL),
                };
                if hi <= stop || hi - stop > TIGHTEN_FUEL {
                    break;
                }
                iv = Interval::from_bounds(lo, crate::interval::IntervalBound::Fin(hi - 1));
                if iv.is_bottom() {
                    return (Interval::bottom(), V::bottom());
                }
            }
            _ => break,
        }
    }
    // A singleton interval pins the companion value.
    let v = match iv.as_const() {
        Some(c) => v.meet(&V::from_const(c)),
        None => v,
    };
    if v.is_bottom() {
        (Interval::bottom(), V::bottom())
    } else {
        (iv, v)
    }
}

impl<V: AbstractValue> Reduce<EnvDomain<Interval>, EnvDomain<V>> for IntervalValueReduce {
    fn reduce(
        &self,
        _da: &EnvDomain<Interval>,
        _db: &EnvDomain<V>,
        a: EnvElem<Interval>,
        b: EnvElem<V>,
    ) -> (EnvElem<Interval>, EnvElem<V>) {
        let (EnvElem::Vals(ivs), EnvElem::Vals(vs)) = (&a, &b) else {
            return (EnvElem::Bot, EnvElem::Bot);
        };
        let mut out_iv = Vec::with_capacity(ivs.len());
        let mut out_v = Vec::with_capacity(vs.len());
        for (iv, v) in ivs.iter().zip(vs) {
            let (iv2, v2) = reduce_value(*iv, v.clone());
            if iv2.is_bottom() || v2.is_bottom() {
                return (EnvElem::Bot, EnvElem::Bot);
            }
            out_iv.push(iv2);
            out_v.push(v2);
        }
        (EnvElem::Vals(out_iv), EnvElem::Vals(out_v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congruence::Congruence;
    use crate::env::{CongruenceEnv, IntervalEnv, ParityEnv, SignEnv};
    use crate::parity::Parity;
    use crate::traits::laws;
    use air_lang::Universe;

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8)]).unwrap()
    }

    fn sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.of_values([1, 5]),
            u.of_values([0, 2, 4]),
            u.of_values([-3]),
            u.filter(|s| s[0] > 0),
            u.of_values([-6, -2, 2, 6]),
        ]
    }

    #[test]
    fn reduced_int_parity_laws() {
        let u = universe();
        let dom = Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u));
        laws::check_closure_laws(&dom, &u, &sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &sets(&u)).unwrap();
    }

    #[test]
    fn reduced_int_congruence_laws() {
        let u = universe();
        let dom = Product::reduced_interval(IntervalEnv::new(&u), CongruenceEnv::new(&u));
        laws::check_closure_laws(&dom, &u, &sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &sets(&u)).unwrap();
    }

    #[test]
    fn direct_product_is_coarser_than_reduced() {
        let u = universe();
        let direct = Product::direct(IntervalEnv::new(&u), ParityEnv::new(&u));
        let reduced = Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u));
        let s = u.of_values([1, 5]);
        let gd = direct.gamma_set(&u, &direct.alpha_set(&u, &s));
        let gr = reduced.gamma_set(&u, &reduced.alpha_set(&u, &s));
        assert!(gr.is_subset(&gd));
        assert_eq!(gr, u.of_values([1, 3, 5]));
    }

    #[test]
    fn reduction_tightens_endpoints() {
        let (iv, p) = reduce_value(Interval::of(0, 6), Parity::ODD);
        assert_eq!(iv, Interval::of(1, 5));
        assert_eq!(p, Parity::ODD);
        // Singleton pins the companion.
        let (iv2, p2) = reduce_value(Interval::of(4, 4), Parity::TOP);
        assert_eq!(iv2, Interval::of(4, 4));
        assert_eq!(p2, Parity::EVEN);
        // Contradiction collapses to bottom.
        let (iv3, p3) = reduce_value(Interval::of(4, 4), Parity::ODD);
        assert!(iv3.is_bottom() && p3.is_bottom());
    }

    #[test]
    fn reduction_with_congruence() {
        let (iv, c) = reduce_value(Interval::of(1, 10), Congruence::class(4, 3));
        assert_eq!(iv, Interval::of(3, 7)); // 3 and 7 are ≡ 3 (mod 4)
        assert_eq!(c, Congruence::class(4, 3));
    }

    #[test]
    fn product_with_sign_prunes_absval_alarm() {
        // Int⊗Sign expresses "nonzero" as the sign component ≠0 — the
        // paper's AbsVal repair point exists natively in this product.
        let u = universe();
        let dom = Product::reduced_interval(IntervalEnv::new(&u), SignEnv::new(&u));
        let odd = u.filter(|s| s[0] % 2 != 0);
        let a = dom.alpha_set(&u, &odd);
        assert!(!dom.gamma_contains(&a, &[0]));
    }

    #[test]
    fn names_reflect_structure() {
        let u = universe();
        let direct = Product::direct(IntervalEnv::new(&u), ParityEnv::new(&u));
        assert_eq!(direct.name(), "Int×Par");
        let reduced = Product::reduced_interval(IntervalEnv::new(&u), ParityEnv::new(&u));
        assert_eq!(reduced.name(), "Int⊗Par");
    }
}
