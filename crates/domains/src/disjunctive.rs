//! Bounded disjunctive completion.
//!
//! The disjunctive completion of a base domain tracks finite *sets* of
//! base elements (disjuncts), recovering precision that convex domains
//! lose at joins — e.g. the paper's `V̄` element `(i ∈ [1,5]) ∨ (i = 6 ∧
//! j ≤ 15)` lives in the disjunctive completion of intervals. To stay
//! finite-height the width is bounded: joins that would exceed the bound
//! collapse the two closest disjuncts (by joined-γ growth on a sample, or
//! simply the base join of the first pair).

use air_lang::{StateSet, Universe};

use crate::traits::{alpha_fold, Abstraction};

/// The bounded disjunctive completion `℘≤k(A)` of a base domain.
///
/// # Example
///
/// ```
/// use air_domains::disjunctive::Disjunctive;
/// use air_domains::{Abstraction, IntervalEnv};
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let dom = Disjunctive::new(IntervalEnv::new(&u), 4);
/// // {−3, 3} keeps the hole at 0 that plain intervals lose.
/// let a = dom.alpha_set(&u, &u.of_values([-3, 3]));
/// assert!(!dom.gamma_contains(&a, &[0]));
/// assert!(dom.gamma_contains(&a, &[3]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Disjunctive<A> {
    base: A,
    width: usize,
    name: String,
}

impl<A: Abstraction> Disjunctive<A> {
    /// Wraps `base` with a maximum of `width` disjuncts.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(base: A, width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        let name = format!("∨{}({})", width, base.name());
        Disjunctive { base, width, name }
    }

    /// The base domain.
    pub fn base(&self) -> &A {
        &self.base
    }

    /// The width bound.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Removes disjuncts subsumed by others and collapses down to the
    /// width bound.
    fn normalize(&self, mut ds: Vec<A::Elem>) -> Vec<A::Elem> {
        ds.retain(|d| !self.base.is_bottom(d));
        // Drop subsumed disjuncts.
        let mut kept: Vec<A::Elem> = Vec::with_capacity(ds.len());
        for d in ds {
            if kept.iter().any(|k| self.base.leq(&d, k)) {
                continue;
            }
            kept.retain(|k| !self.base.leq(k, &d));
            kept.push(d);
        }
        // Enforce the width bound by folding the tail into the last slot.
        while kept.len() > self.width {
            // len > width ≥ 1 guarantees both pops; break defensively
            // rather than panic if the invariant is ever violated.
            let (Some(last), Some(prev)) = (kept.pop(), kept.pop()) else {
                break;
            };
            let merged = self.base.join(&prev, &last);
            // Re-insert with subsumption (the merge may swallow others).
            kept.retain(|k| !self.base.leq(k, &merged));
            kept.push(merged);
        }
        kept
    }
}

impl<A: Abstraction> Abstraction for Disjunctive<A> {
    /// The disjuncts; empty means `⊥`.
    type Elem = Vec<A::Elem>;

    fn name(&self) -> &str {
        &self.name
    }

    fn bottom(&self) -> Self::Elem {
        Vec::new()
    }

    fn is_bottom(&self, e: &Self::Elem) -> bool {
        e.is_empty()
    }

    /// Sufficient (not complete) inclusion: every disjunct of `a` is below
    /// some disjunct of `b`. A `false` answer may still denote inclusion
    /// of concretizations; this only costs extra fixpoint iterations.
    fn leq(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        a.iter().all(|da| b.iter().any(|db| self.base.leq(da, db)))
    }

    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        let mut ds = a.clone();
        ds.extend(b.iter().cloned());
        self.normalize(ds)
    }

    fn widen(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        // Pair disjuncts of `b` with the first covering-or-joinable
        // disjunct of `a` and widen pointwise; leftovers join in. Collapse
        // to a single base widening when the structure keeps changing.
        if a.len() == b.len() {
            let widened: Vec<A::Elem> = a
                .iter()
                .zip(b)
                .map(|(x, y)| self.base.widen(x, &self.base.join(x, y)))
                .collect();
            return self.normalize(widened);
        }
        let fold = |ds: &Self::Elem| {
            ds.iter()
                .fold(self.base.bottom(), |acc, d| self.base.join(&acc, d))
        };
        vec![self.base.widen(&fold(a), &fold(b))]
    }

    fn alpha_store(&self, store: &[i64]) -> Self::Elem {
        vec![self.base.alpha_store(store)]
    }

    /// The plain fold. The width-bounded join is not the least upper
    /// bound, so the covered-store skip's Galois argument does not apply
    /// as stated; this domain does not rely on it.
    fn alpha_set(&self, universe: &Universe, set: &StateSet) -> Self::Elem {
        alpha_fold(self, universe, set)
    }

    fn gamma_contains(&self, e: &Self::Elem, store: &[i64]) -> bool {
        e.iter().any(|d| self.base.gamma_contains(d, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::IntervalEnv;
    use crate::traits::laws;
    use air_lang::Universe;

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8)]).unwrap()
    }

    fn sets(u: &Universe) -> Vec<air_lang::StateSet> {
        vec![
            u.empty(),
            u.full(),
            u.of_values([-3, 3]),
            u.of_values([1, 2, 7]),
            u.filter(|s| s[0] != 0),
            u.of_values([0]),
        ]
    }

    #[test]
    fn closure_laws_hold() {
        let u = universe();
        let dom = Disjunctive::new(IntervalEnv::new(&u), 8);
        laws::check_closure_laws(&dom, &u, &sets(&u)).unwrap();
        laws::check_insertion(&dom, &u, &sets(&u)).unwrap();
    }

    #[test]
    fn keeps_holes_that_intervals_lose() {
        let u = universe();
        let dom = Disjunctive::new(IntervalEnv::new(&u), 4);
        let a = dom.alpha_set(&u, &u.of_values([-3, 3]));
        assert_eq!(a.len(), 2);
        assert!(!dom.gamma_contains(&a, &[0]));
        // The plain interval hull would contain 0.
        let base = IntervalEnv::new(&u);
        let hull = base.alpha_set(&u, &u.of_values([-3, 3]));
        assert!(base.gamma_contains(&hull, &[0]));
    }

    #[test]
    fn width_bound_collapses() {
        let u = universe();
        let dom = Disjunctive::new(IntervalEnv::new(&u), 2);
        let a = dom.alpha_set(&u, &u.of_values([-6, -2, 2, 6]));
        assert!(a.len() <= 2);
        // Still sound: every value is covered.
        for v in [-6, -2, 2, 6] {
            assert!(dom.gamma_contains(&a, &[v]));
        }
    }

    #[test]
    fn subsumed_disjuncts_pruned() {
        let u = universe();
        let base = IntervalEnv::new(&u);
        let dom = Disjunctive::new(IntervalEnv::new(&u), 8);
        let wide = base.alpha_set(&u, &u.filter(|s| s[0] >= 0));
        let narrow = base.alpha_set(&u, &u.of_values([2, 3]));
        let joined = dom.join(&vec![wide.clone()], &vec![narrow]);
        assert_eq!(joined, vec![wide]);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let u = universe();
        Disjunctive::new(IntervalEnv::new(&u), 0);
    }
}
