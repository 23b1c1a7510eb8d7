//! Enumerated abstract domains and pointed refinements `A ⊞ N`.
//!
//! An [`EnumDomain`] is an upper closure operator on `℘(Σ)` for a finite
//! universe `Σ`, given by a *base* closure (usually `γ∘α` of a symbolic
//! domain from `air-domains`, enumerated and memoized) together with a
//! finite list of *added points* `N ⊆ ℘(Σ)`. Following Section 3.1 of the
//! paper, the refined closure is
//!
//! ```text
//! A_N(c) = ⋀{ x ∈ N ∪ {A(c)} | c ≤ x } = A(c) ∩ ⋂{ p ∈ N | c ⊆ p }
//! ```
//!
//! so the Moore closure of `γ(A) ∪ N` never needs to be materialized.
//!
//! Domains are `Send + Sync`: the base-closure memo table is a sharded
//! [`MemoTable`] whose values are hash-consed through an [`Interner`]
//! (closures map many inputs to few fixpoints, so distinct cache entries
//! share one allocation), and clones share both — which is how a single
//! abstraction cache serves every worker of a parallel corpus sweep.

use std::any::TypeId;
use std::fmt;
use std::sync::Arc;

use air_domains::{Abstraction, IntervalEnv};
use air_lang::{StateSet, Universe};
use air_lattice::{CacheStats, Interner, MemoTable};
use air_trace::Tracer;

use crate::algebra::{ImageMemo, PointedDomain};

/// A unary operator on state sets (the base closure).
type SetOp = Box<dyn Fn(&StateSet) -> StateSet + Send + Sync>;
/// A binary operator on state sets (the base widening).
type SetOp2 = Box<dyn Fn(&StateSet, &StateSet) -> StateSet + Send + Sync>;

/// A closure function on state sets plus an optional base widening.
struct Base {
    name: String,
    /// The base is `Int` ([`IntervalEnv`]).
    interval: bool,
    close: SetOp,
    /// `γ(α(x) ∇_A α(y))` of the base domain, used by the pointed widening
    /// of Definition 7.11; `None` falls back to the closed union.
    widen: Option<SetOp2>,
}

/// An abstract domain over a finite universe, with pointed refinements.
///
/// Cloning is cheap: the base closure and its memo table are shared, only
/// the list of added points is copied.
///
/// # Example
///
/// ```
/// use air_core::EnumDomain;
/// use air_domains::IntervalEnv;
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -8, 8)])?;
/// let mut dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
/// let odd = u.filter(|s| s[0] % 2 != 0);
/// assert!(!dom.is_expressible(&odd)); // Int(odd) = [-7, 7]
///
/// // The paper's repair adds Z≠0; afterwards odd is still inexpressible
/// // but the nonzero hull is.
/// let nonzero = u.filter(|s| s[0] != 0);
/// dom.add_point(nonzero.clone());
/// assert!(dom.is_expressible(&nonzero));
/// assert_eq!(dom.close(&odd), u.filter(|s| s[0] != 0 && s[0].abs() <= 7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct EnumDomain {
    universe: Universe,
    base: Arc<Base>,
    /// Memoized base closure `c ↦ A(c)`; values hash-consed via `interner`.
    memo: MemoTable<StateSet, Arc<StateSet>>,
    interner: Interner<StateSet>,
    points: Vec<StateSet>,
    /// Memoized whole-term abstract images `⟦r⟧♯_{A⊞N}(a)` for *this*
    /// point list, an [`ImageMemo`]. Shared by clones (same `N` ⇒
    /// same images); replaced wholesale the moment the point list grows,
    /// since every image depends on `N`.
    absmemo: ImageMemo<StateSet>,
}

impl fmt::Debug for EnumDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnumDomain")
            .field("base", &self.base.name)
            .field("points", &self.points.len())
            .finish()
    }
}

impl fmt::Display for EnumDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⊞ {} points", self.base.name, self.points.len())
    }
}

impl EnumDomain {
    /// Wraps a symbolic abstraction (any [`Abstraction`] from
    /// `air-domains`) as an enumerated closure over `universe`.
    pub fn from_abstraction<A: Abstraction + Send + Sync + 'static>(
        universe: &Universe,
        abs: A,
    ) -> EnumDomain {
        let u1 = universe.clone();
        let u2 = universe.clone();
        let abs = Arc::new(abs);
        let abs2 = Arc::clone(&abs);
        let name = abs.name().to_owned();
        EnumDomain {
            universe: universe.clone(),
            base: Arc::new(Base {
                name,
                interval: TypeId::of::<A>() == TypeId::of::<IntervalEnv>(),
                close: Box::new(move |c| abs.closure_set(&u1, c)),
                widen: Some(Box::new(move |x, y| {
                    let ax = abs2.alpha_set(&u2, x);
                    let ay = abs2.alpha_set(&u2, y);
                    abs2.gamma_set(&u2, &abs2.widen(&ax, &ay))
                })),
            }),
            memo: MemoTable::new(),
            interner: Interner::new(),
            points: Vec::new(),
            absmemo: MemoTable::new(),
        }
    }

    /// Builds a domain from an explicit finite family of abstract elements
    /// (meets are taken lazily; `Σ` itself is always a member). Used for
    /// the paper's toy domains, e.g. `A = {ℤ, [0,4], [1,3]}` of
    /// Example 4.6.
    pub fn from_family<I>(universe: &Universe, name: &str, members: I) -> EnumDomain
    where
        I: IntoIterator<Item = StateSet>,
    {
        let members: Vec<StateSet> = members.into_iter().collect();
        let full = universe.full();
        let name = name.to_owned();
        EnumDomain {
            universe: universe.clone(),
            base: Arc::new(Base {
                name,
                interval: false,
                close: Box::new(move |c| {
                    let mut acc = full.clone();
                    for m in &members {
                        if c.is_subset(m) {
                            acc.intersect_with(m);
                        }
                    }
                    acc
                }),
                widen: None,
            }),
            memo: MemoTable::new(),
            interner: Interner::new(),
            points: Vec::new(),
            absmemo: MemoTable::new(),
        }
    }

    /// The trivial domain `{Σ}` (the "don't know" abstraction).
    pub fn trivial(universe: &Universe) -> EnumDomain {
        EnumDomain::from_family(universe, "Triv", [])
    }

    /// The underlying universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The base domain's name.
    pub fn base_name(&self) -> &str {
        &self.base.name
    }

    /// Whether the base is `Int`, an [`IntervalEnv`] closure.
    pub fn is_interval(&self) -> bool {
        self.base.interval
    }

    /// The added points `N`, in insertion order.
    pub fn points(&self) -> &[StateSet] {
        &self.points
    }

    /// Number of added points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The base closure `A(c)` (without added points), memoized in a
    /// thread-safe table shared by all clones; results are hash-consed so
    /// the many inputs collapsing to one fixpoint share storage.
    pub fn base_close(&self, c: &StateSet) -> StateSet {
        let mut computed = false;
        let shared = self.memo.get_or_insert_with(c, || {
            computed = true;
            self.interner.intern((self.base.close)(c))
        });
        // Closures are idempotent: `A(A(c)) = A(c)`. Seed the fixpoint as
        // its own key on every fresh computation, so closing an
        // already-closed set — the common case once callers pass
        // `close`d inputs around — hits on first sight instead of
        // keying the table on the pre-image alone.
        if computed && *shared != *c {
            self.memo.insert((*shared).clone(), Arc::clone(&shared));
        }
        (*shared).clone()
    }

    /// Hit/miss/entry counters of the base-closure memo table.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Empties the shared base-closure memo and the hash-consing pool in
    /// place — clones sharing them (e.g. the warm prototype a serve
    /// daemon keeps per universe) all observe the reset. Closure results
    /// are recomputed on the next request; verdicts are unaffected
    /// (memoization only decides *whether* work is redone).
    pub fn clear_caches(&self) {
        self.memo.clear();
        self.interner.clear();
        self.absmemo.clear();
    }

    /// Hit/miss/entry counters of the closure-result hash-consing pool (a
    /// hit means a structurally equal closure result already existed).
    pub fn interner_stats(&self) -> CacheStats {
        self.interner.stats()
    }

    /// Emits `cache_hit`/`cache_miss` events (table `"closure"`) for the
    /// base-closure memo through `tracer`. Shared by all clones of this
    /// domain; the first enabled tracer wins.
    pub fn set_tracer(&self, tracer: &Tracer) {
        self.memo.set_tracer("closure", tracer);
    }

    /// A clone sharing the base closure and points but starting from empty
    /// memo and interner tables — the reference domain for differential
    /// tests (a memo entry gone stale would make the two clones diverge).
    pub fn clone_fresh_caches(&self) -> EnumDomain {
        EnumDomain {
            universe: self.universe.clone(),
            base: Arc::clone(&self.base),
            memo: MemoTable::new(),
            interner: Interner::new(),
            points: self.points.clone(),
            absmemo: MemoTable::new(),
        }
    }

    /// The refined closure `A_N(c) = A(c) ∩ ⋂{p ∈ N | c ⊆ p}`.
    pub fn close(&self, c: &StateSet) -> StateSet {
        let mut acc = self.base_close(c);
        for p in &self.points {
            if c.is_subset(p) {
                acc.intersect_with(p);
            }
        }
        acc
    }

    /// Returns `true` if `c` is expressible: `A_N(c) = c`.
    pub fn is_expressible(&self, c: &StateSet) -> bool {
        self.close(c) == *c
    }

    /// Adds a point (the pointed refinement `A ⊞ {p}`). Returns `false` if
    /// `p` was already expressible (no-op).
    pub fn add_point(&mut self, p: StateSet) -> bool {
        if self.is_expressible(&p) {
            return false;
        }
        self.points.push(p);
        // Every memoized abstract image was computed in the old `N`;
        // detach from the shared table rather than poison the siblings.
        self.absmemo = MemoTable::new();
        true
    }

    /// Adds every point in `ps`; returns how many actually refined the
    /// domain.
    pub fn add_points<I: IntoIterator<Item = StateSet>>(&mut self, ps: I) -> usize {
        ps.into_iter().filter(|p| self.add_point(p.clone())).count()
    }

    /// A fresh domain with one more point (`self` unchanged).
    pub fn with_point(&self, p: StateSet) -> EnumDomain {
        let mut d = self.clone();
        d.add_point(p);
        d
    }

    /// A fresh domain with the given extra points.
    pub fn with_points<I: IntoIterator<Item = StateSet>>(&self, ps: I) -> EnumDomain {
        let mut d = self.clone();
        d.add_points(ps);
        d
    }

    /// Abstract join `x ∨_{A_N} y = A_N(x ∪ y)` of expressible elements.
    pub fn join(&self, x: &StateSet, y: &StateSet) -> StateSet {
        self.close(&x.union(y))
    }

    /// The base widening `γ(α(x) ∇ α(y))` if the base domain provides one,
    /// else the closed union.
    pub fn base_widen(&self, x: &StateSet, y: &StateSet) -> StateSet {
        match &self.base.widen {
            Some(w) => w(x, y),
            None => self.join(x, y),
        }
    }

    /// The pointed widening `∇_N` of Definition 7.11:
    /// `x ∇_N y = ⋀{z ∈ N ∪ {A(x) ∇_A A(y)} | x, y ≤ z}`.
    pub fn pointed_widen(&self, x: &StateSet, y: &StateSet) -> StateSet {
        let mut acc = self.base_widen(x, y);
        for p in &self.points {
            if x.is_subset(p) && y.is_subset(p) {
                acc.intersect_with(p);
            }
        }
        acc
    }

    /// Counts the members of the full Moore closure `M(γ(A) ∪ N)`
    /// *restricted to closures of subsets actually distinguishable*, by
    /// enumerating `A_N(c)` over the given probe sets. Used by the
    /// shell-growth experiment; exact domain cardinality is exponential.
    pub fn distinct_closures<'a, I>(&self, probes: I) -> usize
    where
        I: IntoIterator<Item = &'a StateSet>,
    {
        let mut seen = std::collections::HashSet::new();
        for c in probes {
            seen.insert(self.close(c));
        }
        seen.len()
    }
}

impl PointedDomain for EnumDomain {
    type Set = StateSet;

    fn close(&self, c: &StateSet) -> StateSet {
        EnumDomain::close(self, c)
    }

    fn join(&self, x: &StateSet, y: &StateSet) -> StateSet {
        EnumDomain::join(self, x, y)
    }

    fn pointed_widen(&self, x: &StateSet, y: &StateSet) -> StateSet {
        EnumDomain::pointed_widen(self, x, y)
    }

    fn with_points<I: IntoIterator<Item = StateSet>>(&self, ps: I) -> Self {
        EnumDomain::with_points(self, ps)
    }

    fn points(&self) -> &[StateSet] {
        EnumDomain::points(self)
    }

    fn image_memo(&self) -> Option<&ImageMemo<StateSet>> {
        Some(&self.absmemo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_domains::{IntervalEnv, SignEnv};

    fn universe() -> Universe {
        Universe::new(&[("x", -8, 8)]).unwrap()
    }

    #[test]
    fn base_closure_matches_symbolic_domain() {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let s = u.of_values([-2, 5]);
        assert_eq!(dom.close(&s), u.filter(|st| (-2..=5).contains(&st[0])));
        assert!(dom.is_expressible(&u.filter(|st| st[0] >= 0)));
        assert!(!dom.is_expressible(&s));
        assert_eq!(dom.base_name(), "Int");
    }

    #[test]
    fn closure_laws_hold_with_points() {
        let u = universe();
        let mut dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        dom.add_point(u.filter(|s| s[0] != 0));
        dom.add_point(u.of_values([1, 3, 5]));
        let probes = [
            u.empty(),
            u.full(),
            u.of_values([1, 3]),
            u.of_values([0]),
            u.filter(|s| s[0] > 2),
        ];
        for c in &probes {
            let cc = dom.close(c);
            assert!(c.is_subset(&cc), "extensive");
            assert_eq!(dom.close(&cc), cc, "idempotent");
            for d in &probes {
                if c.is_subset(d) {
                    assert!(dom.close(c).is_subset(&dom.close(d)), "monotone");
                }
            }
        }
    }

    #[test]
    fn pointed_refinement_formula() {
        // A_z(c) = z ∧ A(c) if c ≤ z, else A(c)  (Section 3.1).
        let u = universe();
        let base = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let z = u.filter(|s| s[0] != 0);
        let dom = base.with_point(z.clone());
        let c_under = u.of_values([-3, 3]); // ⊆ z
        assert_eq!(dom.close(&c_under), base.close(&c_under).intersection(&z));
        let c_not_under = u.of_values([0, 3]); // ⊄ z
        assert_eq!(dom.close(&c_not_under), base.close(&c_not_under));
    }

    #[test]
    fn add_point_skips_expressible() {
        let u = universe();
        let mut dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        assert!(!dom.add_point(u.filter(|s| s[0] <= 3))); // an interval already
        assert_eq!(dom.num_points(), 0);
        assert!(dom.add_point(u.of_values([1, 5])));
        assert!(!dom.add_point(u.of_values([1, 5])));
        assert_eq!(dom.num_points(), 1);
    }

    #[test]
    fn from_family_toy_domain_of_example_4_6() {
        // A = {Z, [0,4], [1,3]} over x ∈ [-8, 8].
        let u = universe();
        let dom = EnumDomain::from_family(
            &u,
            "Toy",
            [
                u.filter(|s| (0..=4).contains(&s[0])),
                u.filter(|s| (1..=3).contains(&s[0])),
            ],
        );
        // A({0,2}) = [0,4]
        assert_eq!(
            dom.close(&u.of_values([0, 2])),
            u.filter(|s| (0..=4).contains(&s[0]))
        );
        // A({2}) = [1,3]
        assert_eq!(
            dom.close(&u.of_values([2])),
            u.filter(|s| (1..=3).contains(&s[0]))
        );
        // A({5}) = Z
        assert_eq!(dom.close(&u.of_values([5])), u.full());
    }

    #[test]
    fn trivial_domain_maps_to_top() {
        let u = universe();
        let dom = EnumDomain::trivial(&u);
        assert_eq!(dom.close(&u.of_values([3])), u.full());
        assert_eq!(dom.close(&u.empty()), u.full()); // {Σ} has no ⊥
    }

    #[test]
    fn join_closes_union() {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let a = u.of_values([1]);
        let b = u.of_values([4]);
        assert_eq!(dom.join(&a, &b), u.filter(|s| (1..=4).contains(&s[0])));
    }

    #[test]
    fn pointed_widening_respects_points() {
        let u = universe();
        let nonneg = u.filter(|s| s[0] >= 0);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u)).with_point(nonneg.clone());
        let x = u.filter(|s| (0..=1).contains(&s[0]));
        let y = u.filter(|s| (0..=2).contains(&s[0]));
        let w = dom.pointed_widen(&x, &y);
        // Interval widening pushes the bound to the hull top, but the added
        // point ≥0 (above both iterates) caps the result.
        assert!(x.is_subset(&w) && y.is_subset(&w));
        assert!(w.is_subset(&nonneg));
    }

    #[test]
    fn clone_shares_memo_but_not_points() {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, SignEnv::new(&u));
        let mut d2 = dom.clone();
        d2.add_point(u.of_values([2, 4]));
        assert_eq!(dom.num_points(), 0);
        assert_eq!(d2.num_points(), 1);
        assert_eq!(
            dom.base_close(&u.of_values([2])),
            d2.base_close(&u.of_values([2]))
        );
    }

    #[test]
    fn enum_domain_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnumDomain>();
    }

    #[test]
    fn base_close_memo_counts_and_interns() {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, SignEnv::new(&u));
        // Two distinct inputs with the same Sign closure (>0).
        let closed = dom.base_close(&u.of_values([1]));
        dom.base_close(&u.of_values([2]));
        dom.base_close(&u.of_values([1])); // memo hit
        let memo = dom.cache_stats();
        // Three entries: the two pre-images plus their (shared) closure
        // result, seeded as its own key by idempotence.
        assert_eq!((memo.hits, memo.misses, memo.entries), (1, 2, 3));
        // The two entries collapse to one interned closure result.
        let pool = dom.interner_stats();
        assert_eq!((pool.hits, pool.entries), (1, 1));
        // Closing an already-closed set hits on first sight.
        dom.base_close(&closed);
        assert_eq!(dom.cache_stats().hits, 2);
    }

    #[test]
    fn distinct_closures_counts() {
        let u = universe();
        let dom = EnumDomain::from_abstraction(&u, SignEnv::new(&u));
        let probes = [u.of_values([1]), u.of_values([2]), u.of_values([-1])];
        assert_eq!(dom.distinct_closures(probes.iter()), 2); // >0 twice, <0 once
    }
}
