//! The state-algebra seam: one Algorithm 2, two representations of sets.
//!
//! The paper states `bRepair`/`inv` (Algorithm 2) and `⟦·⟧♯_{A⊞N}` once,
//! over sets of states; neither depends on how the sets are stored.
//! [`StateAlgebra`] names what the two use: set operations
//! ([`StoreSet`]), the closure, join and pointed widening of `A ⊞ N`
//! ([`PointedDomain`]), the basic-command image, `wlp`, an abstract-image
//! memo hook, and the bitset bridge at the outcome boundary.
//! [`AbstractSemantics`](crate::AbstractSemantics) and
//! [`BackwardRepair`](crate::BackwardRepair) are generic over it (static
//! dispatch) and default to [`EnumAlgebra`];
//! [`SymAlgebra`](crate::SymAlgebra) runs the same code on decision
//! diagrams. Every intermediate set is equal under the bridge, so the two
//! algebras give byte-identical outcomes.

use air_lang::ast::{Exp, Reg};
use air_lang::{Concrete, SemCache, SemError, StateSet, TermId, TermNode, Universe, Wlp};
use air_trace::Tracer;

use crate::domain::EnumDomain;

/// The set operations the shared engines perform on stores.
pub trait StoreSet: Clone + Eq + std::hash::Hash {
    /// `self ∩ other`.
    fn intersection(&self, other: &Self) -> Self;
    /// `self ⊆ other`.
    fn is_subset(&self, other: &Self) -> bool;
    /// The number of stores (for trace events).
    fn size(&self) -> usize;
}

impl StoreSet for StateSet {
    fn intersection(&self, other: &Self) -> Self {
        StateSet::intersection(self, other)
    }

    fn is_subset(&self, other: &Self) -> bool {
        StateSet::is_subset(self, other)
    }

    fn size(&self) -> usize {
        self.len()
    }
}

/// A pointed refinement `A ⊞ N` (Section 3.1 of the paper).
pub trait PointedDomain: Clone {
    /// The store sets this domain closes.
    type Set: StoreSet;
    /// The refined closure `A_N(c) = A(c) ∩ ⋂{p ∈ N | c ⊆ p}`.
    fn close(&self, c: &Self::Set) -> Self::Set;
    /// The abstract join `x ∨_{A_N} y = A_N(x ∪ y)`.
    fn join(&self, x: &Self::Set, y: &Self::Set) -> Self::Set;
    /// The pointed widening `x ∇_N y` of Definition 7.11.
    fn pointed_widen(&self, x: &Self::Set, y: &Self::Set) -> Self::Set;
    /// A fresh domain with the given extra points; points already
    /// expressible are skipped (`self` unchanged).
    fn with_points<I: IntoIterator<Item = Self::Set>>(&self, ps: I) -> Self;
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
}

/// What Algorithm 2 and `⟦·⟧♯_{A⊞N}` need of a representation of states.
///
/// Programs travel through the shared engines as a [`Reg`] plus a
/// [`Term`](Self::Term) handle for the same node, whose meaning is the
/// algebra's own (an interned id its memo tables key on, or nothing).
/// The provided methods describe an algebra that memoizes nothing.
pub trait StateAlgebra: Clone + std::fmt::Debug {
    /// Sets of stores.
    type Set: StoreSet;
    /// Pointed refinements over those sets.
    type Domain: PointedDomain<Set = Self::Set>;
    /// A program-node handle. The default handle names no node: images
    /// under it are computed, never memoized.
    type Term: Copy + Default;

    /// Routes the algebra's own telemetry (cache events) through `tracer`.
    fn set_tracer(&self, _tracer: &Tracer) {}
    /// The handle of `r`'s root.
    fn term(&self, _r: &Reg) -> Self::Term {
        Self::Term::default()
    }
    /// The handles of the structural children of `t`'s node (a star's
    /// body comes first).
    fn children(&self, _t: Self::Term) -> (Self::Term, Self::Term) {
        Default::default()
    }
    /// The abstract image of `t`'s node on `a` in `dom`: `compute`, unless
    /// the algebra memoized it earlier.
    fn abs_image<F>(
        &self,
        _dom: &Self::Domain,
        _t: Self::Term,
        _a: &Self::Set,
        compute: F,
    ) -> Result<Self::Set, SemError>
    where
        F: FnOnce() -> Result<Self::Set, SemError>,
    {
        compute()
    }
    /// The concrete image `⟦e⟧a` of the basic command `e` (handle `t`).
    fn image(&self, t: Self::Term, e: &Exp, a: &Self::Set) -> Result<Self::Set, SemError>;
    /// The weakest liberal precondition `wlp(r, post)` (handle `t`).
    fn wlp(&self, t: Self::Term, r: &Reg, post: &Self::Set) -> Result<Self::Set, SemError>;
    /// The algebra one backward repair of `r` runs in, and the handle of
    /// `r`'s root. Called once per repair.
    fn for_repair(&self, r: &Reg) -> (Self, Self::Term) {
        (self.clone(), self.term(r))
    }
    /// Imports an explicit state set.
    fn lift(&self, s: &StateSet) -> Self::Set;
    /// Exports a set as an explicit state set.
    fn lower(&self, s: Self::Set) -> StateSet;
}

/// The enumerative algebra: [`StateSet`] bitsets, [`EnumDomain`] closures
/// and the concrete [`Concrete`]/[`Wlp`] transformers, memoized through a
/// [`SemCache`] when one is attached; uncached, it is the reference path.
///
/// Every cached/uncached/demoted decision is made here, so the shared
/// engines never branch on it. With a cache, programs are interned, term
/// handles are arena ids and each node's abstract image is memoized in
/// the domain's per-`N` image memo.
#[derive(Clone, Debug)]
pub struct EnumAlgebra<'u> {
    sem: Concrete<'u>,
    wlp: Wlp<'u>,
    cache: Option<SemCache>,
    /// Whether interned nodes go through the cache's exec/wlp tables:
    /// off at or under the cache's bypass threshold, so small universes
    /// never pay a per-call probe while the image memo (which wins from
    /// the first repeated subterm) stays on.
    tables: bool,
}

impl<'u> EnumAlgebra<'u> {
    /// The algebra memoizing into `cache`.
    pub fn with_cache(universe: &'u Universe, cache: SemCache) -> Self {
        EnumAlgebra {
            tables: !cache.is_bypassed(universe.size()),
            cache: Some(cache),
            ..Self::uncached(universe)
        }
    }

    /// The algebra without memoization (the reference path).
    pub fn uncached(universe: &'u Universe) -> Self {
        EnumAlgebra {
            sem: Concrete::new(universe),
            wlp: Wlp::new(universe),
            cache: None,
            tables: false,
        }
    }

    /// The semantic cache, if memoization is on.
    pub fn cache(&self) -> Option<&SemCache> {
        self.cache.as_ref()
    }

    /// The underlying concrete semantics.
    pub fn concrete(&self) -> &Concrete<'u> {
        &self.sem
    }
}

impl StateAlgebra for EnumAlgebra<'_> {
    type Set = StateSet;
    type Domain = EnumDomain;
    type Term = Option<TermId>;

    fn set_tracer(&self, tracer: &Tracer) {
        if let Some(cache) = &self.cache {
            cache.set_tracer(tracer);
        }
    }

    fn term(&self, r: &Reg) -> Option<TermId> {
        self.cache.as_ref().map(|cache| cache.intern(r).root)
    }

    fn children(&self, t: Option<TermId>) -> (Option<TermId>, Option<TermId>) {
        // Interning is structural: node kinds match the `Reg`'s.
        match t.zip(self.cache.as_ref()).map(|(id, c)| c.arena().node(id)) {
            Some(TermNode::Seq(a, b) | TermNode::Choice(a, b)) => (Some(a), Some(b)),
            Some(TermNode::Star(body)) => (Some(body), None),
            _ => (None, None),
        }
    }

    fn abs_image<F>(
        &self,
        dom: &EnumDomain,
        t: Option<TermId>,
        a: &StateSet,
        compute: F,
    ) -> Result<StateSet, SemError>
    where
        F: FnOnce() -> Result<StateSet, SemError>,
    {
        match (t, &self.cache) {
            (Some(id), Some(cache)) => dom
                .abs_memo()
                .try_get_or_insert_with(&(cache.arena().token(), id, a.clone()), compute),
            _ => compute(),
        }
    }

    fn image(&self, t: Option<TermId>, e: &Exp, a: &StateSet) -> Result<StateSet, SemError> {
        match &self.cache {
            // Unmemoized (widened) walks ask the cache per call, which
            // steps aside on small universes by itself.
            Some(cache) if self.tables || t.is_none() => cache.exec_exp(&self.sem, e, a),
            _ => self.sem.exec_exp(e, a),
        }
    }

    fn wlp(&self, t: Option<TermId>, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        match (&self.cache, t) {
            (Some(cache), Some(id)) if self.tables => cache.wlp_id(&self.wlp, id, post),
            _ => self.wlp.reg(r, post),
        }
    }

    fn for_repair(&self, r: &Reg) -> (Self, Option<TermId>) {
        let Some(cache) = &self.cache else {
            return (self.clone(), None);
        };
        // One engine-level bypass decision for the whole run (counted and
        // traced once; the predicate that set `tables`). A demoted
        // universe's image memo only pays off when warm, so the first
        // sight of a program (`fresh_nodes > 0`) runs the reference path
        // instead of funding memo writes it will never read.
        let demoted = cache.demote_for(self.sem.universe().size());
        let interned = cache.intern(r);
        if !demoted || interned.fresh_nodes == 0 {
            (self.clone(), Some(interned.root))
        } else {
            (EnumAlgebra::uncached(self.sem.universe()), None)
        }
    }

    fn lift(&self, s: &StateSet) -> StateSet {
        s.clone()
    }

    fn lower(&self, s: StateSet) -> StateSet {
        s
    }
}
