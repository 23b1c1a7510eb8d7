//! The state algebra: one engine per algorithm, written once over sets of
//! states however they are stored (as the paper states `fRepair`,
//! `bRepair`/`inv`, the pointed shells and `⟦·⟧♯_{A⊞N}`).
//!
//! [`StateAlgebra`] names what the engines use: set operations
//! ([`StoreSet`]), the closure, join and pointed widening of `A ⊞ N`
//! ([`PointedDomain`]), concrete images, `wlp` and guard sets, an
//! abstract-image memo hook and the bitset bridge at the outcome
//! boundary. Its one implementation, [`Algebra`], pairs a [`SetKernel`]
//! with its pointed domains and an optional [`SemCache`]: [`EnumAlgebra`]
//! is the bitset kernel with [`EnumDomain`], [`SymAlgebra`] the diagram
//! kernel with [`SymDomain`]; every set is equal under the bridge, so
//! both give byte-identical outcomes. Whether a run asks its cache at
//! all is one policy, `memo_mode`; the engines never branch on it.

use std::marker::PhantomData;

use air_lang::ast::{BExp, Reg};
pub use air_lang::StoreSet;
use air_lang::{Memo, SemCache, SemError, SetKernel, StateSet, SymEngine, TermId, Universe};
use air_lattice::MemoTable;
use air_trace::Tracer;

use crate::domain::EnumDomain;
use crate::symbolic::SymDomain;

/// A pointed refinement `A ⊞ N` (Section 3.1 of the paper).
pub trait PointedDomain: Clone + std::fmt::Debug {
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
    /// The added points `N`, in the order they refined the domain.
    fn points(&self) -> &[Self::Set];
    /// The abstract-image memo of this exact `N`; `None` memoizes nothing.
    fn image_memo(&self) -> Option<&ImageMemo<Self::Set>> {
        None
    }
}

/// An abstract-image memo, keyed on `(arena token, term id, input)`. The
/// token pins entries to the [`TermArena`](air_lang::TermArena) that
/// issued the id, so two caches' ids can never alias one another.
pub type ImageMemo<S> = MemoTable<(u64, TermId, S), S>;

/// Universes of at most this many stores keep runs off the exec/wlp/sat
/// tables, where recomputing beats hashing a `(command, set)` key
/// (`BENCH_repair.json`: 0.72×/0.86× on `nondet_walk` and `parity_flip`,
/// 27 and 20 states, 0% hits); the corpus entries (225+) stay memoized.
pub(crate) const SMALL_UNIVERSE: usize = 64;

/// The kind of run [`memo_mode`] decides for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Run {
    /// One backward repair.
    Repair,
    /// Forward repair's concrete `find` walk.
    Find,
    /// Questions asked one call at a time: local-completeness queries,
    /// abstract analyses, LCL derivations. An algebra made with a cache
    /// starts in this mode.
    Query,
}

/// How a run uses its semantic cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemoMode {
    /// Interned programs, the abstract-image memo and the exec/wlp/sat
    /// tables.
    Tables,
    /// Interned programs and the abstract-image memo; concrete images,
    /// `wlp`s and guard sets are computed directly.
    ImageMemo,
    /// No cache at all: the reference path.
    Direct,
}

/// The memo policy, in one place: above [`SMALL_UNIVERSE`] stores every
/// run uses the tables. At or below it, the image memo pays off only
/// where abstract images repeat warm: in query contexts and in repairs
/// of a program the cache had `interned` before. A repair's first sight
/// of a program would fund memo writes it never reads, and `find` walks
/// are concrete, so both run direct.
pub(crate) fn memo_mode(universe_size: usize, run: Run, interned: bool) -> MemoMode {
    match run {
        _ if universe_size > SMALL_UNIVERSE => MemoMode::Tables,
        Run::Query => MemoMode::ImageMemo,
        Run::Repair if interned => MemoMode::ImageMemo,
        Run::Repair | Run::Find => MemoMode::Direct,
    }
}

/// What Algorithms 1 and 2, the local-completeness queries and
/// `⟦·⟧♯_{A⊞N}` need of a representation of states.
///
/// Programs travel through the shared engines as a [`Reg`] plus the
/// interned id of the same node when the run memoizes (`None` when it
/// does not: abstract images under it are never memoized, and concrete
/// queries under it are answered per call).
pub trait StateAlgebra: Clone + std::fmt::Debug {
    /// Sets of stores.
    type Set: StoreSet;
    /// Pointed refinements over those sets.
    type Domain: PointedDomain<Set = Self::Set>;

    /// Routes the algebra's own telemetry (cache events) through `tracer`.
    fn set_tracer(&self, tracer: &Tracer);
    /// The interned id of `r`'s root, if the run memoizes.
    fn term(&self, r: &Reg) -> Option<TermId>;
    /// The ids of the structural children of `t`'s node (a star's body
    /// comes first).
    fn children(&self, t: Option<TermId>) -> (Option<TermId>, Option<TermId>);
    /// The abstract image of `t`'s node on `a` in `dom`: `compute`, unless
    /// the algebra memoized it earlier.
    fn abs_image<F>(
        &self,
        dom: &Self::Domain,
        t: Option<TermId>,
        a: &Self::Set,
        compute: F,
    ) -> Result<Self::Set, SemError>
    where
        F: FnOnce() -> Result<Self::Set, SemError>;
    /// The concrete image `⟦r⟧a` (node `t`).
    fn exec(&self, t: Option<TermId>, r: &Reg, a: &Self::Set) -> Result<Self::Set, SemError>;
    /// The weakest liberal precondition `wlp(r, post)` (node `t`).
    fn wlp(&self, t: Option<TermId>, r: &Reg, post: &Self::Set) -> Result<Self::Set, SemError>;
    /// The stores satisfying the guard `b`.
    fn sat(&self, b: &BExp) -> Result<Self::Set, SemError>;
    /// The algebra one backward repair of `r` runs in, and the id of
    /// `r`'s root. Called once per repair.
    fn for_repair(&self, r: &Reg) -> (Self, Option<TermId>);
    /// The algebra forward repair's concrete `find` oracle runs in for
    /// one whole repair. Called once per repair.
    fn for_find(&self) -> Self;
    /// Imports an explicit state set.
    fn lift(&self, s: &StateSet) -> Self::Set;
    /// Exports a set as an explicit state set.
    fn lower(&self, s: Self::Set) -> StateSet;
}

/// The state algebra: a set kernel `K` and its pointed domains `D`,
/// memoized through a [`SemCache`] as the memo policy (`memo_mode`) decides.
///
/// Every cached/uncached/demoted decision is made here, so the shared
/// engines never branch on it. Under a cache, programs are interned,
/// term ids are arena ids and each node's abstract image is memoized in
/// the domain's per-`N` image memo; in the tables mode the concrete
/// queries go through the cache's tables too.
#[derive(Clone, Debug)]
pub struct Algebra<K: SetKernel, D> {
    kernel: K,
    cache: Option<SemCache<K::Set>>,
    /// [`MemoMode::Tables`]; `false` with a cache is
    /// [`MemoMode::ImageMemo`].
    tables: bool,
    domain: PhantomData<fn() -> D>,
}

/// The enumerative algebra: [`StateSet`] bitsets, [`EnumDomain`] closures
/// and the bitset kernel; uncached, it is the reference path.
pub type EnumAlgebra<'u> = Algebra<&'u Universe, EnumDomain>;

/// The symbolic algebra: [`SymState`](air_lattice::SymState) diagrams,
/// [`SymDomain`] closures and the exact diagram kernel. Built uncached,
/// it memoizes nothing, so every abstract image is recomputed and every
/// star round reaches the governor.
pub type SymAlgebra<'u> = Algebra<SymEngine<'u>, SymDomain>;

impl<K: SetKernel, D> Algebra<K, D> {
    /// The algebra memoizing into `cache` in query mode; repairs and
    /// `find` walks decide their own mode.
    pub fn with_cache(kernel: K, cache: SemCache<K::Set>) -> Self {
        let mut alg = Self::uncached(kernel);
        alg.tables = memo_mode(alg.kernel.universe().size(), Run::Query, false) == MemoMode::Tables;
        alg.cache = Some(cache);
        alg
    }

    /// The algebra without memoization (the reference path).
    pub fn uncached(kernel: K) -> Self {
        Algebra {
            kernel,
            cache: None,
            tables: false,
            domain: PhantomData,
        }
    }

    /// The semantic cache, if memoization is on.
    pub fn cache(&self) -> Option<&SemCache<K::Set>> {
        self.cache.as_ref()
    }

    /// The cache's tables, in [`MemoMode::Tables`].
    fn tables(&self) -> Option<&SemCache<K::Set>> {
        self.cache.as_ref().filter(|_| self.tables)
    }

    /// This algebra in the mode [`memo_mode`] picks for `run`; a run kept
    /// off the tables is recorded once, here.
    fn for_run(&self, run: Run, interned: bool) -> Self
    where
        Self: Clone,
    {
        let mut alg = self.clone();
        if let Some(cache) = &self.cache {
            let mode = memo_mode(self.kernel.universe().size(), run, interned);
            if mode != MemoMode::Tables {
                cache.record_bypass();
            }
            alg.cache = alg.cache.filter(|_| mode != MemoMode::Direct);
            alg.tables = mode == MemoMode::Tables;
        }
        alg
    }
}

impl<K, D> StateAlgebra for Algebra<K, D>
where
    K: SetKernel + Clone + std::fmt::Debug,
    D: PointedDomain<Set = K::Set>,
{
    type Set = K::Set;
    type Domain = D;

    fn set_tracer(&self, tracer: &Tracer) {
        if let Some(cache) = &self.cache {
            cache.set_tracer(tracer);
        }
    }

    fn term(&self, r: &Reg) -> Option<TermId> {
        self.cache.as_ref().map(|c| c.arena().intern(r).root)
    }

    fn children(&self, t: Option<TermId>) -> (Option<TermId>, Option<TermId>) {
        // The memo's node walk: interning is structural, so node kinds
        // match the `Reg`'s.
        t.zip(self.cache.as_ref())
            .map(|(id, cache)| cache.children(id))
            .unzip()
    }

    fn abs_image<F>(
        &self,
        dom: &D,
        t: Option<TermId>,
        a: &K::Set,
        compute: F,
    ) -> Result<K::Set, SemError>
    where
        F: FnOnce() -> Result<K::Set, SemError>,
    {
        match (t, &self.cache, dom.image_memo()) {
            (Some(id), Some(cache), Some(memo)) => {
                memo.try_get_or_insert_with(&(cache.arena().token(), id, a.clone()), compute)
            }
            _ => compute(),
        }
    }

    fn exec(&self, t: Option<TermId>, r: &Reg, a: &K::Set) -> Result<K::Set, SemError> {
        match self.tables() {
            Some(cache) => {
                let id = t.unwrap_or_else(|| cache.arena().intern(r).root);
                self.kernel.exec_in(cache, false, r, Some(id), a)
            }
            None => self.kernel.exec(false, r, a),
        }
    }

    fn wlp(&self, t: Option<TermId>, r: &Reg, post: &K::Set) -> Result<K::Set, SemError> {
        match self.tables() {
            Some(cache) => {
                let id = t.unwrap_or_else(|| cache.arena().intern(r).root);
                self.kernel.wlp_in(cache, r, Some(id), post)
            }
            None => self.kernel.wlp(r, post),
        }
    }

    fn sat(&self, b: &BExp) -> Result<K::Set, SemError> {
        match self.tables() {
            Some(cache) => Memo::sat(cache, b, || self.kernel.sat(b)),
            None => self.kernel.sat(b),
        }
    }

    fn for_repair(&self, r: &Reg) -> (Self, Option<TermId>) {
        let Some(cache) = &self.cache else {
            return (self.clone(), None);
        };
        let interned = cache.arena().intern(r);
        let alg = self.for_run(Run::Repair, interned.fresh_nodes == 0);
        let root = alg.cache.as_ref().map(|_| interned.root);
        (alg, root)
    }

    fn for_find(&self) -> Self {
        self.for_run(Run::Find, false)
    }

    fn lift(&self, s: &StateSet) -> K::Set {
        self.kernel.lift(s)
    }

    fn lower(&self, s: K::Set) -> StateSet {
        self.kernel.lower(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::BackwardRepair;
    use crate::forward::ForwardRepair;
    use crate::local::LocalCompleteness;
    use air_domains::IntervalEnv;
    use air_lang::{parse_bexp, parse_program};

    #[test]
    fn memo_mode_is_the_one_policy() {
        use MemoMode::{Direct, ImageMemo, Tables};
        let runs = [Run::Repair, Run::Find, Run::Query];
        for (interned, modes) in [
            (false, [Direct, Direct, ImageMemo]),
            (true, [ImageMemo, Direct, ImageMemo]),
        ] {
            let small = runs.map(|run| memo_mode(SMALL_UNIVERSE, run, interned));
            assert_eq!(small, modes, "interned: {interned}");
            let large = runs.map(|run| memo_mode(SMALL_UNIVERSE + 1, run, interned));
            assert_eq!(large, [Tables; 3]);
        }
    }

    /// Cached backward, forward and local-completeness runs of the
    /// countdown loop over `x, y ∈ [-2, hi]`, all into one cache; returns
    /// the lookups of its exec, wlp and sat tables.
    fn table_lookups(hi: i64) -> [u64; 3] {
        let u = Universe::new(&[("x", -2, hi), ("y", -2, hi)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 2);
        let spec = u.filter(|s| s[1] <= 0);
        let cache = SemCache::new();
        let alg = EnumAlgebra::with_cache(&u, cache.clone());
        BackwardRepair::from_algebra(&u, alg.clone())
            .repair(&dom, &pre, &prog, &spec)
            .unwrap();
        ForwardRepair::from_algebra(&u, alg.clone())
            .repair(dom.clone(), &prog, &pre)
            .unwrap();
        let lc = LocalCompleteness::from_algebra(&u, alg);
        lc.sup_l(&dom, &prog, &pre).unwrap();
        lc.guard_shell(&dom, &parse_bexp("x > 0").unwrap(), &pre)
            .unwrap();
        [cache.exec_stats(), cache.wlp_stats(), cache.sat_stats()].map(|s| s.lookups())
    }

    #[test]
    fn small_universes_leave_the_tables_empty() {
        assert_eq!(table_lookups(2), [0, 0, 0], "25 stores");
    }

    #[test]
    fn large_universes_fill_the_tables() {
        let [exec, wlp, sat] = table_lookups(6);
        assert!(
            exec > 0 && wlp > 0 && sat > 0,
            "81 stores: {exec} {wlp} {sat}"
        );
    }

    #[test]
    fn warm_small_repairs_hit_the_image_memo() {
        let u = Universe::new(&[("x", -2, 2), ("y", -2, 2)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0);
        let spec = u.filter(|s| s[1] <= 0);
        let cache = SemCache::new();
        let engine = BackwardRepair::from_algebra(&u, EnumAlgebra::with_cache(&u, cache.clone()));
        let closures = || dom.cache_stats().lookups();
        // First sight of the program: the direct path, no image memo.
        let cold = engine.repair(&dom, &pre, &prog, &spec).unwrap();
        let cold_closures = closures();
        // Interned now: the same repair is answered by the image memo.
        let warm = engine.repair(&dom, &pre, &prog, &spec).unwrap();
        let warm_closures = closures() - cold_closures;
        assert_eq!(warm.valid_input, cold.valid_input);
        assert_eq!(warm.points, cold.points);
        assert!(
            warm_closures < cold_closures,
            "warm {warm_closures} vs cold {cold_closures} closure lookups"
        );
        assert_eq!(cache.bypass_count(), 2, "one per run");
    }
}
