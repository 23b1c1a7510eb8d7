//! Shared transfer-function and `wlp` image caches.
//!
//! The repair algorithms re-execute the same commands on the same state
//! sets constantly: forward repair (Algorithm 1) restarts the whole
//! abstract analysis after every added point, backward repair
//! (Algorithm 2) re-derives `wlp` images along every recursive call, and
//! a corpus sweep repeats both per program. [`SemCache`] memoizes the
//! three pure transformers behind those loops, keyed on
//! `(command, input set)`:
//!
//! - [`SemCache::exec`] — the collecting semantics `⟦r⟧S` of
//!   [`Concrete`], cached at *every* node of the regular command (so a
//!   `Seq` prefix shared by two programs, or a `Star` body across
//!   fixpoint rounds, is computed once);
//! - [`SemCache::wlp_reg`] — the weakest liberal precondition
//!   transformer of [`Wlp`], cached the same way;
//! - [`SemCache::sat`] — guard satisfaction sets `⟦b?⟧Σ`.
//!
//! The cache is a set kernel's [`Memo`] (generic over the sets it stores,
//! bitsets by default): its exec and wlp tables are where
//! [`SetKernel::exec_in`]/[`SetKernel::wlp_in`], the one recursion, keep
//! node images. It memoizes every call it gets; whether a run asks it at
//! all is `air-core`'s memo policy (`memo_mode` in its `algebra` module), and
//! each run kept off the tables is counted here and traced once.
//!
//! Only `Ok` results are cached; errors are recomputed (and therefore
//! reported identically) on every call. Cloning a `SemCache` shares the
//! underlying tables, which is how one cache serves every thread of a
//! parallel sweep. Purity of the transformers makes cached and uncached
//! runs bitwise identical — the differential tests of the umbrella crate
//! compare full outcome structures between the two paths.
//!
//! One caveat: cache keys do not name the [`Universe`](crate::Universe),
//! so a `SemCache` must only ever be shared between engines over the
//! *same* universe. Two universes of equal size enumerate different
//! stores behind identical-looking state sets, and a shared cache would
//! silently alias them (the CLI corpus sweep builds one cache per
//! program for exactly this reason).

use air_lattice::{CacheStats, MemoTable};
use air_trace::{EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::arena::{TermArena, TermId, TermNode};
use crate::ast::{BExp, Reg};
use crate::semantics::{Concrete, Memo, SemError, SetKernel, StoreSet, Wlp};
use crate::store::StateSet;

/// A shared, thread-safe cache for concrete execution, `wlp` and guard
/// satisfaction over one universe, storing sets of type `S`.
///
/// Commands are interned into a shared [`TermArena`] and keys carry the
/// resulting [`TermId`] — a `u32` — next to the input set, so a lookup
/// hashes an integer and a (hash-cached) bitset instead of deep-cloning
/// and deep-hashing an AST subtree. The `exec` table additionally keys
/// on the semantics' strictness so the universe-restricted and strict
/// modes never alias. A cache must not be reused across universes (keys
/// would collide structurally); every engine in `air-core` creates or
/// receives one per universe.
#[derive(Clone, Debug)]
pub struct SemCache<S = StateSet> {
    arena: TermArena,
    exec: MemoTable<(bool, TermId, S), S>,
    wlp: MemoTable<(TermId, S), S>,
    sat: MemoTable<BExp, S>,
    bypasses: Arc<AtomicU64>,
    trace: Arc<OnceLock<Tracer>>,
    symbolic: bool,
}

impl<S> Default for SemCache<S> {
    fn default() -> Self {
        SemCache {
            arena: TermArena::new(),
            exec: MemoTable::new(),
            wlp: MemoTable::new(),
            sat: MemoTable::new(),
            bypasses: Arc::new(AtomicU64::new(0)),
            trace: Arc::new(OnceLock::new()),
            symbolic: false,
        }
    }
}

impl SemCache {
    /// An empty bitset cache.
    pub fn new() -> Self {
        SemCache::default()
    }

    /// An empty cache marked for the symbolic engine, an older spelling
    /// of `air-core`'s `Engine::Symbolic` that only
    /// `Verifier::with_cache` reads. The cache itself behaves exactly
    /// like [`SemCache::new`]'s.
    pub fn symbolic() -> Self {
        SemCache {
            symbolic: true,
            ..SemCache::new()
        }
    }

    /// Cached collecting semantics `⟦r⟧S`, memoized at every node of `r`
    /// (the one recursion of [`SetKernel::exec_in`], so results are
    /// bitwise equal to the uncached path).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn exec(&self, sem: &Concrete<'_>, r: &Reg, s: &StateSet) -> Result<StateSet, SemError> {
        let root = Some(self.arena.intern(r).root);
        sem.universe().exec_in(self, sem.is_strict(), r, root, s)
    }

    /// Cached `wlp` of a regular command, memoized at every node (the one
    /// recursion of [`SetKernel::wlp_in`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn wlp_reg(&self, wlp: &Wlp<'_>, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        let root = Some(self.arena.intern(r).root);
        wlp.universe().wlp_in(self, r, root, post)
    }

    /// Cached guard satisfaction set `⟦b?⟧Σ` ([`Concrete::sat`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn sat(&self, sem: &Concrete<'_>, b: &BExp) -> Result<StateSet, SemError> {
        Memo::sat(self, b, || sem.sat(b))
    }
}

impl<S: StoreSet> SemCache<S> {
    /// `true` for a [`SemCache::symbolic`] cache.
    pub fn is_symbolic(&self) -> bool {
        self.symbolic
    }

    /// Empties the exec/wlp/sat tables in place, through the shared
    /// handles — every clone of this cache (warm engines, in-flight
    /// verifiers) observes the reset. Hit/miss counters are preserved;
    /// only memoized entries are shed. This is the `air serve flush`
    /// reset hook: a long-lived daemon can bound its memory without
    /// rebuilding the cache plumbing.
    pub fn reset(&self) {
        self.exec.clear();
        self.wlp.clear();
        self.sat.clear();
    }

    /// Runs kept off the tables by the memo policy so far (shared across
    /// clones, like the tables themselves).
    pub fn bypass_count(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    /// Counts one run kept off the tables and, under a tracer, emits its
    /// `cache_bypass` event.
    pub fn record_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        if let Some(tracer) = self.trace.get() {
            tracer.emit_with(|| EventKind::CacheBypass { table: "engine" });
        }
    }

    /// Start emitting `cache_hit`/`cache_miss`/`cache_bypass` events for
    /// this cache (tables tagged `exec`/`wlp`/`sat`). Disabled tracers
    /// are ignored; only the first enabled tracer wins.
    pub fn set_tracer(&self, tracer: &Tracer) {
        if tracer.is_enabled() {
            self.exec.set_tracer("exec", tracer);
            self.wlp.set_tracer("wlp", tracer);
            self.sat.set_tracer("sat", tracer);
            let _ = self.trace.set(tracer.clone());
        }
    }

    /// The shared term arena behind this cache's keys. Engines that hold
    /// a cache can intern their program once and run the one recursion
    /// with this cache as its [`Memo`] directly, skipping the per-call
    /// interning walk.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Counters of the execution-image table.
    pub fn exec_stats(&self) -> CacheStats {
        self.exec.stats()
    }

    /// Counters of the `wlp`-image table.
    pub fn wlp_stats(&self) -> CacheStats {
        self.wlp.stats()
    }

    /// Counters of the guard-satisfaction table.
    pub fn sat_stats(&self) -> CacheStats {
        self.sat.stats()
    }

    /// Shards quarantined (cleared after a panicking writer poisoned
    /// them) across all three tables.
    pub fn quarantine_count(&self) -> u64 {
        self.exec.quarantine_count() + self.wlp.quarantine_count() + self.sat.quarantine_count()
    }

    /// Fault-injection hook: poisons one shard of the named table
    /// (`"exec"`, `"wlp"` or `"sat"`; anything else poisons all three)
    /// exactly as a crashing cache writer would. The next access
    /// quarantines the shard and falls back to uncached evaluation; see
    /// `MemoTable::chaos_poison_shard`.
    pub fn chaos_poison_shard(&self, table: &str, shard: usize) {
        match table {
            "exec" => self.exec.chaos_poison_shard(shard),
            "wlp" => self.wlp.chaos_poison_shard(shard),
            "sat" => self.sat.chaos_poison_shard(shard),
            _ => {
                self.exec.chaos_poison_shard(shard);
                self.wlp.chaos_poison_shard(shard);
                self.sat.chaos_poison_shard(shard);
            }
        }
    }
}

/// A set kernel's memo: node images live in the exec and wlp tables,
/// guard sets in the sat table.
impl<S: StoreSet> Memo<S> for SemCache<S> {
    fn children(&self, t: TermId) -> (TermId, TermId) {
        match self.arena.node(t) {
            TermNode::Seq(a, b) | TermNode::Choice(a, b) => (a, b),
            TermNode::Star(body) => (body, body),
            TermNode::Basic(_) => (t, t),
        }
    }

    fn exec<F>(&self, strict: bool, t: TermId, s: &S, compute: F) -> Result<S, SemError>
    where
        F: FnOnce() -> Result<S, SemError>,
    {
        self.exec
            .try_get_or_insert_with(&(strict, t, s.clone()), compute)
    }

    fn wlp<F>(&self, t: TermId, post: &S, compute: F) -> Result<S, SemError>
    where
        F: FnOnce() -> Result<S, SemError>,
    {
        self.wlp.try_get_or_insert_with(&(t, post.clone()), compute)
    }

    fn sat<F>(&self, b: &BExp, compute: F) -> Result<S, SemError>
    where
        F: FnOnce() -> Result<S, SemError>,
    {
        self.sat.try_get_or_insert_with(b, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_bexp, parse_program};
    use crate::store::Universe;

    #[test]
    fn cached_exec_matches_uncached() {
        let u = Universe::new(&[("x", -4, 4)]).unwrap();
        let sem = Concrete::new(&u);
        let cache = SemCache::new();
        let prog = parse_program(
            "star { assume x < 4; x := x + 1 }; if (x > 0) then { x := 0 - x } else { skip }",
        )
        .unwrap();
        let inputs = [u.of_values([-2, 1]), u.of_values([0]), u.full(), u.empty()];
        for s in &inputs {
            let plain = sem.exec(&prog, s).unwrap();
            assert_eq!(cache.exec(&sem, &prog, s).unwrap(), plain);
            // Second call answered from the table, same value.
            assert_eq!(cache.exec(&sem, &prog, s).unwrap(), plain);
        }
        let stats = cache.exec_stats();
        assert!(
            stats.hits >= inputs.len() as u64,
            "top-level re-queries hit"
        );
        assert!(stats.misses > 0);
    }

    #[test]
    fn cached_wlp_matches_uncached() {
        let u = Universe::new(&[("x", 0, 9)]).unwrap();
        let wlp = Wlp::new(&u);
        let cache = SemCache::new();
        let prog = parse_program("star { assume x < 9; x := x + 1 }").unwrap();
        for post in [u.filter(|s| s[0] <= 6), u.full(), u.empty()] {
            let plain = wlp.reg(&prog, &post).unwrap();
            assert_eq!(cache.wlp_reg(&wlp, &prog, &post).unwrap(), plain);
            assert_eq!(cache.wlp_reg(&wlp, &prog, &post).unwrap(), plain);
        }
        assert!(cache.wlp_stats().hits > 0);
    }

    #[test]
    fn strict_and_restricted_modes_do_not_alias() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let cache = SemCache::new();
        let restricted = Concrete::new(&u);
        let strict = Concrete::strict(&u);
        let e = parse_program("x := x + 1").unwrap();
        let s = u.of_values([3]); // escapes on +1
        assert_eq!(cache.exec(&restricted, &e, &s).unwrap(), u.empty());
        assert!(cache.exec(&strict, &e, &s).is_err());
        // The error path must also not have poisoned the restricted entry.
        assert_eq!(cache.exec(&restricted, &e, &s).unwrap(), u.empty());
    }

    #[test]
    fn poisoned_shards_fall_back_to_uncached_evaluation() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let cache = SemCache::new();
        let restricted = Concrete::new(&u);
        let strict = Concrete::strict(&u);
        let e = parse_program("x := x + 1").unwrap();
        let s = u.of_values([1]);
        let plain = restricted.exec(&e, &s).unwrap();
        assert_eq!(cache.exec(&restricted, &e, &s).unwrap(), plain);
        // Crash every exec shard's writer; lookups must quarantine and
        // recompute, not panic.
        for shard in 0..16 {
            cache.chaos_poison_shard("exec", shard);
        }
        assert_eq!(cache.exec(&restricted, &e, &s).unwrap(), plain);
        assert!(cache.quarantine_count() >= 1, "quarantines are counted");
        // The error path keeps its contract through a quarantine: strict
        // errors are not cached and do not poison the restricted entry.
        let esc = u.of_values([3]);
        for shard in 0..16 {
            cache.chaos_poison_shard("", shard);
        }
        assert!(cache.exec(&strict, &e, &esc).is_err());
        assert_eq!(cache.exec(&restricted, &e, &esc).unwrap(), u.empty());
        assert_eq!(cache.exec(&restricted, &e, &esc).unwrap(), u.empty());
    }

    #[test]
    fn sat_cache_round_trips() {
        let u = Universe::new(&[("x", -3, 3)]).unwrap();
        let sem = Concrete::new(&u);
        let cache = SemCache::new();
        let b = parse_bexp("x != 0").unwrap();
        let plain = sem.sat(&b).unwrap();
        assert_eq!(cache.sat(&sem, &b).unwrap(), plain);
        assert_eq!(cache.sat(&sem, &b).unwrap(), plain);
        let stats = cache.sat_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn recorded_bypasses_are_counted_shared_and_traced() {
        use air_trace::{MemorySink, Tracer};
        use std::sync::Arc;

        // The cache memoizes every call it gets, on any universe size;
        // only the runs the memo policy keeps off it are counted.
        let u = Universe::new(&[("x", -4, 4)]).unwrap(); // 9 states
        let sem = Concrete::new(&u);
        let cache = SemCache::new();
        let sink = Arc::new(MemorySink::new());
        cache.set_tracer(&Tracer::new(sink.clone()));
        let prog = parse_program("star { assume x < 4; x := x + 1 }").unwrap();
        let s = u.of_values([0]);
        let plain = sem.exec(&prog, &s).unwrap();
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        assert!(cache.exec_stats().hits > 0, "the re-query hits the table");
        assert_eq!(cache.bypass_count(), 0);
        cache.record_bypass();
        // Clones share the counter, and the one bypass was traced once.
        assert_eq!(cache.clone().bypass_count(), 1);
        let bypasses = sink
            .drain()
            .iter()
            .filter(|e| e.kind.kind_name() == "cache_bypass")
            .count();
        assert_eq!(bypasses, 1);
    }

    #[test]
    fn symbolic_cache_only_names_the_engine() {
        // The symbolic flag selects the verifier's algebra; the tables
        // behave exactly like an enumerative cache's.
        let symbolic = SemCache::symbolic();
        assert!(symbolic.is_symbolic() && !SemCache::new().is_symbolic());
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let sem = Concrete::new(&u);
        let b = parse_bexp("x > 1").unwrap();
        assert_eq!(symbolic.sat(&sem, &b).unwrap(), sem.sat(&b).unwrap());
        assert_eq!(symbolic.sat(&sem, &b).unwrap(), sem.sat(&b).unwrap());
        let stats = symbolic.sat_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn large_universes_still_memoize() {
        let u = Universe::new(&[("x", 0, 15), ("y", 0, 15)]).unwrap(); // 256 states
        let sem = Concrete::new(&u);
        let cache = SemCache::new();
        let prog = parse_program("x := x + y").unwrap();
        let s = u.filter(|st| st[0] + st[1] <= 15);
        let plain = sem.exec(&prog, &s).unwrap();
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        let stats = cache.exec_stats();
        assert_eq!((stats.hits, stats.misses, cache.bypass_count()), (1, 1, 0));
    }
}
