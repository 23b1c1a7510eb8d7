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
//! - [`SemCache::exec`] / [`SemCache::exec_exp`] — the collecting
//!   semantics `⟦r⟧S` of [`Concrete`], cached at *every* node of the
//!   regular command (so a `Seq` prefix shared by two programs, or a
//!   `Star` body across fixpoint rounds, is computed once);
//! - [`SemCache::wlp_reg`] — the weakest liberal precondition
//!   transformer of [`Wlp`], cached the same way;
//! - [`SemCache::sat`] — guard satisfaction sets `⟦b?⟧Σ`.
//!
//! The cache is the bitset kernel's [`Memo`]: its exec and wlp tables
//! are where [`SetKernel::exec_in`]/[`SetKernel::wlp_in`], the one
//! recursion, keep node images.
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
use crate::ast::{BExp, Exp, Reg};
use crate::semantics::{Concrete, Memo, SemError, SetKernel, Wlp};
use crate::store::StateSet;

/// Default universe-size cutoff below which memoization is skipped.
///
/// On tiny universes the transformers are cheaper than hashing a
/// `(command, input set)` key, so caching is a net loss —
/// `BENCH_repair.json` measured 0.72×/0.86× *slowdowns* on
/// `nondet_walk` (27 states) and `parity_flip` (20 states) with 0% hit
/// rates. 64 keeps every such trivial program on the direct path while
/// leaving the profitable corpus entries (225+ states) cached.
pub const DEFAULT_BYPASS_THRESHOLD: usize = 64;

/// A shared, thread-safe cache for concrete execution, `wlp` and guard
/// satisfaction over one universe.
///
/// Commands are interned into a shared [`TermArena`] and keys carry the
/// resulting [`TermId`] — a `u32` — next to the input set, so a lookup
/// hashes an integer and a (hash-cached) bitset instead of deep-cloning
/// and deep-hashing an AST subtree. The `exec` table additionally keys
/// on the semantics' strictness so the universe-restricted and strict
/// modes never alias. A cache must not be reused across universes (keys
/// would collide structurally); every engine in `air-core` creates or
/// receives one per universe.
///
/// Calls on universes of at most the bypass threshold (by default
/// [`DEFAULT_BYPASS_THRESHOLD`]) states skip the tables entirely and run
/// the uncached transformer (same result, no hashing) — each such call
/// bumps the shared bypass counter and, when traced, emits a
/// `cache_bypass` event.
#[derive(Clone, Debug)]
pub struct SemCache {
    arena: TermArena,
    exec: MemoTable<(bool, TermId, StateSet), StateSet>,
    wlp: MemoTable<(TermId, StateSet), StateSet>,
    sat: MemoTable<BExp, StateSet>,
    bypass_threshold: usize,
    bypasses: Arc<AtomicU64>,
    trace: Arc<OnceLock<Tracer>>,
    symbolic: bool,
}

impl Default for SemCache {
    fn default() -> Self {
        Self::with_bypass_threshold(DEFAULT_BYPASS_THRESHOLD)
    }
}

impl SemCache {
    /// An empty cache with the default small-universe bypass.
    pub fn new() -> Self {
        SemCache::default()
    }

    /// An empty cache bypassing memoization on universes of at most
    /// `threshold` states (`0` disables the bypass).
    pub fn with_bypass_threshold(threshold: usize) -> Self {
        SemCache {
            arena: TermArena::new(),
            exec: MemoTable::new(),
            wlp: MemoTable::new(),
            sat: MemoTable::new(),
            bypass_threshold: threshold,
            bypasses: Arc::new(AtomicU64::new(0)),
            trace: Arc::new(OnceLock::new()),
            symbolic: false,
        }
    }

    /// An empty cache that asks for the symbolic engine: verifiers over
    /// it run `Int`-base repairs on decision diagrams (`air-core`'s
    /// `SymAlgebra`). The cache itself behaves exactly like
    /// [`SemCache::new`]'s; every other base runs the bitset kernel
    /// through it.
    pub fn symbolic() -> Self {
        SemCache {
            symbolic: true,
            ..SemCache::new()
        }
    }

    /// `true` for a [`SemCache::symbolic`] cache.
    pub fn is_symbolic(&self) -> bool {
        self.symbolic
    }

    /// `true` if calls over `universe_size` states take the direct path.
    /// Pure probe: nothing is counted or traced (see
    /// [`demote_for`](Self::demote_for) for the recording variant).
    pub fn is_bypassed(&self, universe_size: usize) -> bool {
        universe_size <= self.bypass_threshold
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

    /// Calls answered on the direct, unmemoized path so far (shared
    /// across clones, like the tables themselves).
    pub fn bypass_count(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
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

    /// Engine-level demotion: `true` (counting and tracing one bypass) if
    /// a whole engine run over `universe_size` states should drop this
    /// cache and take the direct path.
    ///
    /// The per-call bypass check keeps tiny universes off the tables, but
    /// each call still pays the branch, the shared counter bump and the
    /// tracer probe — measurably slower than never asking. The engines'
    /// enumerative algebra (`air_core::EnumAlgebra`) instead asks once per
    /// repair run and, when demoted, runs the unmemoized reference path
    /// for the entire run: the hot loop then contains no cache code at
    /// all. One bypass is counted (and traced, when a tracer is
    /// attached) for the whole run.
    pub fn demote_for(&self, universe_size: usize) -> bool {
        self.bypass("engine", universe_size)
    }

    /// `true` (counting and tracing the fact) if a call over
    /// `universe_size` states should run unmemoized.
    fn bypass(&self, table: &'static str, universe_size: usize) -> bool {
        if !self.is_bypassed(universe_size) {
            return false;
        }
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        if let Some(tracer) = self.trace.get() {
            tracer.emit_with(|| EventKind::CacheBypass { table });
        }
        true
    }

    /// The shared term arena behind this cache's keys. Engines that hold
    /// a cache can intern their program once and run the one recursion
    /// with this cache as its [`Memo`] directly, skipping the per-call
    /// interning walk.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Interns `r` into the shared arena (see [`TermArena::intern`]); the
    /// outcome's `fresh_nodes` is the number of subterms this cache had
    /// never seen — zero means every node already has warm entries
    /// available, which is the incremental re-repair fast path.
    pub fn intern(&self, r: &Reg) -> crate::arena::InternOutcome {
        self.arena.intern(r)
    }

    /// Cached collecting semantics of a basic command: `⟦e⟧S`.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from [`Concrete::exec_exp`] (errors are
    /// not cached).
    pub fn exec_exp(
        &self,
        sem: &Concrete<'_>,
        e: &Exp,
        s: &StateSet,
    ) -> Result<StateSet, SemError> {
        if self.bypass("exec", sem.universe().size()) {
            return sem.exec_exp(e, s);
        }
        let t = self.arena.intern_exp(e);
        Memo::exec(self, sem.is_strict(), t, s, || sem.exec_exp(e, s))
    }

    /// Cached collecting semantics `⟦r⟧S`, memoized at every node of `r`
    /// (the one recursion of [`SetKernel::exec_in`], so results are
    /// bitwise equal to the uncached path).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn exec(&self, sem: &Concrete<'_>, r: &Reg, s: &StateSet) -> Result<StateSet, SemError> {
        let u = sem.universe();
        if self.bypass("exec", u.size()) {
            return sem.exec(r, s);
        }
        u.exec_in(self, sem.is_strict(), r, Some(self.intern(r).root), s)
    }

    /// Cached `wlp` of a regular command, memoized at every node (the one
    /// recursion of [`SetKernel::wlp_in`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn wlp_reg(&self, wlp: &Wlp<'_>, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        if self.bypass("wlp", wlp.universe().size()) {
            return wlp.reg(r, post);
        }
        wlp.universe()
            .wlp_in(self, r, Some(self.intern(r).root), post)
    }

    /// Cached guard satisfaction set `⟦b?⟧Σ` ([`Concrete::sat`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn sat(&self, sem: &Concrete<'_>, b: &BExp) -> Result<StateSet, SemError> {
        if self.bypass("sat", sem.universe().size()) {
            return sem.sat(b);
        }
        self.sat.try_get_or_insert_with(b, || sem.sat(b))
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

    /// All three tables' counters, pointwise summed, plus the shared
    /// bypass count.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self
            .exec_stats()
            .merged(&self.wlp_stats())
            .merged(&self.sat_stats());
        stats.bypasses = self.bypass_count();
        stats
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

/// The bitset kernel's memo: node images live in the exec and wlp tables.
impl Memo<StateSet> for SemCache {
    fn children(&self, t: TermId) -> (TermId, TermId) {
        match self.arena.node(t) {
            TermNode::Seq(a, b) | TermNode::Choice(a, b) => (a, b),
            TermNode::Star(body) => (body, body),
            TermNode::Basic(_) => (t, t),
        }
    }

    fn exec<F>(
        &self,
        strict: bool,
        t: TermId,
        s: &StateSet,
        compute: F,
    ) -> Result<StateSet, SemError>
    where
        F: FnOnce() -> Result<StateSet, SemError>,
    {
        self.exec
            .try_get_or_insert_with(&(strict, t, s.clone()), compute)
    }

    fn wlp<F>(&self, t: TermId, post: &StateSet, compute: F) -> Result<StateSet, SemError>
    where
        F: FnOnce() -> Result<StateSet, SemError>,
    {
        self.wlp.try_get_or_insert_with(&(t, post.clone()), compute)
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
        // Threshold 0: exercise the tables even on this 9-state universe.
        let cache = SemCache::with_bypass_threshold(0);
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
        let cache = SemCache::with_bypass_threshold(0);
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
        let cache = SemCache::with_bypass_threshold(0);
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
        let cache = SemCache::with_bypass_threshold(0);
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
        let cache = SemCache::with_bypass_threshold(0);
        let b = parse_bexp("x != 0").unwrap();
        let plain = sem.sat(&b).unwrap();
        assert_eq!(cache.sat(&sem, &b).unwrap(), plain);
        assert_eq!(cache.sat(&sem, &b).unwrap(), plain);
        let stats = cache.sat_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn small_universes_bypass_the_tables() {
        use air_trace::{MemorySink, Tracer};
        use std::sync::Arc;

        let u = Universe::new(&[("x", -4, 4)]).unwrap(); // 9 ≤ 64 states
        let sem = Concrete::new(&u);
        let cache = SemCache::new();
        assert_eq!(cache.bypass_threshold, DEFAULT_BYPASS_THRESHOLD);
        let sink = Arc::new(MemorySink::new());
        cache.set_tracer(&Tracer::new(sink.clone()));
        let prog = parse_program("star { assume x < 4; x := x + 1 }").unwrap();
        let s = u.of_values([0]);
        let plain = sem.exec(&prog, &s).unwrap();
        // Same result as the memoized path, but nothing is stored.
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        assert_eq!(cache.exec(&sem, &prog, &s).unwrap(), plain);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.bypasses, 2);
        assert_eq!(cache.bypass_count(), 2);
        // Clones share the bypass counter, and each bypass was traced.
        assert_eq!(cache.clone().bypass_count(), 2);
        let kinds: Vec<&'static str> = sink.drain().iter().map(|e| e.kind.kind_name()).collect();
        assert_eq!(kinds, ["cache_bypass", "cache_bypass"]);
    }

    #[test]
    fn symbolic_cache_only_names_the_engine() {
        // The symbolic flag selects the verifier's algebra; the tables and
        // the bypass behave exactly like an enumerative cache's.
        let symbolic = SemCache::symbolic();
        assert!(symbolic.is_symbolic() && !SemCache::new().is_symbolic());
        assert!(symbolic.is_bypassed(1));
        assert!(symbolic.demote_for(1));
        assert_eq!(symbolic.bypass_count(), 1);
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
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.bypasses), (1, 1, 0));
    }
}
