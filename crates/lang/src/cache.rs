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
//! - [`SemCache::wlp_reg`] / [`SemCache::wlp_exp`] — the weakest liberal
//!   precondition transformers of [`Wlp`], cached the same way;
//! - [`SemCache::sat`] — guard satisfaction sets `⟦b?⟧Σ`.
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
use crate::semantics::{Concrete, SemError};
use crate::store::StateSet;
use crate::sym::SymEngine;
use crate::wlp::Wlp;

/// Which engine answers the semantic queries behind a [`SemCache`].
///
/// The cache's *interface* (and its memo tables, keyed on explicit state
/// sets) is backend-agnostic: with [`EngineBackend::Symbolic`], misses are
/// answered by running the whole query natively on
/// [`SymState`](air_lattice::SymState) diagrams via [`SymEngine`] and
/// materializing the result, instead of enumerating bitsets. Because the
/// symbolic engine is exact, the two backends produce byte-identical
/// results — the property differential fuzz axis 9 checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineBackend {
    /// Explicit bitset enumeration (the paper's pilot design point).
    #[default]
    Enumerative,
    /// Symbolic interval-decision-diagram evaluation ([`SymEngine`]).
    Symbolic,
}

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
/// Calls on universes of at most [`bypass_threshold`](Self::bypass_threshold)
/// states skip the tables entirely and run the uncached transformer
/// (same result, no hashing) — each such call bumps the shared bypass
/// counter and, when traced, emits a `cache_bypass` event.
#[derive(Clone, Debug)]
pub struct SemCache {
    arena: TermArena,
    exec: MemoTable<(bool, TermId, StateSet), StateSet>,
    wlp: MemoTable<(TermId, StateSet), StateSet>,
    sat: MemoTable<BExp, StateSet>,
    bypass_threshold: usize,
    bypasses: Arc<AtomicU64>,
    trace: Arc<OnceLock<Tracer>>,
    backend: EngineBackend,
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
            backend: EngineBackend::Enumerative,
        }
    }

    /// An empty cache whose misses are answered by the symbolic backend
    /// ([`SymEngine`]) instead of bitset enumeration. The small-universe
    /// bypass is disabled: bypassing would route calls to the enumerative
    /// reference path, which is exactly what a symbolic run must not do.
    pub fn symbolic() -> Self {
        SemCache {
            backend: EngineBackend::Symbolic,
            ..SemCache::with_bypass_threshold(DEFAULT_BYPASS_THRESHOLD)
        }
    }

    /// The backend answering this cache's misses.
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }

    /// The universe-size cutoff below which calls skip the tables.
    pub fn bypass_threshold(&self) -> usize {
        self.bypass_threshold
    }

    /// `true` if calls over `universe_size` states take the direct path.
    /// Pure probe: nothing is counted or traced (see
    /// [`demote_for`](Self::demote_for) for the recording variant).
    /// Always `false` on a symbolic cache — the direct path is the
    /// enumerative reference engine.
    pub fn is_bypassed(&self, universe_size: usize) -> bool {
        self.backend == EngineBackend::Enumerative && universe_size <= self.bypass_threshold
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
    /// attached) for the whole run. A symbolic cache never demotes: its
    /// callers must keep every semantic query on the cache so it reaches
    /// the symbolic engine.
    pub fn demote_for(&self, universe_size: usize) -> bool {
        self.backend == EngineBackend::Enumerative && self.bypass("engine", universe_size)
    }

    /// `true` (counting and tracing the fact) if a call over
    /// `universe_size` states should run unmemoized.
    fn bypass(&self, table: &'static str, universe_size: usize) -> bool {
        if self.backend == EngineBackend::Symbolic || universe_size > self.bypass_threshold {
            return false;
        }
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        if let Some(tracer) = self.trace.get() {
            tracer.emit_with(|| EventKind::CacheBypass { table });
        }
        true
    }

    /// The shared term arena behind this cache's keys. Engines that hold
    /// a cache can intern their program once and drive the id-based entry
    /// points ([`exec_id`](Self::exec_id), [`wlp_id`](Self::wlp_id))
    /// directly, skipping the per-call interning walk.
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
        if self.backend == EngineBackend::Symbolic {
            let key = (sem.is_strict(), self.arena.intern_exp(e), s.clone());
            return self.exec.try_get_or_insert_with(&key, || {
                let eng = SymEngine::new(sem.universe());
                eng.exec_exp(sem.is_strict(), e, &eng.from_set(s))
                    .map(|out| eng.to_set(&out))
            });
        }
        if self.bypass("exec", sem.universe().size()) {
            return sem.exec_exp(e, s);
        }
        let key = (sem.is_strict(), self.arena.intern_exp(e), s.clone());
        self.exec
            .try_get_or_insert_with(&key, || sem.exec_exp(e, s))
    }

    /// Cached collecting semantics `⟦r⟧S`, memoized at every node of `r`
    /// (mirrors [`Concrete::exec`] exactly, so results are bitwise equal
    /// to the uncached path).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn exec(&self, sem: &Concrete<'_>, r: &Reg, s: &StateSet) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            return self.sym_exec(sem, self.arena.intern(r).root, s);
        }
        if self.bypass("exec", sem.universe().size()) {
            return sem.exec(r, s);
        }
        self.exec_node(sem, self.arena.intern(r).root, s)
    }

    /// Id-keyed [`exec`](Self::exec): `id` must come from this cache's
    /// [`arena`](Self::arena).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn exec_id(
        &self,
        sem: &Concrete<'_>,
        id: TermId,
        s: &StateSet,
    ) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            return self.sym_exec(sem, id, s);
        }
        if self.bypass("exec", sem.universe().size()) {
            return sem.exec(&self.arena.resolve(id), s);
        }
        self.exec_node(sem, id, s)
    }

    /// Symbolic-backend execution: the whole term is run natively on
    /// decision diagrams and only the final image is materialized (and
    /// memoized under the same key the enumerative walk would use).
    /// Sub-term images are *not* cached — they never exist as bitsets.
    fn sym_exec(&self, sem: &Concrete<'_>, id: TermId, s: &StateSet) -> Result<StateSet, SemError> {
        let key = (sem.is_strict(), id, s.clone());
        self.exec.try_get_or_insert_with(&key, || {
            let eng = SymEngine::new(sem.universe());
            eng.exec(sem.is_strict(), &self.arena.resolve(id), &eng.from_set(s))
                .map(|out| eng.to_set(&out))
        })
    }

    fn exec_node(
        &self,
        sem: &Concrete<'_>,
        id: TermId,
        s: &StateSet,
    ) -> Result<StateSet, SemError> {
        let key = (sem.is_strict(), id, s.clone());
        self.exec.try_get_or_insert_with(&key, || {
            match self.arena.node(id) {
                TermNode::Basic(e) => sem.exec_exp(&e, s),
                TermNode::Seq(r1, r2) => {
                    let mid = self.exec_node(sem, r1, s)?;
                    self.exec_node(sem, r2, &mid)
                }
                TermNode::Choice(r1, r2) => Ok(self
                    .exec_node(sem, r1, s)?
                    .union(&self.exec_node(sem, r2, s)?)),
                TermNode::Star(body) => {
                    // Same lfp iteration as `Concrete::exec`, with each
                    // round's body image cached.
                    let mut acc = s.clone();
                    for _ in 0..=sem.universe().size() {
                        let next = acc.union(&self.exec_node(sem, body, &acc)?);
                        if next == acc {
                            return Ok(acc);
                        }
                        acc = next;
                    }
                    Err(SemError::Divergence)
                }
            }
        })
    }

    /// Cached `wlp` of a basic command.
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`] from [`Wlp::exp`]; errors are not cached.
    pub fn wlp_exp(&self, wlp: &Wlp<'_>, e: &Exp, post: &StateSet) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            let key = (self.arena.intern_exp(e), post.clone());
            return self.wlp.try_get_or_insert_with(&key, || {
                let eng = SymEngine::new(wlp.universe());
                eng.wlp_exp(e, &eng.from_set(post))
                    .map(|out| eng.to_set(&out))
            });
        }
        if self.bypass("wlp", wlp.universe().size()) {
            return wlp.exp(e, post);
        }
        let key = (self.arena.intern_exp(e), post.clone());
        self.wlp.try_get_or_insert_with(&key, || wlp.exp(e, post))
    }

    /// Cached `wlp` of a regular command, memoized at every node (mirrors
    /// [`Wlp::reg`] exactly).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn wlp_reg(&self, wlp: &Wlp<'_>, r: &Reg, post: &StateSet) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            return self.sym_wlp(wlp, self.arena.intern(r).root, post);
        }
        if self.bypass("wlp", wlp.universe().size()) {
            return wlp.reg(r, post);
        }
        self.wlp_node(wlp, self.arena.intern(r).root, post)
    }

    /// Id-keyed [`wlp_reg`](Self::wlp_reg): `id` must come from this
    /// cache's [`arena`](Self::arena).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn wlp_id(&self, wlp: &Wlp<'_>, id: TermId, post: &StateSet) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            return self.sym_wlp(wlp, id, post);
        }
        if self.bypass("wlp", wlp.universe().size()) {
            return wlp.reg(&self.arena.resolve(id), post);
        }
        self.wlp_node(wlp, id, post)
    }

    /// Symbolic-backend `wlp`: the whole term runs natively on decision
    /// diagrams; only the final precondition set is materialized and
    /// memoized (same key as the enumerative walk's top-level entry).
    fn sym_wlp(&self, wlp: &Wlp<'_>, id: TermId, post: &StateSet) -> Result<StateSet, SemError> {
        let key = (id, post.clone());
        self.wlp.try_get_or_insert_with(&key, || {
            let eng = SymEngine::new(wlp.universe());
            eng.wlp_reg(&self.arena.resolve(id), &eng.from_set(post))
                .map(|out| eng.to_set(&out))
        })
    }

    fn wlp_node(&self, wlp: &Wlp<'_>, id: TermId, post: &StateSet) -> Result<StateSet, SemError> {
        let key = (id, post.clone());
        self.wlp.try_get_or_insert_with(&key, || {
            match self.arena.node(id) {
                TermNode::Basic(e) => wlp.exp(&e, post),
                TermNode::Seq(r1, r2) => {
                    let mid = self.wlp_node(wlp, r2, post)?;
                    self.wlp_node(wlp, r1, &mid)
                }
                TermNode::Choice(r1, r2) => Ok(self
                    .wlp_node(wlp, r1, post)?
                    .intersection(&self.wlp_node(wlp, r2, post)?)),
                TermNode::Star(body) => {
                    // Same gfp iteration as `Wlp::reg`, with each round's
                    // body wlp cached.
                    let mut acc = post.clone();
                    for _ in 0..=wlp.universe().size() {
                        let next = post.intersection(&self.wlp_node(wlp, body, &acc)?);
                        if next == acc {
                            return Ok(acc);
                        }
                        acc = next;
                    }
                    Err(SemError::Divergence)
                }
            }
        })
    }

    /// Cached guard satisfaction set `⟦b?⟧Σ` ([`Concrete::sat`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`]; errors are not cached.
    pub fn sat(&self, sem: &Concrete<'_>, b: &BExp) -> Result<StateSet, SemError> {
        if self.backend == EngineBackend::Symbolic {
            return self.sat.try_get_or_insert_with(b, || {
                let eng = SymEngine::new(sem.universe());
                eng.sat(b).map(|out| eng.to_set(&out))
            });
        }
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
        assert_eq!(cache.bypass_threshold(), DEFAULT_BYPASS_THRESHOLD);
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
    fn symbolic_backend_matches_enumerative_cache() {
        let u = Universe::new(&[("x", -6, 6), ("y", 0, 4)]).unwrap();
        let sem = Concrete::new(&u);
        let strict = Concrete::strict(&u);
        let wlp = Wlp::new(&u);
        let plain = SemCache::with_bypass_threshold(0);
        let symbolic = SemCache::symbolic();
        assert_eq!(symbolic.backend(), EngineBackend::Symbolic);
        assert_eq!(plain.backend(), EngineBackend::Enumerative);
        // Symbolic caches never bypass or demote — every query must reach
        // the symbolic engine.
        assert!(!symbolic.is_bypassed(1));
        assert!(!symbolic.demote_for(1));
        assert_eq!(symbolic.bypass_count(), 0);
        let prog = parse_program(
            "x := 0 - x; star { assume x < 6; x := x + 1; y := y + 1 }; assume y <= 4",
        )
        .unwrap();
        let inputs = [
            u.full(),
            u.empty(),
            u.filter(|s| s[0] * s[0] <= 9 && s[1] % 2 == 0),
        ];
        for s in &inputs {
            assert_eq!(
                symbolic.exec(&sem, &prog, s).unwrap(),
                plain.exec(&sem, &prog, s).unwrap()
            );
            assert_eq!(
                symbolic.wlp_reg(&wlp, &prog, s).unwrap(),
                plain.wlp_reg(&wlp, &prog, s).unwrap()
            );
        }
        // Strict-mode errors agree too (and neither is cached).
        let esc = parse_program("x := x * 7").unwrap();
        assert_eq!(
            format!("{:?}", symbolic.exec(&strict, &esc, &u.full())),
            format!("{:?}", plain.exec(&strict, &esc, &u.full()))
        );
        let b = parse_bexp("x * y > 3 || x = 0 - 6").unwrap();
        assert_eq!(
            symbolic.sat(&sem, &b).unwrap(),
            plain.sat(&sem, &b).unwrap()
        );
        // Top-level results are memoized: re-querying hits.
        let before = symbolic.stats().hits;
        symbolic.exec(&sem, &prog, &u.full()).unwrap();
        assert!(symbolic.stats().hits > before);
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
