//! Thread-safe memoization: sharded memo tables and hash-consing.
//!
//! The repair engine applies the same closure operators, transfer
//! functions and `wlp` transformers to the same bitsets over and over —
//! across restarts of the forward analysis (Algorithm 1), across the
//! recursive calls of backward repair (Algorithm 2), and across the
//! programs of a corpus sweep. This module provides the shared cache
//! substrate:
//!
//! - [`MemoTable`] — a sharded, lock-striped map from keys to computed
//!   values with atomic hit/miss counters. Cloning a table is cheap and
//!   *shares* the underlying storage, so one cache can serve many worker
//!   threads.
//! - [`Interner`] — hash-consing for immutable values (notably
//!   [`BitVecSet`](crate::BitVecSet) closure results): structurally equal
//!   values are stored once and shared behind an [`Arc`].
//! - [`CacheStats`] — a snapshot of hit/miss/entry counters, the raw
//!   material for the CLI `--stats` flag and the benchmark tables.
//!
//! Determinism: memoized functions must be pure. A [`MemoTable`] never
//! changes *what* is computed, only whether it is recomputed, so cached
//! and uncached runs are bitwise identical (the differential tests in the
//! umbrella crate enforce this).

use air_trace::{EventKind, Tracer};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of lock stripes per table; a power of two so the shard index is
/// a cheap mask of the key hash.
const NUM_SHARDS: usize = 16;

/// A point-in-time snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute (and then stored the result).
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the table, in `[0, 1]`; `0` when
    /// no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Pointwise sum of two snapshots (for aggregating several caches).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries
        )
    }
}

/// One lock stripe with its own hit/miss counters, padded to a cache
/// line: under a parallel sweep every worker hammers the counters of the
/// shards it touches, and without the alignment two adjacent shards'
/// counters land on one line and ping-pong between cores (false sharing).
/// Padding costs a few bytes per shard and makes each stripe's hot state
/// — lock word and counters — private to the cores using that stripe.
#[repr(align(64))]
struct Shard<K, V> {
    map: RwLock<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

struct MemoInner<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// Fixed-seed shard selector: the key→shard mapping must be the same
    /// in every process so that observable per-shard effects (chaos
    /// poisoning, quarantine counts) are run-to-run deterministic. The
    /// maps inside the shards keep `RandomState` — their iteration order
    /// never leaks into results.
    hasher: BuildHasherDefault<DefaultHasher>,
    /// Shards rebuilt after a writer panicked while holding their lock.
    quarantines: AtomicU64,
    /// Set at most once (by [`MemoTable::set_tracer`]); when present,
    /// every counted hit/miss also emits a `cache_hit`/`cache_miss`
    /// trace event tagged with the table name. Reading an unset
    /// `OnceLock` is one atomic load, so untraced tables stay cheap.
    trace: OnceLock<(&'static str, Tracer)>,
}

/// A sharded, thread-safe memo table.
///
/// `clone()` is shallow: all clones share the same storage and counters,
/// which is how one cache is handed to every worker of a parallel sweep.
pub struct MemoTable<K, V> {
    inner: Arc<MemoInner<K, V>>,
}

impl<K, V> Clone for MemoTable<K, V> {
    fn clone(&self) -> Self {
        MemoTable {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> MemoTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        MemoTable {
            inner: Arc::new(MemoInner {
                shards: (0..NUM_SHARDS).map(|_| Shard::default()).collect(),
                hasher: BuildHasherDefault::default(),
                quarantines: AtomicU64::new(0),
                trace: OnceLock::new(),
            }),
        }
    }

    /// Tag this table (and every clone sharing its storage) with a trace
    /// name and start emitting `cache_hit`/`cache_miss` events through
    /// `tracer`. Disabled tracers are ignored; only the first enabled
    /// tracer wins — later calls are no-ops.
    pub fn set_tracer(&self, table: &'static str, tracer: &Tracer) {
        if tracer.is_enabled() {
            let _ = self.inner.trace.set((table, tracer.clone()));
        }
    }

    fn trace_lookup(&self, hit: bool) {
        if let Some((name, tracer)) = self.inner.trace.get() {
            tracer.emit_with(|| {
                if hit {
                    EventKind::CacheHit { table: name }
                } else {
                    EventKind::CacheMiss { table: name }
                }
            });
        }
    }

    /// Acquires a shard's read lock, quarantining the shard first if a
    /// panicking writer poisoned it: the shard is cleared and rebuilt, so
    /// the lookup proceeds as a miss (uncached evaluation) instead of
    /// propagating the poison panic. Purity of memoized functions makes
    /// this sound — losing entries only costs recomputation.
    fn shard_read(&self, idx: usize) -> RwLockReadGuard<'_, HashMap<K, V>> {
        let shard = &self.inner.shards[idx].map;
        match shard.read() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // The error owns a guard on this very lock; release it
                // before quarantine re-locks, or we deadlock on ourselves.
                drop(poisoned);
                self.quarantine(idx);
                shard.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Write-lock counterpart of [`shard_read`](Self::shard_read).
    fn shard_write(&self, idx: usize) -> RwLockWriteGuard<'_, HashMap<K, V>> {
        let shard = &self.inner.shards[idx].map;
        match shard.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                drop(poisoned);
                self.quarantine(idx);
                shard.write().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Clears a poisoned shard and counts/traces the quarantine.
    #[cold]
    fn quarantine(&self, idx: usize) {
        let shard = &self.inner.shards[idx].map;
        shard.clear_poison();
        let mut guard = shard.write().unwrap_or_else(|p| {
            shard.clear_poison();
            p.into_inner()
        });
        guard.clear();
        self.inner.quarantines.fetch_add(1, Ordering::Relaxed);
        if let Some((name, tracer)) = self.inner.trace.get() {
            tracer.emit_with(|| EventKind::ShardQuarantined {
                table: name,
                shard: idx as u64,
            });
        }
    }

    /// Shards quarantined (cleared after a writer panic) so far.
    pub fn quarantine_count(&self) -> u64 {
        self.inner.quarantines.load(Ordering::Relaxed)
    }

    /// Fault-injection hook: deliberately poisons shard `idx % NUM_SHARDS`
    /// by panicking while holding its write lock, exactly as a crashing
    /// writer would. The next access quarantines and rebuilds the shard.
    /// Used by the chaos harness; harmless (one cleared shard) otherwise.
    pub fn chaos_poison_shard(&self, idx: usize) {
        let shard = &self.inner.shards[idx % NUM_SHARDS].map;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.write().unwrap_or_else(PoisonError::into_inner);
            panic!("chaos: poisoning memo shard {idx}");
        }));
    }

    /// Distinct keys currently stored.
    pub fn len(&self) -> usize {
        (0..self.inner.shards.len())
            .map(|i| self.shard_read(i).len())
            .sum()
    }

    /// `true` if no key is stored.
    pub fn is_empty(&self) -> bool {
        (0..self.inner.shards.len()).all(|i| self.shard_read(i).is_empty())
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        for i in 0..self.inner.shards.len() {
            self.shard_write(i).clear();
        }
    }

    /// Snapshot of the hit/miss/entry counters (summed across shards).
    pub fn stats(&self) -> CacheStats {
        let (mut hits, mut misses) = (0, 0);
        for shard in self.inner.shards.iter() {
            hits += shard.hits.load(Ordering::Relaxed);
            misses += shard.misses.load(Ordering::Relaxed);
        }
        CacheStats {
            hits,
            misses,
            entries: self.len(),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> MemoTable<K, V> {
    fn shard_index(&self, key: &K) -> usize {
        let h = self.inner.hasher.hash_one(key) as usize;
        h & (NUM_SHARDS - 1)
    }

    /// Looks up `key` without counting a hit or miss.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard_read(self.shard_index(key)).get(key).cloned()
    }

    /// Returns the cached value for `key`, computing and storing it with
    /// `compute` on a miss.
    ///
    /// `compute` runs *outside* the shard lock, so concurrent misses on
    /// the same key may compute twice; `compute` must therefore be pure
    /// (the first stored value wins, and purity makes both identical).
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        let idx = self.shard_index(key);
        if let Some(v) = self.shard_read(idx).get(key) {
            self.inner.shards[idx].hits.fetch_add(1, Ordering::Relaxed);
            self.trace_lookup(true);
            return v.clone();
        }
        self.inner.shards[idx]
            .misses
            .fetch_add(1, Ordering::Relaxed);
        self.trace_lookup(false);
        let value = compute();
        self.shard_write(idx)
            .entry(key.clone())
            .or_insert_with(|| value.clone());
        value
    }

    /// Stores `value` for `key` unconditionally (no counter update).
    pub fn insert(&self, key: K, value: V) {
        let idx = self.shard_index(&key);
        self.shard_write(idx).insert(key, value);
    }

    /// Fallible [`get_or_insert_with`](MemoTable::get_or_insert_with):
    /// only `Ok` results are cached, errors are recomputed on every call.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let idx = self.shard_index(key);
        if let Some(v) = self.shard_read(idx).get(key) {
            self.inner.shards[idx].hits.fetch_add(1, Ordering::Relaxed);
            self.trace_lookup(true);
            return Ok(v.clone());
        }
        self.inner.shards[idx]
            .misses
            .fetch_add(1, Ordering::Relaxed);
        self.trace_lookup(false);
        let value = compute()?;
        self.shard_write(idx)
            .entry(key.clone())
            .or_insert_with(|| value.clone());
        Ok(value)
    }
}

impl<K, V> fmt::Debug for MemoTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoTable")
            .field("stats", &self.stats())
            .finish()
    }
}

struct InternerInner<T> {
    shards: Vec<RwLock<HashSet<Arc<T>>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A hash-consing pool: structurally equal values are stored once.
///
/// [`intern`](Interner::intern) returns an [`Arc`] to the canonical copy,
/// so memo tables whose values repeat (closure operators map *many*
/// inputs to *few* fixpoints) hold one allocation per distinct value.
/// Cloning an interner shares the pool.
pub struct Interner<T> {
    inner: Arc<InternerInner<T>>,
}

impl<T> Clone for Interner<T> {
    fn clone(&self) -> Self {
        Interner {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Interner<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Interner {
            inner: Arc::new(InternerInner {
                shards: (0..NUM_SHARDS)
                    .map(|_| RwLock::new(HashSet::new()))
                    .collect(),
                hasher: RandomState::new(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Distinct values currently pooled.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().unwrap().len())
            .sum()
    }

    /// `true` if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.inner
            .shards
            .iter()
            .all(|s| s.read().unwrap().is_empty())
    }

    /// Drops every pooled value (outstanding `Arc`s stay alive; only the
    /// canonical pool is emptied). The reset hook behind `air serve
    /// flush`: long-lived engine processes can shed warm state without
    /// re-creating the interner handles that clones already share.
    pub fn clear(&self) {
        for shard in self.inner.shards.iter() {
            shard.write().unwrap().clear();
        }
    }

    /// Snapshot of the hit/miss/entry counters (a hit means the value was
    /// already pooled).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl<T: Hash + Eq> Interner<T> {
    /// Returns the canonical shared copy of `value`, pooling it first if
    /// it is new.
    pub fn intern(&self, value: T) -> Arc<T> {
        let h = self.inner.hasher.hash_one(&value) as usize;
        let shard = &self.inner.shards[h & (NUM_SHARDS - 1)];
        if let Some(existing) = shard.read().unwrap().get(&value) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.write().unwrap();
        if let Some(existing) = guard.get(&value) {
            return Arc::clone(existing);
        }
        let arc = Arc::new(value);
        guard.insert(Arc::clone(&arc));
        arc
    }
}

impl<T> fmt::Debug for Interner<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVecSet;

    #[test]
    fn memo_table_counts_hits_and_misses() {
        let table: MemoTable<u32, u32> = MemoTable::new();
        assert_eq!(table.get_or_insert_with(&3, || 9), 9);
        assert_eq!(table.get_or_insert_with(&3, || unreachable!()), 9);
        assert_eq!(table.get_or_insert_with(&4, || 16), 16);
        let stats = table.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn memo_table_clones_share_storage() {
        let a: MemoTable<u8, u8> = MemoTable::new();
        let b = a.clone();
        a.get_or_insert_with(&1, || 2);
        assert_eq!(b.peek(&1), Some(2));
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn memo_table_is_shared_across_threads() {
        let table: MemoTable<u64, u64> = MemoTable::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = table.clone();
                s.spawn(move || {
                    for k in 0..64u64 {
                        assert_eq!(t.get_or_insert_with(&k, || k * k), k * k);
                    }
                });
            }
        });
        assert_eq!(table.len(), 64);
        assert_eq!(table.stats().lookups(), 4 * 64);
    }

    #[test]
    fn poisoned_shard_is_quarantined_and_rebuilt() {
        let table: MemoTable<u32, u32> = MemoTable::new();
        for k in 0..64 {
            table.insert(k, k + 1);
        }
        // Poison every shard the way a crashing writer would.
        for idx in 0..16 {
            table.chaos_poison_shard(idx);
        }
        // Every lookup still answers — via quarantine (clear + recompute),
        // never by propagating the poison panic.
        for k in 0..64u32 {
            assert_eq!(table.get_or_insert_with(&k, || k + 1), k + 1);
        }
        assert!(table.quarantine_count() >= 1, "quarantines were counted");
        // The table is functional again: entries stick.
        assert_eq!(table.peek(&0), Some(1));
    }

    #[test]
    fn quarantine_emits_shard_quarantined_events() {
        use air_trace::{MemorySink, Tracer};

        let table: MemoTable<u32, u32> = MemoTable::new();
        let sink = Arc::new(MemorySink::new());
        table.set_tracer("exec", &Tracer::new(sink.clone()));
        table.insert(7, 7);
        for idx in 0..16 {
            table.chaos_poison_shard(idx);
        }
        table.get_or_insert_with(&7, || 7);
        let quarantined: Vec<_> = sink
            .drain()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::ShardQuarantined { .. }))
            .collect();
        assert!(
            !quarantined.is_empty(),
            "a shard_quarantined event must be traced"
        );
        match &quarantined[0].kind {
            EventKind::ShardQuarantined { table: t, .. } => assert_eq!(*t, "exec"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn interner_dedupes_bitsets() {
        let pool: Interner<BitVecSet> = Interner::new();
        let a = pool.intern(BitVecSet::from_indices(16, [1, 5, 9]));
        let b = pool.intern(BitVecSet::from_indices(16, [1, 5, 9]));
        let c = pool.intern(BitVecSet::from_indices(16, [2]));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.len(), 2);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn stats_merge_and_display() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        let b = CacheStats {
            hits: 1,
            misses: 3,
            entries: 2,
        };
        let m = a.merged(&b);
        assert_eq!((m.hits, m.misses, m.entries), (4, 4, 3));
        assert_eq!(m.hit_rate(), 0.5);
        assert!(format!("{m}").contains("50.0%"));
    }

    #[test]
    fn traced_table_emits_hit_and_miss_events() {
        use air_trace::{MemorySink, Tracer};

        let table: MemoTable<u32, u32> = MemoTable::new();
        // A disabled tracer must not claim the slot.
        table.set_tracer("closure", &Tracer::disabled());
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        table.set_tracer("closure", &tracer);
        table.get_or_insert_with(&1, || 1); // miss
        table.get_or_insert_with(&1, || 1); // hit
        let events = sink.drain();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.kind_name()).collect();
        assert_eq!(kinds, ["cache_miss", "cache_hit"]);
        for e in &events {
            match &e.kind {
                EventKind::CacheHit { table } | EventKind::CacheMiss { table } => {
                    assert_eq!(*table, "closure");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}
