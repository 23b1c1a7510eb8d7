//! Lock-free fixed-boundary histogram with log2 buckets.
//!
//! Bucket `i` counts observations `v` with `bucket_of(v) == i`, where
//! `bucket_of(0) = 0` and `bucket_of(v) = floor(log2 v) + 1` otherwise —
//! i.e. bucket 0 holds exactly `{0}`, bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i)`, and the inclusive upper bound of bucket `i` is
//! `2^i - 1` (saturating to `u64::MAX` for the last bucket). 65 buckets
//! cover the full `u64` range, so `observe` never clamps and never
//! allocates: it is three `Relaxed` atomic adds.
//!
//! ## Snapshot ordering
//!
//! `observe` increments the bucket *before* the total count, and
//! [`Histogram::counts`]/[`Histogram::count`] readers that load `count`
//! first then the buckets therefore always see
//! `sum(buckets) >= count` — a snapshot taken mid-observation can only
//! over-report buckets, never lose one. Once writers are quiescent the
//! two are exactly equal; the thread-stress test below and the
//! `schema_check` bin both gate on that invariant.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for an observed value (see module docs for the mapping).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: the largest value it can hold.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram over `u64` observations (durations in ns,
/// fuel amounts, sizes — anything non-negative).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        // `[T; 65]` has no derived Default (std stops at 32).
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. Three `Relaxed` RMWs, no locks, no
    /// allocation; safe to call from any number of threads.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Count last: readers loading `count` before `buckets` see
        // sum(buckets) >= count (never a lost observation).
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping on overflow, like Prometheus
    /// client libraries; irrelevant below ~2^64 total ns ≈ 584 years).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, loaded bucket-by-bucket. Load `count()` first
    /// if you need the `sum(buckets) >= count` invariant (see module
    /// docs).
    pub fn counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. At most one bucket (≤ 2x) of relative
    /// error by construction; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.counts(), q)
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let out = Histogram::new();
        // Count first so the clone satisfies sum(buckets) >= count even
        // if the source is being written concurrently.
        out.count.store(self.count(), Ordering::Relaxed);
        out.sum.store(self.sum(), Ordering::Relaxed);
        for (dst, src) in out.buckets.iter().zip(self.buckets.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count() == other.count()
            && self.sum() == other.sum()
            && self.counts() == other.counts()
    }
}

impl Eq for Histogram {}

/// Quantile estimate over a raw bucket array (shared by [`Histogram`]
/// and snapshot rows that only kept the nonzero buckets).
pub(crate) fn quantile_from_counts(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn bucket_mapping_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn observe_accumulates_count_sum_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.counts().iter().sum::<u64>(), 6);
        assert_eq!(h.counts()[0], 1); // {0}
        assert_eq!(h.counts()[2], 2); // {2,3}
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, ub 15
        }
        h.observe(1000); // bucket 10, ub 1023
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.99), 15);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    /// Satellite 3 (part 1): thread-stress the snapshot-consistency
    /// invariant. Eight writers hammer one histogram while a reader
    /// repeatedly checks `sum(buckets) >= count` (count loaded first);
    /// after join the totals must be exact.
    #[test]
    fn concurrent_observers_never_lose_an_observation() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        // Mix of buckets, deterministic per writer.
                        h.observe((w as u64).wrapping_mul(31).wrapping_add(i) % 4096);
                    }
                })
            })
            .collect();
        // Live reader: count first, buckets second => never under-counts.
        for _ in 0..1000 {
            let count = h.count();
            let bucket_sum: u64 = h.counts().iter().sum();
            assert!(
                bucket_sum >= count,
                "mid-flight snapshot lost observations: buckets {bucket_sum} < count {count}"
            );
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        let expected = (WRITERS as u64) * PER_WRITER;
        assert_eq!(h.count(), expected);
        assert_eq!(h.counts().iter().sum::<u64>(), expected);
    }
}
