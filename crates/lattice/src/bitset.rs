//! A compact dynamic bitset with copy-on-write storage.
//!
//! [`BitVecSet`] is the backing representation for sets of states over a
//! finite universe: each state has an index, and a concrete property is the
//! bitset of indices it contains. All binary operations require both
//! operands to have the same capacity (they always do in practice because a
//! universe fixes the capacity once).
//!
//! # Storage and cost model
//!
//! The word block lives behind an [`Arc`], so `clone()` is one reference
//! bump — cache keys, memo values and the point vectors of the repair
//! engines copy sets constantly, and none of those copies touch the words.
//! Mutating methods ([`insert`](BitVecSet::insert),
//! [`union_with`](BitVecSet::union_with), …) copy the block first only when
//! it is shared (`Arc::make_mut`).
//!
//! The block also carries a lazily computed, cached hash: the first
//! [`Hash`] of a set walks the words once, every later hash of any clone is
//! a single load. Equality short-circuits on pointer identity and on
//! *differing* cached hashes before it ever compares words. Both make
//! memo-table lookups keyed on sets O(1) in the set size after first use.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORD_BITS: usize = 64;

/// The bits of the word holding index `end - 1` that lie below `end`
/// (`end > 0`): all of them when `end` falls on a word boundary.
#[inline]
fn tail_mask(end: usize) -> u64 {
    u64::MAX >> (WORD_BITS - 1 - (end - 1) % WORD_BITS)
}

/// The shared word block: the bits plus a cached hash of the whole set
/// (`0` = not computed yet; a computed hash of `0` is stored as `1`).
struct Words {
    bits: Vec<u64>,
    hash: AtomicU64,
}

impl Clone for Words {
    fn clone(&self) -> Self {
        Words {
            bits: self.bits.clone(),
            // The copy holds identical bits, so the cached hash stays valid;
            // mutators reset it after `make_mut` regardless.
            hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)),
        }
    }
}

/// A fixed-capacity set of `usize` indices backed by a shared `Vec<u64>`.
///
/// # Example
///
/// ```
/// use air_lattice::bitset::BitVecSet;
///
/// let mut s = BitVecSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(97));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone)]
pub struct BitVecSet {
    nbits: usize,
    words: Arc<Words>,
}

impl BitVecSet {
    fn from_words(nbits: usize, bits: Vec<u64>) -> Self {
        BitVecSet {
            nbits,
            words: Arc::new(Words {
                bits,
                hash: AtomicU64::new(0),
            }),
        }
    }

    /// Creates an empty set with capacity for indices `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        Self::from_words(nbits, vec![0; nbits.div_ceil(WORD_BITS)])
    }

    /// Creates the full set `{0, …, nbits-1}`.
    pub fn full(nbits: usize) -> Self {
        let mut bits = vec![u64::MAX; nbits.div_ceil(WORD_BITS)];
        let rem = nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = bits.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        Self::from_words(nbits, bits)
    }

    /// Creates a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= nbits`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, indices: I) -> Self {
        let mut s = Self::new(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The capacity (number of representable indices).
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// The words, read-only.
    #[inline]
    fn bits(&self) -> &[u64] {
        &self.words.bits
    }

    /// The words for mutation: unshares the block if needed and resets the
    /// cached hash (the caller is about to change the contents).
    #[inline]
    fn bits_mut(&mut self) -> &mut Vec<u64> {
        let w = Arc::make_mut(&mut self.words);
        *w.hash.get_mut() = 0;
        &mut w.bits
    }

    /// The cached whole-set hash, computing and storing it on first use.
    /// A pure function of `(nbits, words)`, so equal sets always agree.
    fn cached_hash(&self) -> u64 {
        let h = self.words.hash.load(Ordering::Relaxed);
        if h != 0 {
            return h;
        }
        let mut hasher = std::hash::DefaultHasher::new();
        self.nbits.hash(&mut hasher);
        self.words.bits.hash(&mut hasher);
        let h = hasher.finish().max(1); // 0 is the "unset" sentinel
        self.words.hash.store(h, Ordering::Relaxed);
        h
    }

    /// Zeroes any bits beyond `nbits` in the last word.
    fn trim(&mut self) {
        let nbits = self.nbits;
        let rem = nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.bits_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `index`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.nbits,
            "index {index} out of capacity {}",
            self.nbits
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        if self.bits()[w] & (1 << b) != 0 {
            return false; // already present: no unsharing, no hash reset
        }
        self.bits_mut()[w] |= 1 << b;
        true
    }

    /// Inserts every index in `lo..hi`: the words strictly inside the range
    /// are filled whole, the two edge words by one mask each, all behind a
    /// single unsharing. An empty range (`lo >= hi`) changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `hi > capacity()` on a non-empty range.
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        assert!(
            hi <= self.nbits,
            "range end {hi} out of capacity {}",
            self.nbits
        );
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        let head = u64::MAX << (lo % WORD_BITS);
        let tail = tail_mask(hi);
        let bits = self.bits_mut();
        if first == last {
            bits[first] |= head & tail;
        } else {
            bits[first] |= head;
            bits[first + 1..last].fill(u64::MAX);
            bits[last] |= tail;
        }
    }

    /// The smallest index of the set in `lo..hi`, found a word at a time.
    /// Indices past the capacity are never members.
    pub fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let hi = hi.min(self.nbits);
        if lo >= hi {
            return None;
        }
        let bits = self.bits();
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        let mut wi = first;
        let mut w = bits[first] & (u64::MAX << (lo % WORD_BITS));
        loop {
            if wi == last {
                w &= tail_mask(hi);
            }
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
            if wi == last {
                return None;
            }
            wi += 1;
            w = bits[wi];
        }
    }

    /// The largest index of the set in `lo..hi`, found a word at a time.
    /// Indices past the capacity are never members.
    pub fn last_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let hi = hi.min(self.nbits);
        if lo >= hi {
            return None;
        }
        let bits = self.bits();
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        let mut wi = last;
        let mut w = bits[last] & tail_mask(hi);
        loop {
            if wi == first {
                w &= u64::MAX << (lo % WORD_BITS);
            }
            if w != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
            if wi == first {
                return None;
            }
            wi -= 1;
            w = bits[wi];
        }
    }

    /// Removes `index`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < self.nbits,
            "index {index} out of capacity {}",
            self.nbits
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        if self.bits()[w] & (1 << b) == 0 {
            return false;
        }
        self.bits_mut()[w] &= !(1 << b);
        true
    }

    /// Returns `true` if `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.nbits {
            return false;
        }
        self.bits()[index / WORD_BITS] & (1 << (index % WORD_BITS)) != 0
    }

    /// Number of elements (word-parallel popcount).
    pub fn len(&self) -> usize {
        self.bits().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits().iter().all(|&w| w == 0)
    }

    /// Returns `true` if the set contains every index in `0..capacity()`.
    pub fn is_full(&self) -> bool {
        self.len() == self.nbits
    }

    fn check_same_capacity(&self, other: &Self) {
        assert_eq!(
            self.nbits, other.nbits,
            "bitset capacity mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return self.clone();
        }
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a | b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersection(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return self.clone();
        }
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a & b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a & !b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Complement within the capacity.
    pub fn complement(&self) -> Self {
        let mut s = Self::from_words(self.nbits, self.bits().iter().map(|w| !w).collect());
        s.trim();
        s
    }

    /// Returns `true` if every element of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        self.bits()
            .iter()
            .zip(other.bits())
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no element.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_same_capacity(other);
        self.bits()
            .iter()
            .zip(other.bits())
            .all(|(a, b)| a & b == 0)
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return;
        }
        for (a, b) in self.bits_mut().iter_mut().zip(other.bits()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return;
        }
        for (a, b) in self.bits_mut().iter_mut().zip(other.bits()) {
            *a &= b;
        }
    }

    /// Iterates over the indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.bits();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Calls `f` on every index in ascending order. The word-chunked inner
    /// loop avoids the iterator's per-element state machine — use this in
    /// hot paths that visit whole sets (transfer functions, α/γ sweeps).
    #[inline]
    pub fn for_each_index(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.bits().iter().enumerate() {
            let mut cur = w;
            let base = wi * WORD_BITS;
            while cur != 0 {
                let b = cur.trailing_zeros() as usize;
                cur &= cur - 1;
                f(base + b);
            }
        }
    }

    /// The smallest index in the set, if any.
    pub fn min_index(&self) -> Option<usize> {
        self.bits()
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * WORD_BITS + w.trailing_zeros() as usize)
    }
}

impl fmt::Debug for BitVecSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for BitVecSet {
    fn eq(&self, other: &Self) -> bool {
        if self.nbits != other.nbits {
            return false;
        }
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        let (ha, hb) = (
            self.words.hash.load(Ordering::Relaxed),
            other.words.hash.load(Ordering::Relaxed),
        );
        if ha != 0 && hb != 0 && ha != hb {
            return false;
        }
        self.bits() == other.bits()
    }
}

impl Eq for BitVecSet {}

impl Hash for BitVecSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cached_hash());
    }
}

impl PartialOrd for BitVecSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic order on the word representation — a total order used only
/// for deterministic sorting and map keys, *not* the subset order (use
/// [`BitVecSet::is_subset`] for that).
impl Ord for BitVecSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.nbits
            .cmp(&other.nbits)
            .then_with(|| self.bits().cmp(other.bits()))
    }
}

/// Iterator over set indices in ascending order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitVecSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitVecSet::new(130);
        let f = BitVecSet::full(130);
        assert!(e.is_empty());
        assert!(f.is_full());
        assert_eq!(f.len(), 130);
        assert_eq!(e.complement(), f);
        assert_eq!(f.complement(), e);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitVecSet::new(70);
        assert!(s.insert(0));
        assert!(s.insert(69));
        assert!(!s.insert(69));
        assert!(s.contains(0) && s.contains(69) && !s.contains(35));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitVecSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!BitVecSet::full(4).contains(100));
    }

    #[test]
    fn set_algebra() {
        let a = BitVecSet::from_indices(100, [1, 2, 3, 64, 65]);
        let b = BitVecSet::from_indices(100, [3, 64, 99]);
        assert_eq!(a.intersection(&b), BitVecSet::from_indices(100, [3, 64]));
        assert_eq!(
            a.union(&b),
            BitVecSet::from_indices(100, [1, 2, 3, 64, 65, 99])
        );
        assert_eq!(a.difference(&b), BitVecSet::from_indices(100, [1, 2, 65]));
        assert!(BitVecSet::from_indices(100, [3]).is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&BitVecSet::from_indices(100, [0, 50])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn complement_respects_capacity() {
        // Capacity not a multiple of 64: complement must not set ghost bits.
        let s = BitVecSet::from_indices(67, [0, 66]);
        let c = s.complement();
        assert_eq!(c.len(), 65);
        assert!(!c.contains(66));
        assert!(c.contains(65));
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn iter_ascending() {
        let s = BitVecSet::from_indices(200, [199, 0, 63, 64, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
        assert_eq!(s.min_index(), Some(0));
        assert_eq!(BitVecSet::new(8).min_index(), None);
    }

    #[test]
    fn in_place_ops() {
        let mut a = BitVecSet::from_indices(10, [1, 2]);
        a.union_with(&BitVecSet::from_indices(10, [2, 3]));
        assert_eq!(a, BitVecSet::from_indices(10, [1, 2, 3]));
        a.intersect_with(&BitVecSet::from_indices(10, [3, 4]));
        assert_eq!(a, BitVecSet::from_indices(10, [3]));
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut a = BitVecSet::from_indices(200, [5, 100]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.words, &b.words));
        a.insert(7);
        assert!(!Arc::ptr_eq(&a.words, &b.words), "mutation unshares");
        assert!(!b.contains(7), "the clone is unaffected");
        assert!(a.contains(7));
        // Re-inserting a present bit is a no-op and must not unshare.
        let c = a.clone();
        let mut d = a.clone();
        assert!(!d.insert(7));
        assert!(Arc::ptr_eq(&c.words, &d.words));
    }

    #[test]
    fn cached_hash_tracks_mutation() {
        use std::collections::hash_map::DefaultHasher;
        fn h(s: &BitVecSet) -> u64 {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        }
        let mut a = BitVecSet::from_indices(100, [1, 2, 3]);
        let before = h(&a);
        assert_eq!(before, h(&a.clone()), "clones hash equal");
        a.insert(50);
        assert_ne!(before, h(&a), "hash invalidated by mutation");
        a.remove(50);
        assert_eq!(before, h(&a), "equal contents, equal hash");
        assert_eq!(a, BitVecSet::from_indices(100, [1, 2, 3]));
    }

    #[test]
    fn equality_after_hashing_both_sides() {
        // Exercise the differing-cached-hash fast path.
        let a = BitVecSet::from_indices(100, [1]);
        let b = BitVecSet::from_indices(100, [2]);
        let _ = a.cached_hash();
        let _ = b.cached_hash();
        assert_ne!(a, b);
        let c = BitVecSet::from_indices(100, [1]);
        let _ = c.cached_hash();
        assert_eq!(a, c);
    }

    #[test]
    fn for_each_index_matches_iter() {
        let s = BitVecSet::from_indices(300, [0, 1, 63, 64, 65, 128, 299]);
        let mut via_fn = Vec::new();
        s.for_each_index(|i| via_fn.push(i));
        assert_eq!(via_fn, s.iter().collect::<Vec<_>>());
        let empty = BitVecSet::new(300);
        empty.for_each_index(|_| panic!("no indices in the empty set"));
    }

    #[test]
    fn insert_range_fills_across_word_seams() {
        let mut s = BitVecSet::new(200);
        s.insert_range(60, 130);
        assert_eq!(s.iter().collect::<Vec<_>>(), (60..130).collect::<Vec<_>>());
        s.insert_range(5, 5);
        s.insert_range(9, 3);
        assert_eq!(s.len(), 70, "empty ranges insert nothing");
        // Exactly one word, and the last partial word up to the capacity.
        let mut t = BitVecSet::new(200);
        t.insert_range(64, 128);
        t.insert_range(190, 200);
        assert_eq!(t.len(), 74);
        assert!(t.contains(64) && t.contains(127) && !t.contains(128));
        assert!(t.contains(199) && !t.contains(189));
        assert_eq!(t.complement().len(), 126, "no ghost bits past the capacity");
    }

    #[test]
    fn empty_insert_range_keeps_the_share() {
        let a = BitVecSet::from_indices(100, [1]);
        let mut b = a.clone();
        b.insert_range(50, 50);
        assert!(Arc::ptr_eq(&a.words, &b.words));
        b.insert_range(50, 51);
        assert!(!Arc::ptr_eq(&a.words, &b.words) && !a.contains(50));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_range_past_capacity_panics() {
        BitVecSet::new(70).insert_range(60, 71);
    }

    #[test]
    fn first_and_last_in_scan_words() {
        let s = BitVecSet::from_indices(200, [3, 63, 64, 130, 199]);
        assert_eq!(s.first_in(0, 200), Some(3));
        assert_eq!(s.first_in(4, 200), Some(63));
        assert_eq!(s.first_in(65, 130), None, "the end is exclusive");
        assert_eq!(s.first_in(65, 131), Some(130));
        assert_eq!(
            s.first_in(131, 1_000),
            Some(199),
            "ends clamp to the capacity"
        );
        assert_eq!(s.last_in(0, 200), Some(199));
        assert_eq!(s.last_in(0, 199), Some(130));
        assert_eq!(s.last_in(64, 130), Some(64));
        assert_eq!(s.last_in(4, 63), None);
        assert_eq!(s.first_in(10, 10), None);
        assert_eq!(s.last_in(10, 2), None);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        BitVecSet::new(4).union(&BitVecSet::new(5));
    }
}
