//! Differential property tests for the word-parallel bitset kernels.
//!
//! Every kernel operation on [`BitVecSet`] is checked against a naive
//! per-bit reference model (`Vec<bool>`) on randomly generated sets whose
//! capacities straddle word boundaries. A kernel bug that mishandles ghost
//! bits, word seams, or the copy-on-write/cached-hash fast paths shows up
//! as a divergence from the model here. The range kernels
//! (`insert_range`, `first_in`, `last_in`) are checked against per-bit
//! loops over the same range.

use air_lattice::bitset::BitVecSet;
use proptest::prelude::*;

/// The reference model: one bool per index, every op is a per-bit loop.
#[derive(Clone, Debug, PartialEq)]
struct Naive(Vec<bool>);

impl Naive {
    fn new(nbits: usize, indices: &[usize]) -> Self {
        let mut v = vec![false; nbits];
        for &i in indices {
            v[i % nbits.max(1)] = true;
        }
        Naive(v)
    }

    fn zip(&self, other: &Self, f: impl Fn(bool, bool) -> bool) -> Self {
        Naive(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    fn indices(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }
}

fn build(nbits: usize, indices: &[usize]) -> (BitVecSet, Naive) {
    let model = Naive::new(nbits, indices);
    let set = BitVecSet::from_indices(nbits, model.indices());
    (set, model)
}

fn assert_matches(set: &BitVecSet, model: &Naive, what: &str) {
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        model.indices(),
        "{what}: kernel disagrees with per-bit reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary kernels (union/intersection/difference) against per-bit zips,
    /// plus the derived predicates and in-place variants.
    #[test]
    fn binary_kernels_match_reference(
        nbits in 1usize..=200,
        xs in proptest::collection::vec(0usize..200, 0..40),
        ys in proptest::collection::vec(0usize..200, 0..40),
    ) {
        let (a, ma) = build(nbits, &xs);
        let (b, mb) = build(nbits, &ys);

        assert_matches(&a.union(&b), &ma.zip(&mb, |x, y| x | y), "union");
        assert_matches(&a.intersection(&b), &ma.zip(&mb, |x, y| x & y), "intersection");
        assert_matches(&a.difference(&b), &ma.zip(&mb, |x, y| x & !y), "difference");

        let subset_ref = ma.0.iter().zip(&mb.0).all(|(&x, &y)| !x || y);
        prop_assert_eq!(a.is_subset(&b), subset_ref);
        let disjoint_ref = ma.0.iter().zip(&mb.0).all(|(&x, &y)| !(x && y));
        prop_assert_eq!(a.is_disjoint(&b), disjoint_ref);
        prop_assert_eq!(a == b, ma == mb);

        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(i, a.intersection(&b));
    }

    /// Unary kernels: complement (ghost-bit masking), popcount len,
    /// emptiness, min_index, iteration, and chunked for_each_index.
    #[test]
    fn unary_kernels_match_reference(
        nbits in 1usize..=200,
        xs in proptest::collection::vec(0usize..200, 0..40),
    ) {
        let (a, ma) = build(nbits, &xs);

        assert_matches(&a.complement(), &Naive(ma.0.iter().map(|&x| !x).collect()), "complement");
        prop_assert_eq!(a.len(), ma.indices().len());
        prop_assert_eq!(a.is_empty(), ma.indices().is_empty());
        prop_assert_eq!(a.is_full(), ma.indices().len() == nbits);
        prop_assert_eq!(a.min_index(), ma.indices().first().copied());

        let mut chunked = Vec::new();
        a.for_each_index(|i| chunked.push(i));
        prop_assert_eq!(chunked, ma.indices());

        for i in 0..nbits {
            prop_assert_eq!(a.contains(i), ma.0[i]);
        }
    }

    /// Copy-on-write and cached-hash transparency: random interleavings of
    /// insert/remove on a set and a clone never leak mutations across the
    /// share, and hashes always agree with content equality.
    #[test]
    fn cow_mutation_matches_reference(
        nbits in 1usize..=130,
        xs in proptest::collection::vec(0usize..130, 0..20),
        edits in proptest::collection::vec(0usize..260, 1..30),
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of(s: &BitVecSet) -> u64 {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }

        let (mut a, mut ma) = build(nbits, &xs);
        let frozen = a.clone();
        let frozen_model = ma.clone();
        let _ = hash_of(&frozen); // prime the shared cached hash before edits

        for e in edits {
            let idx = e / 2 % nbits;
            if e % 2 == 0 {
                prop_assert_eq!(a.insert(idx), !ma.0[idx]);
                ma.0[idx] = true;
            } else {
                prop_assert_eq!(a.remove(idx), ma.0[idx]);
                ma.0[idx] = false;
            }
        }

        assert_matches(&a, &ma, "after edits");
        assert_matches(&frozen, &frozen_model, "frozen clone untouched by edits");
        let rebuilt = BitVecSet::from_indices(nbits, ma.indices());
        prop_assert_eq!(&a, &rebuilt);
        prop_assert_eq!(hash_of(&a), hash_of(&rebuilt));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Range kernels: `insert_range` against a per-bit insert loop, and
    /// `first_in`/`last_in` against a filter over the range, on ranges that
    /// start and end anywhere (word seams, empty and reversed ranges, the
    /// last partial word, ends past the capacity).
    #[test]
    fn range_kernels_match_reference(
        nbits in 1usize..=200,
        xs in proptest::collection::vec(0usize..200, 0..40),
        lo in 0usize..=210,
        hi in 0usize..=210,
    ) {
        let (a, ma) = build(nbits, &xs);
        let naive_first = (lo..hi.min(nbits)).find(|&i| ma.0[i]);
        let naive_last = (lo..hi.min(nbits)).rev().find(|&i| ma.0[i]);
        prop_assert_eq!(a.first_in(lo, hi), naive_first);
        prop_assert_eq!(a.last_in(lo, hi), naive_last);

        let (lo, hi) = (lo.min(nbits), hi.min(nbits));
        let mut filled = a.clone();
        filled.insert_range(lo, hi);
        let mut model = ma.clone();
        for i in lo..hi {
            model.0[i] = true;
        }
        assert_matches(&filled, &model, "insert_range");
        prop_assert_eq!(&filled, &BitVecSet::from_indices(nbits, model.indices()));
        assert_matches(&a, &ma, "insert_range leaves the clone untouched");
    }
}
