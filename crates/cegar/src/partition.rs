//! Partitioning abstractions.
//!
//! A partition of the state space induces the abstract domain whose
//! elements are unions of blocks — the abstractions used by early abstract
//! model checking and by CEGAR (Section 6). Refinement splits blocks.

use air_core::EnumDomain;
use air_lattice::BitVecSet;

use crate::ts::state_universe;

/// A partition of `0..num_states` into non-empty blocks.
///
/// # Example
///
/// ```
/// use air_cegar::partition::Partition;
/// use air_lattice::BitVecSet;
///
/// // Partition 6 states by parity, then split the even block.
/// let mut p = Partition::from_key(6, |s| s % 2);
/// assert_eq!(p.num_blocks(), 2);
/// let evens = p.block_of(0);
/// let split = p.split(evens, &BitVecSet::from_indices(6, [0]));
/// assert!(split);
/// assert_eq!(p.num_blocks(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    num_states: usize,
    block_of: Vec<u32>,
    blocks: Vec<BitVecSet>,
}

impl Partition {
    /// The trivial one-block partition.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`.
    pub fn trivial(num_states: usize) -> Self {
        assert!(num_states > 0, "empty state space");
        Partition {
            num_states,
            block_of: vec![0; num_states],
            blocks: vec![BitVecSet::full(num_states)],
        }
    }

    /// Partitions states by a key function.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`.
    pub fn from_key<K: Ord>(num_states: usize, key: impl Fn(usize) -> K) -> Self {
        assert!(num_states > 0, "empty state space");
        let mut keyed: Vec<(K, usize)> = (0..num_states).map(|s| (key(s), s)).collect();
        keyed.sort();
        let mut block_of = vec![0u32; num_states];
        let mut blocks: Vec<BitVecSet> = Vec::new();
        let mut i = 0;
        while i < keyed.len() {
            let mut block = BitVecSet::new(num_states);
            let start = i;
            while i < keyed.len() && keyed[i].0 == keyed[start].0 {
                block.insert(keyed[i].1);
                block_of[keyed[i].1] = blocks.len() as u32;
                i += 1;
            }
            blocks.push(block);
        }
        Partition {
            num_states,
            block_of,
            blocks,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block index of a state.
    pub fn block_of(&self, state: usize) -> usize {
        self.block_of[state] as usize
    }

    /// The states of block `b`.
    pub fn block(&self, b: usize) -> &BitVecSet {
        &self.blocks[b]
    }

    /// Iterates over the blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &BitVecSet> {
        self.blocks.iter()
    }

    /// The blocks as a slice (for parallel fan-out over blocks).
    pub fn blocks_slice(&self) -> &[BitVecSet] {
        &self.blocks
    }

    /// Applies a sequence of splits in order, returning how many actually
    /// split a block. Centralizing the mutation keeps parallel refinement
    /// deterministic: split *sets* may be computed concurrently, but they
    /// are always applied in this fixed order.
    pub fn split_many<'a>(
        &mut self,
        splits: impl IntoIterator<Item = (usize, &'a BitVecSet)>,
    ) -> usize {
        let mut count = 0;
        for (b, part) in splits {
            if self.split(b, part) {
                count += 1;
            }
        }
        count
    }

    /// The block indices covering a set of states.
    pub fn blocks_of_set(&self, set: &BitVecSet) -> Vec<usize> {
        let mut out: Vec<usize> = set.iter().map(|s| self.block_of(s)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The partitioning abstraction as a domain over
    /// [`state_universe`]: the Moore family of unions of blocks, generated
    /// by the block complements (a set's closure is then the union of the
    /// blocks it touches, `γ∘α` of the partition).
    pub fn domain(&self) -> EnumDomain {
        let universe = state_universe(self.num_states);
        EnumDomain::from_family(
            &universe,
            "Partition",
            self.blocks.iter().map(|b| b.complement()),
        )
    }

    /// Splits block `b` into `b ∩ part` and `b ∖ part`. Returns `false`
    /// (and leaves the partition unchanged) if either side is empty.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn split(&mut self, b: usize, part: &BitVecSet) -> bool {
        let inside = self.blocks[b].intersection(part);
        let outside = self.blocks[b].difference(part);
        if inside.is_empty() || outside.is_empty() {
            return false;
        }
        let new_idx = self.blocks.len() as u32;
        for s in outside.iter() {
            self.block_of[s] = new_idx;
        }
        self.blocks[b] = inside;
        self.blocks.push(outside);
        true
    }

    /// Refines so that `set` becomes a union of blocks (splitting every
    /// block that straddles it). Returns the number of splits.
    pub fn split_by(&mut self, set: &BitVecSet) -> usize {
        let mut splits = 0;
        for b in 0..self.blocks.len() {
            if self.split(b, set) {
                splits += 1;
            }
        }
        splits
    }

    /// Returns `true` if `self` refines `coarser` (every block of `self`
    /// is inside a block of `coarser`).
    pub fn refines(&self, coarser: &Partition) -> bool {
        self.blocks.iter().all(|b| {
            let repr = b.min_index().expect("blocks are non-empty");
            b.is_subset(coarser.block(coarser.block_of(repr)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_key_groups_states() {
        let p = Partition::from_key(10, |s| s / 3);
        assert_eq!(p.num_blocks(), 4);
        assert_eq!(p.block_of(0), p.block_of(2));
        assert_ne!(p.block_of(2), p.block_of(3));
        // Blocks partition the space.
        let mut union = BitVecSet::new(10);
        for b in p.blocks() {
            assert!(union.is_disjoint(b));
            union.union_with(b);
        }
        assert!(union.is_full());
    }

    #[test]
    fn domain_closes_to_unions_of_blocks() {
        let p = Partition::from_key(9, |s| s % 3);
        let dom = p.domain();
        let s = BitVecSet::from_indices(9, [0, 1]);
        let c = dom.close(&s);
        assert!(s.is_subset(&c));
        assert_eq!(dom.close(&c), c);
        assert_eq!(c.len(), 6); // two full residue classes
        assert!(dom.is_expressible(&c));
        assert!(!dom.is_expressible(&s));
        // Every block is the meet of the complements of the others.
        for b in p.blocks() {
            assert!(dom.is_expressible(b), "{b:?}");
        }
        assert_eq!(dom.close(&BitVecSet::new(9)), BitVecSet::new(9));
    }

    #[test]
    fn split_and_split_by() {
        let mut p = Partition::trivial(6);
        assert!(!p.split(0, &BitVecSet::full(6))); // no-op split
        assert!(!p.split(0, &BitVecSet::new(6)));
        assert!(p.split(0, &BitVecSet::from_indices(6, [0, 1, 2])));
        assert_eq!(p.num_blocks(), 2);
        let odd = BitVecSet::from_indices(6, [1, 3, 5]);
        assert_eq!(p.split_by(&odd), 2);
        assert_eq!(p.num_blocks(), 4);
        assert!(p.domain().is_expressible(&odd));
    }

    #[test]
    fn refinement_order() {
        let coarse = Partition::from_key(8, |s| s / 4);
        let mut fine = coarse.clone();
        fine.split_by(&BitVecSet::from_indices(8, [0, 5]));
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(coarse.refines(&coarse));
    }

    #[test]
    fn blocks_of_set() {
        let p = Partition::from_key(6, |s| s % 2);
        let s = BitVecSet::from_indices(6, [0, 1]);
        assert_eq!(p.blocks_of_set(&s).len(), 2);
        assert_eq!(p.blocks_of_set(&BitVecSet::new(6)).len(), 0);
    }
}
