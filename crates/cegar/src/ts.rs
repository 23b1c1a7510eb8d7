//! Finite transition systems.
//!
//! A transition system `S = ⟨Σ, ⇝⟩` with successor/predecessor
//! transformers (Section 6):
//!
//! ```text
//! post(X) = {t | ∃s ∈ X. s ⇝ t}      pre(X) = {s | ∃t ∈ X. s ⇝ t}
//! ```
//!
//! The states double as the stores of a one-variable universe
//! ([`TransitionSystem::universe`]), so `air-core`'s domains and
//! Section 4 queries apply to them unchanged: [`PostWithin`] is the
//! additive transformer `post_{π_k}` of Lemma 6.1.

use air_core::{Additive, StateAlgebra};
use air_lang::{SemError, StateSet, Universe};
use air_lattice::BitVecSet;

/// The one-variable universe `s ∈ 0..num_states` whose store indices are
/// the state indices of a system with `num_states` states.
///
/// # Panics
///
/// Panics if `num_states` is 0 or exceeds [`Universe::MAX_SIZE`].
pub fn state_universe(num_states: usize) -> Universe {
    Universe::new(&[("s", 0, num_states as i64 - 1)]).expect("a non-empty, bounded state space")
}

/// `post_{π_k}(X) = post(X) ∩ B`: one step of an abstract path into the
/// block `B` (Lemma 6.1). Additive, with `wlp(z) = ¬pre(B ∖ z)`.
#[derive(Clone, Copy, Debug)]
pub struct PostWithin<'a> {
    ts: &'a TransitionSystem,
    block: &'a BitVecSet,
}

impl<A: StateAlgebra<Set = StateSet>> Additive<A> for PostWithin<'_> {
    fn image(&self, _: &A, x: &StateSet) -> Result<StateSet, SemError> {
        Ok(self.ts.post(x).intersection(self.block))
    }

    fn wlp(&self, _: &A, z: &StateSet) -> Result<StateSet, SemError> {
        Ok(self.ts.pre(&self.block.difference(z)).complement())
    }
}

/// A finite directed transition system over states `0..num_states`.
///
/// # Example
///
/// ```
/// use air_cegar::ts::TransitionSystem;
/// use air_lattice::BitVecSet;
///
/// let mut ts = TransitionSystem::new(3);
/// ts.add_edge(0, 1);
/// ts.add_edge(1, 2);
/// let x = BitVecSet::from_indices(3, [0]);
/// assert_eq!(ts.post(&x), BitVecSet::from_indices(3, [1]));
/// assert_eq!(ts.reachable(&x), BitVecSet::from_indices(3, [0, 1, 2]));
/// ```
#[derive(Clone, Debug)]
pub struct TransitionSystem {
    num_states: usize,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
}

impl TransitionSystem {
    /// Creates a system with `num_states` states and no transitions.
    pub fn new(num_states: usize) -> Self {
        TransitionSystem {
            num_states,
            succs: vec![Vec::new(); num_states],
            preds: vec![Vec::new(); num_states],
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The universe whose stores are this system's states
    /// ([`state_universe`]).
    ///
    /// # Panics
    ///
    /// Panics if the system has no states.
    pub fn universe(&self) -> Universe {
        state_universe(self.num_states)
    }

    /// `post_{π_k}` into `block` ([`PostWithin`]).
    pub fn post_within<'a>(&'a self, block: &'a BitVecSet) -> PostWithin<'a> {
        PostWithin { ts: self, block }
    }

    /// Number of transitions.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Adds the transition `from ⇝ to` (duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(
            from < self.num_states && to < self.num_states,
            "state out of range"
        );
        if !self.succs[from].contains(&(to as u32)) {
            self.succs[from].push(to as u32);
            self.preds[to].push(from as u32);
        }
    }

    /// Returns `true` if `from ⇝ to`.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.succs[from].contains(&(to as u32))
    }

    /// The successors of a single state.
    pub fn succs_of(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        self.succs[state].iter().map(|&s| s as usize)
    }

    /// `post(X)`.
    pub fn post(&self, x: &BitVecSet) -> BitVecSet {
        let mut out = BitVecSet::new(self.num_states);
        for s in x.iter() {
            for &t in &self.succs[s] {
                out.insert(t as usize);
            }
        }
        out
    }

    /// `pre(X)`.
    pub fn pre(&self, x: &BitVecSet) -> BitVecSet {
        let mut out = BitVecSet::new(self.num_states);
        for t in x.iter() {
            for &s in &self.preds[t] {
                out.insert(s as usize);
            }
        }
        out
    }

    /// States reachable from `x` (including `x`).
    pub fn reachable(&self, x: &BitVecSet) -> BitVecSet {
        let mut acc = x.clone();
        loop {
            let step = self.post(&acc);
            let next = acc.union(&step);
            if next == acc {
                return acc;
            }
            acc = next;
        }
    }

    /// A concrete path from a state in `init` to a state in `goal`, if one
    /// exists (BFS, shortest).
    pub fn find_path(&self, init: &BitVecSet, goal: &BitVecSet) -> Option<Vec<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.num_states];
        let mut visited = BitVecSet::new(self.num_states);
        let mut queue: std::collections::VecDeque<usize> = init.iter().collect();
        for s in init.iter() {
            visited.insert(s);
        }
        while let Some(s) = queue.pop_front() {
            if goal.contains(s) {
                let mut path = vec![s];
                let mut cur = s;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &t in &self.succs[s] {
                let t = t as usize;
                if visited.insert(t) {
                    parent[t] = Some(s);
                    queue.push_back(t);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> TransitionSystem {
        let mut ts = TransitionSystem::new(5);
        for i in 0..4 {
            ts.add_edge(i, i + 1);
        }
        ts
    }

    #[test]
    fn post_and_pre_are_duals() {
        let ts = chain();
        let x = BitVecSet::from_indices(5, [1, 3]);
        assert_eq!(ts.post(&x), BitVecSet::from_indices(5, [2, 4]));
        assert_eq!(ts.pre(&x), BitVecSet::from_indices(5, [0, 2]));
        // Galois: post(X) ∩ Y ≠ ∅ ⇔ X ∩ pre(Y) ≠ ∅ on samples.
        let y = BitVecSet::from_indices(5, [2]);
        assert_eq!(!ts.post(&x).is_disjoint(&y), !x.is_disjoint(&ts.pre(&y)));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut ts = TransitionSystem::new(2);
        ts.add_edge(0, 1);
        ts.add_edge(0, 1);
        assert_eq!(ts.num_edges(), 1);
        assert!(ts.has_edge(0, 1));
        assert!(!ts.has_edge(1, 0));
    }

    #[test]
    fn reachability() {
        let mut ts = chain();
        ts.add_edge(4, 0); // cycle back
        let from2 = ts.reachable(&BitVecSet::from_indices(5, [2]));
        assert_eq!(from2, BitVecSet::full(5));
        let ts2 = chain();
        let from3 = ts2.reachable(&BitVecSet::from_indices(5, [3]));
        assert_eq!(from3, BitVecSet::from_indices(5, [3, 4]));
    }

    #[test]
    fn shortest_path() {
        let mut ts = chain();
        ts.add_edge(0, 3); // shortcut
        let p = ts
            .find_path(
                &BitVecSet::from_indices(5, [0]),
                &BitVecSet::from_indices(5, [4]),
            )
            .unwrap();
        assert_eq!(p, vec![0, 3, 4]);
        assert!(ts
            .find_path(
                &BitVecSet::from_indices(5, [4]),
                &BitVecSet::from_indices(5, [0]),
            )
            .is_none());
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn edge_bounds_checked() {
        TransitionSystem::new(1).add_edge(0, 1);
    }
}
