//! Abstraction-refinement model checking with *Moore-family* abstractions.
//!
//! Section 6 of the paper stresses that AIR "can be applied to arbitrary
//! Galois connection-based abstract domains … hence going beyond the
//! state partitions used in early abstract model checking." This module
//! realizes that claim: the abstraction is an arbitrary [`EnumDomain`]
//! over the system's [state universe](crate::ts::state_universe) (any
//! upper closure of `℘(Σ)`, usually the trivial `{Σ}` plus points),
//! abstract reachability is the closure-based fixpoint
//! `X_{k+1} = A(X_k ∪ post(X_k))`, and spurious abstract traces are
//! repaired by adding the backward points `V_k = X_k ∖ T_k` — the
//! Theorem 6.4 pointed shells, now with no partition structure in sight.
//!
//! Each repair round provably discharges the current abstract trace
//! (every `V_k` added makes the next cumulative sequence stay inside the
//! `V`s, whose last element avoids `bad`), so the loop terminates on
//! finite systems; a round cap guards against misuse.

use air_core::EnumDomain;
use air_lattice::{BitVecSet, ExhaustReason, Exhaustion, Governor};

use crate::driver::CegarError;
use crate::ts::TransitionSystem;

/// Statistics of a Moore-family run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MooreStats {
    /// Abstract reachability rounds.
    pub rounds: usize,
    /// Points added across all repairs.
    pub points_added: usize,
}

/// The result of a Moore-family model-checking run.
#[derive(Clone, Debug)]
pub enum MooreResult {
    /// `bad` unreachable; the refined abstraction certifies it.
    Safe {
        /// The final abstraction.
        abstraction: EnumDomain,
        /// Run statistics.
        stats: MooreStats,
    },
    /// A concrete counterexample path (with stuttering allowed).
    Unsafe {
        /// Concrete states from `init` to `bad`.
        path: Vec<usize>,
        /// Run statistics.
        stats: MooreStats,
    },
}

impl MooreResult {
    /// Returns `true` for [`MooreResult::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, MooreResult::Safe { .. })
    }

    /// The run statistics.
    pub fn stats(&self) -> MooreStats {
        match self {
            MooreResult::Safe { stats, .. } | MooreResult::Unsafe { stats, .. } => *stats,
        }
    }
}

/// Closure-based abstraction-refinement reachability.
///
/// # Example
///
/// ```
/// use air_cegar::moore::MooreCegar;
/// use air_cegar::ts::TransitionSystem;
/// use air_core::EnumDomain;
/// use air_lattice::BitVecSet;
///
/// let mut ts = TransitionSystem::new(4);
/// ts.add_edge(0, 1);
/// ts.add_edge(2, 3);
/// let init = BitVecSet::from_indices(4, [0]);
/// let bad = BitVecSet::from_indices(4, [3]);
/// let trivial = EnumDomain::trivial(&ts.universe());
/// let res = MooreCegar::new(&ts, &init, &bad, trivial).run().unwrap();
/// assert!(res.is_safe());
/// ```
#[derive(Clone, Debug)]
pub struct MooreCegar<'t> {
    ts: &'t TransitionSystem,
    init: BitVecSet,
    bad: BitVecSet,
    abstraction: EnumDomain,
    max_rounds: usize,
    governor: Governor,
}

impl<'t> MooreCegar<'t> {
    /// Creates a run checking that `bad` is unreachable from `init`,
    /// starting from `abstraction` (a domain over `ts.universe()`).
    pub fn new(
        ts: &'t TransitionSystem,
        init: &BitVecSet,
        bad: &BitVecSet,
        abstraction: EnumDomain,
    ) -> Self {
        MooreCegar {
            ts,
            init: init.clone(),
            bad: bad.clone(),
            abstraction,
            max_rounds: 10_000,
            governor: Governor::unlimited(),
        }
    }

    /// Enforces `governor` at the repair-round head: each round spends one
    /// fuel tick, and exhaustion aborts with [`CegarError::Exhausted`].
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// [`CegarError::Exhausted`] when the governor (or the round cap, which
    /// cannot trip on finite systems: every repair adds at least one point)
    /// runs out; [`CegarError::Internal`] if a loop invariant is violated.
    pub fn run(mut self) -> Result<MooreResult, CegarError> {
        let mut stats = MooreStats::default();
        for _ in 0..self.max_rounds {
            self.governor.check("cegar.moore")?;
            stats.rounds += 1;
            // Cumulative abstract reachability, keeping the whole chain.
            let mut chain = vec![self.abstraction.close(&self.init)];
            let trace_end = loop {
                let Some(last) = chain.last() else {
                    return Err(CegarError::Internal("empty reachability chain".to_string()));
                };
                if !last.is_disjoint(&self.bad) {
                    break Some(chain.len() - 1);
                }
                let next = self.abstraction.close(&last.union(&self.ts.post(last)));
                if next == *last {
                    break None;
                }
                chain.push(next);
            };
            let Some(end) = trace_end else {
                return Ok(MooreResult::Safe {
                    abstraction: self.abstraction,
                    stats,
                });
            };
            // Backward concrete sets with stuttering: T_end = X_end ∩ bad,
            // T_k = X_k ∩ (T_{k+1} ∪ pre(T_{k+1})).
            let mut t = vec![BitVecSet::new(self.ts.num_states()); end + 1];
            t[end] = chain[end].intersection(&self.bad);
            for k in (0..end).rev() {
                t[k] = chain[k].intersection(&t[k + 1].union(&self.ts.pre(&t[k + 1])));
            }
            if !self.init.is_disjoint(&t[0]) {
                // Real counterexample: walk forward through the T's.
                let path = self.extract_path(&t)?;
                return Ok(MooreResult::Unsafe { path, stats });
            }
            // Spurious: add the Theorem 6.4 points V_k = X_k ∖ T_k.
            for k in 0..=end {
                let v = chain[k].difference(&t[k]);
                if self.abstraction.add_point(v) {
                    stats.points_added += 1;
                }
            }
        }
        // Round cap: repair must make progress on finite systems, so this
        // only trips on misuse — report it as exhaustion, don't panic.
        Err(CegarError::Exhausted(Exhaustion {
            phase: "cegar.moore.max_rounds".to_string(),
            spent: self.max_rounds as u64,
            reason: ExhaustReason::Fuel,
        }))
    }

    fn extract_path(&self, t: &[BitVecSet]) -> Result<Vec<usize>, CegarError> {
        let Some(mut cur) = self.init.intersection(&t[0]).min_index() else {
            return Err(CegarError::Internal(
                "non-spurious trace does not start in init".to_string(),
            ));
        };
        let mut path = vec![cur];
        for next_t in &t[1..] {
            if self.bad.contains(cur) {
                break;
            }
            if next_t.contains(cur) {
                continue; // stutter
            }
            let Some(next) = self.ts.succs_of(cur).find(|&s| next_t.contains(s)) else {
                return Err(CegarError::Internal(
                    "backward T-sets do not form a path".to_string(),
                ));
            };
            cur = next;
            path.push(cur);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    fn trivial(n: usize) -> EnumDomain {
        EnumDomain::trivial(&crate::ts::state_universe(n))
    }

    fn two_lane(n: usize) -> (TransitionSystem, BitVecSet, BitVecSet) {
        let states = 2 * n + 1;
        let mut ts = TransitionSystem::new(states);
        for i in 0..n - 1 {
            ts.add_edge(2 * i, 2 * (i + 1));
            ts.add_edge(2 * i + 1, 2 * (i + 1) + 1);
        }
        ts.add_edge(2 * (n - 1) + 1, 2 * n);
        (
            ts,
            BitVecSet::from_indices(states, [0]),
            BitVecSet::from_indices(states, [2 * n]),
        )
    }

    #[test]
    fn safe_two_lane_from_trivial_abstraction() {
        for n in 2..6 {
            let (ts, init, bad) = two_lane(n);
            let res = MooreCegar::new(&ts, &init, &bad, trivial(ts.num_states()))
                .run()
                .unwrap();
            assert!(res.is_safe(), "n = {n}");
            let stats = res.stats();
            assert!(stats.points_added > 0, "trivial start must refine");
        }
    }

    #[test]
    fn unsafe_system_gives_concrete_path() {
        let mut ts = TransitionSystem::new(5);
        ts.add_edge(0, 1);
        ts.add_edge(1, 2);
        ts.add_edge(2, 4);
        let init = BitVecSet::from_indices(5, [0]);
        let bad = BitVecSet::from_indices(5, [4]);
        let res = MooreCegar::new(&ts, &init, &bad, trivial(5)).run().unwrap();
        let MooreResult::Unsafe { path, .. } = res else {
            panic!("must be unsafe");
        };
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&4));
        // Consecutive states are connected.
        for w in path.windows(2) {
            assert!(ts.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn init_overlapping_bad_is_unsafe_immediately() {
        let ts = TransitionSystem::new(3);
        let init = BitVecSet::from_indices(3, [1]);
        let bad = BitVecSet::from_indices(3, [1]);
        let res = MooreCegar::new(&ts, &init, &bad, trivial(3)).run().unwrap();
        let MooreResult::Unsafe { path, .. } = res else {
            panic!("must be unsafe");
        };
        assert_eq!(path, vec![1]);
    }

    #[test]
    fn partition_start_also_converges() {
        // Moore refinement is not monotone in the starting abstraction
        // (a finer start explores different spurious traces), but both
        // starts must prove safety by adding backward points.
        let (ts, init, bad) = two_lane(5);
        let trivial = MooreCegar::new(&ts, &init, &bad, trivial(ts.num_states()))
            .run()
            .unwrap();
        let mut pairs = Partition::from_key(ts.num_states(), |s| s / 2);
        pairs.split_by(&init);
        pairs.split_by(&bad);
        let parted = MooreCegar::new(&ts, &init, &bad, pairs.domain())
            .run()
            .unwrap();
        assert!(trivial.is_safe() && parted.is_safe());
        assert!(trivial.stats().points_added > 0);
        assert!(parted.stats().rounds <= trivial.stats().rounds + 2);
    }

    #[test]
    fn cycles_are_handled() {
        // A safe cycle: 0 → 1 → 0, bad state 2 unreachable.
        let mut ts = TransitionSystem::new(3);
        ts.add_edge(0, 1);
        ts.add_edge(1, 0);
        let res = MooreCegar::new(
            &ts,
            &BitVecSet::from_indices(3, [0]),
            &BitVecSet::from_indices(3, [2]),
            trivial(3),
        )
        .run()
        .unwrap();
        assert!(res.is_safe());
    }
}
