//! The CEGAR loop.
//!
//! Model-check a reachability property (`bad` unreachable from `init`) on
//! the abstract system; refine on spurious counterexamples with a chosen
//! heuristic; stop at a proof (no abstract counterexample) or a real
//! counterexample. Partitions refine strictly, so the loop terminates.

use std::fmt;

use air_lattice::{BitVecSet, Exhaustion, Governor};
use air_trace::{EventKind, Tracer};

use crate::amc::AbstractTs;
use crate::partition::Partition;
use crate::refine;
use crate::spurious::SpuriousAnalysis;
use crate::ts::TransitionSystem;

/// The refinement heuristic to use on spurious counterexamples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Heuristic {
    /// Split `B_k` into `B^dead` vs rest (the original CEGAR heuristic).
    Classic,
    /// Split `B_k` into `B^dead ∪ B^irr` vs `B^bad` — the pointed shell of
    /// Theorem 6.2.
    ForwardAir,
    /// Split every `B_k` along `V_k = B_k ∖ T_k` — Theorem 6.4 iterated
    /// along the counterexample (Fig. 3).
    BackwardAir,
}

impl Heuristic {
    /// All heuristics, for comparative experiments.
    pub const ALL: [Heuristic; 3] = [
        Heuristic::Classic,
        Heuristic::ForwardAir,
        Heuristic::BackwardAir,
    ];

    /// A short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::Classic => "classic",
            Heuristic::ForwardAir => "forward-AIR",
            Heuristic::BackwardAir => "backward-AIR",
        }
    }
}

/// Failure of a CEGAR run: either the configured budget ran out, or an
/// internal invariant of the loop was violated (a bug, never a panic).
#[derive(Clone, Debug)]
pub enum CegarError {
    /// The governor's fuel or deadline was exhausted mid-loop.
    Exhausted(Exhaustion),
    /// An internal invariant failed; surfaced instead of panicking.
    Internal(String),
}

impl CegarError {
    /// The exhaustion record, if this error is a budget cutoff.
    pub fn exhaustion(&self) -> Option<&Exhaustion> {
        match self {
            CegarError::Exhausted(e) => Some(e),
            CegarError::Internal(_) => None,
        }
    }
}

impl fmt::Display for CegarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CegarError::Exhausted(e) => write!(f, "{e}"),
            CegarError::Internal(msg) => write!(f, "internal CEGAR error: {msg}"),
        }
    }
}

impl std::error::Error for CegarError {}

impl From<Exhaustion> for CegarError {
    fn from(e: Exhaustion) -> Self {
        CegarError::Exhausted(e)
    }
}

/// Statistics of one CEGAR run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CegarStats {
    /// Abstract model-checking rounds (counterexample searches).
    pub iterations: usize,
    /// Spurious counterexamples refuted.
    pub refinements: usize,
    /// Block splits performed.
    pub splits: usize,
    /// Blocks in the final partition.
    pub final_blocks: usize,
}

/// The result of a CEGAR run.
#[derive(Clone, Debug)]
pub enum CegarResult {
    /// `bad` is unreachable from `init`; the final partition is a
    /// certificate (its abstract system has no path).
    Safe {
        /// The final abstraction.
        partition: Partition,
        /// Run statistics.
        stats: CegarStats,
    },
    /// A real counterexample exists.
    Unsafe {
        /// A concrete path from `init` to `bad`.
        path: Vec<usize>,
        /// The final abstraction.
        partition: Partition,
        /// Run statistics.
        stats: CegarStats,
    },
}

impl CegarResult {
    /// Returns `true` for [`CegarResult::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, CegarResult::Safe { .. })
    }

    /// The run statistics.
    pub fn stats(&self) -> &CegarStats {
        match self {
            CegarResult::Safe { stats, .. } | CegarResult::Unsafe { stats, .. } => stats,
        }
    }

    /// The final partition.
    pub fn partition(&self) -> &Partition {
        match self {
            CegarResult::Safe { partition, .. } | CegarResult::Unsafe { partition, .. } => {
                partition
            }
        }
    }
}

/// A configured CEGAR run.
///
/// # Example
///
/// ```
/// use air_cegar::{Cegar, CegarResult, Heuristic, TransitionSystem};
/// use air_lattice::BitVecSet;
///
/// let mut ts = TransitionSystem::new(4);
/// ts.add_edge(0, 1);
/// ts.add_edge(2, 3);
/// let init = BitVecSet::from_indices(4, [0]);
/// let bad = BitVecSet::from_indices(4, [3]);
/// let res = Cegar::new(&ts, &init, &bad, Heuristic::ForwardAir).run().unwrap();
/// assert!(res.is_safe());
/// ```
#[derive(Clone, Debug)]
pub struct Cegar<'t> {
    ts: &'t TransitionSystem,
    init: BitVecSet,
    bad: BitVecSet,
    heuristic: Heuristic,
    initial_partition: Option<Partition>,
    jobs: usize,
    trace: Tracer,
    governor: Governor,
}

impl<'t> Cegar<'t> {
    /// Creates a run checking that `bad` is unreachable from `init`.
    pub fn new(
        ts: &'t TransitionSystem,
        init: &BitVecSet,
        bad: &BitVecSet,
        heuristic: Heuristic,
    ) -> Self {
        Cegar {
            ts,
            init: init.clone(),
            bad: bad.clone(),
            heuristic,
            initial_partition: None,
            jobs: 1,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Supplies a custom initial partition (it is refined so that `init`
    /// and `bad` are unions of blocks, as abstract model checking
    /// requires).
    pub fn initial_partition(mut self, partition: Partition) -> Self {
        self.initial_partition = Some(partition);
        self
    }

    /// Fans the abstraction build (per-block successor computation) and
    /// backward-AIR split-set computation out over up to `jobs` worker
    /// threads. The result is bitwise identical to the sequential run for
    /// any `jobs ≥ 1`.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Emits `cegar_iteration`/`cegar_refinement`/`cegar_split`/`verdict`
    /// events through `tracer`, one `cegar_iteration` per abstract
    /// model-checking round.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// Enforces `governor` at the loop head: each abstract model-checking
    /// round spends one fuel tick, and exhaustion (or cooperative
    /// cancellation) aborts the run with [`CegarError::Exhausted`].
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Runs all three heuristics on the same problem, each on its own
    /// worker thread, for comparative experiments.
    ///
    /// # Errors
    ///
    /// Returns the first [`CegarError`] any heuristic hit (ungoverned runs
    /// only fail on internal errors).
    pub fn compare(
        ts: &TransitionSystem,
        init: &BitVecSet,
        bad: &BitVecSet,
        jobs: usize,
    ) -> Result<Vec<(Heuristic, CegarResult)>, CegarError> {
        let results = air_lattice::par_map(jobs, &Heuristic::ALL, |&h| {
            Cegar::new(ts, init, bad, h).run()
        });
        Heuristic::ALL
            .into_iter()
            .zip(results)
            .map(|(h, r)| r.map(|res| (h, res)))
            .collect()
    }

    /// Runs the loop to completion.
    ///
    /// # Errors
    ///
    /// [`CegarError::Exhausted`] when the configured governor runs out of
    /// fuel or time; [`CegarError::Internal`] if a loop invariant is
    /// violated (never panics).
    pub fn run(mut self) -> Result<CegarResult, CegarError> {
        let _span = self
            .trace
            .span(|| format!("cegar.{}", self.heuristic.label()));
        let mut partition = self
            .initial_partition
            .take()
            .unwrap_or_else(|| Partition::trivial(self.ts.num_states()));
        partition.split_by(&self.init);
        partition.split_by(&self.bad);

        let mut stats = CegarStats::default();
        loop {
            if let Err(e) = self
                .governor
                .check_with(|| format!("cegar.{}", self.heuristic.label()))
            {
                self.trace.emit_with(|| EventKind::BudgetExhausted {
                    phase: e.phase.clone(),
                    spent: e.spent,
                    reason: e.reason.name().to_string(),
                });
                return Err(CegarError::Exhausted(e));
            }
            stats.iterations += 1;
            self.trace.emit_detail_with(|| EventKind::CegarIteration {
                iteration: stats.iterations,
                blocks: partition.num_blocks(),
            });
            let abs = AbstractTs::build_with_jobs(self.ts, &partition, self.jobs);
            let init_blocks = partition.blocks_of_set(&self.init);
            let bad_blocks = partition.blocks_of_set(&self.bad);
            let Some(path) = abs.find_counterexample(&init_blocks, &bad_blocks) else {
                stats.final_blocks = partition.num_blocks();
                self.trace_verdict(true);
                return Ok(CegarResult::Safe { partition, stats });
            };
            let analysis = SpuriousAnalysis::analyze(self.ts, &partition, &path);
            if !analysis.is_spurious() {
                let Some(concrete) = analysis.concrete_witness(self.ts) else {
                    return Err(CegarError::Internal(
                        "non-spurious abstract path has no concrete witness".to_string(),
                    ));
                };
                stats.final_blocks = partition.num_blocks();
                self.trace_verdict(false);
                return Ok(CegarResult::Unsafe {
                    path: concrete,
                    partition,
                    stats,
                });
            }
            stats.refinements += 1;
            self.trace.emit_detail_with(|| EventKind::CegarRefinement {
                iteration: stats.iterations,
            });
            let splits = match self.heuristic {
                Heuristic::Classic => refine::classic(self.ts, &mut partition, &analysis, &path),
                Heuristic::ForwardAir => {
                    refine::forward_air(self.ts, &mut partition, &analysis, &path)
                }
                Heuristic::BackwardAir => refine::backward_air_with_jobs(
                    self.ts,
                    &mut partition,
                    &analysis,
                    &path,
                    self.jobs,
                ),
            };
            stats.splits += splits;
            self.trace.emit_detail_with(|| EventKind::CegarSplit {
                heuristic: self.heuristic.label().to_string(),
                splits,
                blocks: partition.num_blocks(),
            });
        }
    }

    fn trace_verdict(&self, safe: bool) {
        self.trace.emit_detail_with(|| EventKind::Verdict {
            phase: "cegar".to_string(),
            verdict: if safe { "safe" } else { "unsafe" }.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ladder of 2×n states: lane A (even) flows forward, lane B (odd)
    /// has a bad sink reachable only from its own lane; init is lane A.
    fn ladder(n: usize) -> (TransitionSystem, BitVecSet, BitVecSet) {
        let states = 2 * n + 1;
        let mut ts = TransitionSystem::new(states);
        for i in 0..n - 1 {
            ts.add_edge(2 * i, 2 * (i + 1)); // lane A
            ts.add_edge(2 * i + 1, 2 * (i + 1) + 1); // lane B
        }
        ts.add_edge(2 * (n - 1) + 1, 2 * n); // lane B falls into bad sink
        let init = BitVecSet::from_indices(states, [0]);
        let bad = BitVecSet::from_indices(states, [2 * n]);
        (ts, init, bad)
    }

    #[test]
    fn safe_ladder_proved_by_all_heuristics() {
        let (ts, init, bad) = ladder(5);
        for h in Heuristic::ALL {
            let res = Cegar::new(&ts, &init, &bad, h).run().unwrap();
            assert!(res.is_safe(), "{} failed", h.label());
        }
    }

    #[test]
    fn backward_uses_fewest_iterations_on_ladder() {
        let (ts, init, bad) = ladder(6);
        // Pair the lanes in the initial partition to force spuriousness.
        let pair = Partition::from_key(13, |s| s / 2);
        let stats_of = |h: Heuristic| {
            Cegar::new(&ts, &init, &bad, h)
                .initial_partition(pair.clone())
                .run()
                .unwrap()
                .stats()
                .iterations
        };
        let classic = stats_of(Heuristic::Classic);
        let forward = stats_of(Heuristic::ForwardAir);
        let backward = stats_of(Heuristic::BackwardAir);
        assert!(
            backward <= forward,
            "backward {backward} > forward {forward}"
        );
        assert!(
            backward <= classic,
            "backward {backward} > classic {classic}"
        );
        assert!(backward <= 2, "backward should converge almost immediately");
    }

    #[test]
    fn unsafe_system_yields_concrete_path() {
        let mut ts = TransitionSystem::new(5);
        ts.add_edge(0, 1);
        ts.add_edge(1, 2);
        ts.add_edge(2, 4);
        let init = BitVecSet::from_indices(5, [0]);
        let bad = BitVecSet::from_indices(5, [4]);
        for h in Heuristic::ALL {
            let res = Cegar::new(&ts, &init, &bad, h).run().unwrap();
            let CegarResult::Unsafe { path, .. } = res else {
                panic!("{} should find the real counterexample", h.label());
            };
            assert_eq!(path, vec![0, 1, 2, 4]);
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let (ts, init, bad) = ladder(6);
        let pair = Partition::from_key(13, |s| s / 2);
        for h in Heuristic::ALL {
            let seq = Cegar::new(&ts, &init, &bad, h)
                .initial_partition(pair.clone())
                .run()
                .unwrap();
            let par = Cegar::new(&ts, &init, &bad, h)
                .initial_partition(pair.clone())
                .jobs(4)
                .run()
                .unwrap();
            assert_eq!(seq.is_safe(), par.is_safe());
            assert_eq!(seq.stats(), par.stats());
            assert_eq!(seq.partition(), par.partition(), "{}", h.label());
        }
    }

    #[test]
    fn compare_runs_all_heuristics() {
        let (ts, init, bad) = ladder(4);
        let results = Cegar::compare(&ts, &init, &bad, 3).unwrap();
        assert_eq!(results.len(), 3);
        for (h, res) in &results {
            assert!(res.is_safe(), "{} failed", h.label());
        }
    }

    #[test]
    fn init_inside_bad_is_immediately_unsafe() {
        let ts = TransitionSystem::new(3);
        let init = BitVecSet::from_indices(3, [1]);
        let bad = BitVecSet::from_indices(3, [1, 2]);
        let res = Cegar::new(&ts, &init, &bad, Heuristic::Classic)
            .run()
            .unwrap();
        let CegarResult::Unsafe { path, .. } = res else {
            panic!("must be unsafe");
        };
        assert_eq!(path, vec![1]);
    }

    #[test]
    fn governed_run_exhausts_and_reports_phase() {
        let (ts, init, bad) = ladder(6);
        // Pair the lanes so the run needs at least one refinement round.
        let pair = Partition::from_key(13, |s| s / 2);
        let err = Cegar::new(&ts, &init, &bad, Heuristic::Classic)
            .initial_partition(pair)
            .governor(Governor::new(air_lattice::Budget::fuel(1)))
            .run()
            .unwrap_err();
        let Some(exhaustion) = err.exhaustion() else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(exhaustion.phase, "cegar.classic");
        assert_eq!(exhaustion.reason, air_lattice::ExhaustReason::Fuel);
    }

    #[test]
    fn partition_certificate_separates_init_from_bad() {
        let (ts, init, bad) = ladder(4);
        let res = Cegar::new(&ts, &init, &bad, Heuristic::BackwardAir)
            .run()
            .unwrap();
        let CegarResult::Safe { partition, stats } = res else {
            panic!("safe");
        };
        assert!(stats.final_blocks >= 2);
        // The reachable closure of init under the final abstraction avoids
        // bad.
        let dom = partition.domain();
        let mut acc = dom.close(&init);
        loop {
            let next = acc.union(&dom.close(&ts.post(&acc)));
            if next == acc {
                break;
            }
            acc = next;
        }
        assert!(acc.is_disjoint(&bad));
    }
}
