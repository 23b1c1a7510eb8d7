//! Refinement heuristics for spurious counterexamples.
//!
//! Given a spurious abstract path, three ways to refine the partition:
//!
//! - [`classic`] — the original CEGAR heuristic (Section 4 of \[11\], quoted
//!   in Section 6): split `B_k` into `B^dead` and `B^bad ∪ B^irr`;
//! - [`forward_air`] — Theorem 6.2: the pointed shell `A ⊞ {B^dead ∪
//!   B^irr}`, i.e. split `B_k` into `B^dead ∪ B^irr` and `B^bad`;
//! - [`backward_air`] — Theorem 6.4 iterated along the whole path (Fig. 3):
//!   for each `k` from `n−1` down to `1`, split `B_k` by `V_k = B_k ∖ T_k`,
//!   leaving no residual spurious path along `π`.

use crate::partition::Partition;
use crate::spurious::SpuriousAnalysis;
use crate::ts::TransitionSystem;

/// The classic CEGAR split: `B_k ↦ {B^dead, B^bad ∪ B^irr}`. Returns the
/// number of splits performed (0 or 1).
///
/// # Panics
///
/// Panics if the analysis is not spurious.
pub fn classic(
    ts: &TransitionSystem,
    partition: &mut Partition,
    analysis: &SpuriousAnalysis,
    path: &[usize],
) -> usize {
    let k = analysis.failure_index.expect("path must be spurious");
    let dead = analysis.dead(ts).expect("spurious");
    usize::from(partition.split(path[k], &dead))
}

/// The forward-AIR split (Theorem 6.2): `B_k ↦ {B^dead ∪ B^irr, B^bad}`.
/// Returns the number of splits performed (0 or 1).
///
/// # Panics
///
/// Panics if the analysis is not spurious.
pub fn forward_air(
    ts: &TransitionSystem,
    partition: &mut Partition,
    analysis: &SpuriousAnalysis,
    path: &[usize],
) -> usize {
    let k = analysis.failure_index.expect("path must be spurious");
    let dead = analysis.dead(ts).expect("spurious");
    let irr = analysis.irrelevant(ts).expect("spurious");
    usize::from(partition.split(path[k], &dead.union(&irr)))
}

/// The backward-AIR refinement (Theorem 6.4, iterated as in Fig. 3): for
/// `k` from `n−1` down to `0`, split `B_k` by `V_k = B_k ∖ T_k`. Returns
/// the number of splits performed.
///
/// After this refinement no spurious abstract path remains along `π`: in
/// the refined abstraction, every `T_k`-block only steps to `T_{k+1}`
/// blocks, and every `V_k` block has no abstract edge into the
/// `T_{k+1}`-side of `B_{k+1}`.
pub fn backward_air(
    ts: &TransitionSystem,
    partition: &mut Partition,
    analysis: &SpuriousAnalysis,
    path: &[usize],
) -> usize {
    backward_air_with_jobs(ts, partition, analysis, path, 1)
}

/// [`backward_air`] with the `V_k` split sets computed on up to `jobs`
/// worker threads. The sets are independent of one another (each depends
/// only on the spurious analysis), so they fan out freely; the splits are
/// then applied in the same descending-`k` order as the sequential
/// version, making the refined partition bitwise identical.
pub fn backward_air_with_jobs(
    _ts: &TransitionSystem,
    partition: &mut Partition,
    analysis: &SpuriousAnalysis,
    path: &[usize],
    jobs: usize,
) -> usize {
    let ks: Vec<usize> = (0..path.len()).rev().collect();
    let vs = air_lattice::par_map(jobs, &ks, |&k| analysis.v(k));
    partition.split_many(ks.iter().zip(&vs).map(|(&k, v)| (path[k], v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amc::AbstractTs;
    use air_core::{EnumAlgebra, LocalCompleteness, ShellResult};
    use air_lattice::BitVecSet;

    fn fig2() -> (TransitionSystem, Partition) {
        let mut ts = TransitionSystem::new(6);
        ts.add_edge(0, 2);
        ts.add_edge(1, 2);
        ts.add_edge(3, 5);
        let p = Partition::from_key(6, |s| match s {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2,
        });
        (ts, p)
    }

    fn spurious_path(ts: &TransitionSystem, p: &Partition) -> Vec<usize> {
        let a = AbstractTs::build(ts, p);
        a.find_counterexample(&[0], &[2]).expect("spurious cex")
    }

    #[test]
    fn classic_splits_dead_from_rest() {
        let (ts, mut p) = fig2();
        let path = spurious_path(&ts, &p);
        let analysis = SpuriousAnalysis::analyze(&ts, &p, &path);
        assert_eq!(classic(&ts, &mut p, &analysis, &path), 1);
        assert_eq!(p.num_blocks(), 4);
        // {2} and {3,4} are now separate.
        assert_ne!(p.block_of(2), p.block_of(3));
        assert_eq!(p.block_of(3), p.block_of(4));
        // Classic may leave residual spuriousness: B1 still reaches the
        // {3,4} block abstractly? No edge 0→3/4 exists, but the quoted
        // caveat is about arcs from B_{k-1} into bad ∪ irr; here none, so
        // the refined system is already conclusive.
    }

    #[test]
    fn forward_air_splits_bad_from_dead_and_irr() {
        let (ts, mut p) = fig2();
        let path = spurious_path(&ts, &p);
        let analysis = SpuriousAnalysis::analyze(&ts, &p, &path);
        assert_eq!(forward_air(&ts, &mut p, &analysis, &path), 1);
        // {2,4} together, {3} apart.
        assert_eq!(p.block_of(2), p.block_of(4));
        assert_ne!(p.block_of(2), p.block_of(3));
    }

    #[test]
    fn backward_air_leaves_no_residual_spurious_path() {
        let (ts, mut p) = fig2();
        let path = spurious_path(&ts, &p);
        let analysis = SpuriousAnalysis::analyze(&ts, &p, &path);
        let splits = backward_air(&ts, &mut p, &analysis, &path);
        assert!(splits >= 1);
        // After refinement, no abstract path from the initial block(s) to
        // the bad block remains (the Fig. 3 claim for this example).
        let a = AbstractTs::build(&ts, &p);
        let init_blocks = p.blocks_of_set(&BitVecSet::from_indices(6, [0, 1]));
        let bad_blocks = p.blocks_of_set(&BitVecSet::from_indices(6, [5]));
        assert!(a.find_counterexample(&init_blocks, &bad_blocks).is_none());
    }

    /// A deeper example where classic refinement needs more rounds than
    /// backward: a two-step spurious ladder.
    #[test]
    fn heuristics_differ_on_ladder() {
        // Chain A: 0→2→4→6 (safe lane, no bad state reached)
        // Chain B: 1, 3→5, 7 with 5→8 bad; blocks pair the lanes.
        let mut ts = TransitionSystem::new(9);
        ts.add_edge(0, 2);
        ts.add_edge(2, 4);
        ts.add_edge(4, 6);
        ts.add_edge(3, 5);
        ts.add_edge(5, 8);
        let p0 = Partition::from_key(9, |s| match s {
            0 | 1 => 0,
            2 | 3 => 1,
            4 | 5 => 2,
            6 | 7 => 3,
            _ => 4,
        });
        // Abstractly 0 reaches 8: ⟨{0,1},{2,3},{4,5},{8}⟩ is spurious.
        let a = AbstractTs::build(&ts, &p0);
        let path = a
            .find_counterexample(&[p0.block_of(0)], &[p0.block_of(8)])
            .unwrap();
        let analysis = SpuriousAnalysis::analyze(&ts, &p0, &path);
        assert!(analysis.is_spurious());
        // Backward: one pass removes every spurious path along π.
        let mut pb = p0.clone();
        backward_air(&ts, &mut pb, &analysis, &path);
        let ab = AbstractTs::build(&ts, &pb);
        assert!(ab
            .find_counterexample(
                &pb.blocks_of_set(&BitVecSet::from_indices(9, [0])),
                &pb.blocks_of_set(&BitVecSet::from_indices(9, [8])),
            )
            .is_none());
    }

    /// Lemma 6.1: the abstract path is spurious iff some `post_{π_k}` is
    /// locally incomplete on `S_k`.
    #[test]
    fn lemma_6_1_spurious_iff_locally_incomplete() {
        let (ts, p) = fig2();
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let dom = p.domain();
        // π = ⟨B0, B1, B2⟩ with S1 = B0; post_{π_0}(X) = post(X) ∩ B1.
        let post0 = ts.post_within(p.block(1));
        let s1 = p.block(0).clone();
        // S2 = post0(S1) = {2} ≠ ∅, and post_{π_0} is locally complete on S1.
        assert!(lc.check(&dom, &post0, &s1).unwrap());
        // post_{π_1}(X) = post(X) ∩ B2; S2 = {2}; S3 = ∅ — incomplete.
        let post1 = ts.post_within(p.block(2));
        let s2 = ts.post(&s1).intersection(p.block(1));
        assert!(!lc.check(&dom, &post1, &s2).unwrap());
    }

    /// Theorem 6.2: the forward-repair split point B^dead ∪ B^irr is the
    /// pointed shell of the partition abstraction on S_k.
    #[test]
    fn theorem_6_2_forward_shell() {
        let (ts, p) = fig2();
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let dom = p.domain();
        let post1 = ts.post_within(p.block(2));
        let s2 = BitVecSet::from_indices(6, [2]); // dead states
        let ShellResult::Shell { point } = lc.pointed_shell(&dom, &post1, &s2).unwrap() else {
            panic!("the shell exists");
        };
        // B^dead ∪ B^irr = {2, 4}.
        assert_eq!(point, BitVecSet::from_indices(6, [2, 4]));
        // The refined domain is locally complete on S_k.
        let refined = dom.with_point(point);
        assert!(lc.check(&refined, &post1, &s2).unwrap());
    }

    /// Theorem 6.4: refining by V_k makes the step into V_{k+1} locally
    /// complete on V_k, and V_k expressible.
    #[test]
    fn theorem_6_4_backward_shell() {
        let (ts, p) = fig2();
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let dom = p.domain();
        // V_1 over B1 = {2,3,4} with T1 = {3} is {2,4}; the step goes into
        // V_2 = B2 ∖ T2 = ∅.
        let v2 = BitVecSet::new(6);
        let post_into_v2 = ts.post_within(&v2);
        let v1 = BitVecSet::from_indices(6, [2, 4]);
        // Every state of A(V_1) = B1 steps into V_2 vacuously, so ∨L = B1.
        assert_eq!(&lc.sup_l(&dom, &post_into_v2, &v1).unwrap(), p.block(1));
        let refined = dom.with_point(v1.clone());
        assert!(lc.check(&refined, &post_into_v2, &v1).unwrap());
        // Condition (5) reduces to A'(V_k) = V_k when V_{k+1} is
        // expressible.
        assert_eq!(refined.close(&v1), v1);
    }

    /// Theorem 4.4(ii) on `post_{π_k}`: `A(c) ∧ wlp(f, A f(c))` is the
    /// largest `X ⊆ A(c)` with `f(X) ⊆ A f(c)`, found here by singletons.
    #[test]
    fn theorem_4_4_sup_l_matches_brute_force() {
        let (ts, p) = fig2();
        let u = ts.universe();
        let lc = LocalCompleteness::from_algebra(&u, EnumAlgebra::uncached(&u));
        let dom = p.domain();
        let everything = BitVecSet::full(6);
        for b in p.blocks().chain([&everything]) {
            let f = ts.post_within(b);
            let post = |x: &BitVecSet| ts.post(x).intersection(b);
            for c in [[0], [2], [3], [5]].map(|s| BitVecSet::from_indices(6, s)) {
                let ac = dom.close(&c);
                let afc = dom.close(&post(&c));
                let brute = BitVecSet::from_indices(
                    6,
                    ac.iter()
                        .filter(|&s| post(&BitVecSet::from_indices(6, [s])).is_subset(&afc)),
                );
                assert_eq!(
                    lc.sup_l(&dom, &f, &c).unwrap(),
                    brute,
                    "B = {b:?}, c = {c:?}"
                );
            }
        }
    }
}
