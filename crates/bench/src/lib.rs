//! Shared workloads and table helpers for the AIR benchmark harness.
//!
//! Every measured experiment of EXPERIMENTS.md (tables T1–T9) builds its
//! inputs from this crate so that the criterion benches and the
//! deterministic `bench_tables` binary agree exactly on the workloads.
//! T9 ([`verification_corpus`]) measures the memoized engines against the
//! uncached reference path and emits `BENCH_repair.json`. Paper↔code
//! correspondences are catalogued in `PAPER_MAP.md` at the repository
//! root.

pub mod repair_bench;

use air_cegar::partition::Partition;
use air_cegar::ts::TransitionSystem;
use air_core::EnumDomain;
use air_domains::IntervalEnv;
use air_lang::{parse_program, Reg, StateSet, Universe};
use air_lattice::BitVecSet;

/// The triangular-number program of Section 2 with loop bound `k`.
pub fn triangular_program(k: i64) -> Reg {
    parse_program(&format!(
        "i := 1; j := 0; while (i <= {k}) do {{ j := j + i; i := i + 1 }}"
    ))
    .expect("static program parses")
}

/// `T_k = k(k+1)/2`.
pub fn triangular_number(k: i64) -> i64 {
    k * (k + 1) / 2
}

/// The universe sized for [`triangular_program`]`(k)`.
pub fn triangular_universe(k: i64) -> Universe {
    Universe::new(&[("i", 0, k + 2), ("j", 0, 2 * triangular_number(k) + 2)])
        .expect("valid universe")
}

/// The countdown program of Example 7.8.
pub fn countdown_program() -> Reg {
    parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").expect("static program parses")
}

/// Universe + precondition + spec for the countdown with bound `k`.
pub fn countdown_workload(k: i64) -> (Universe, StateSet, StateSet) {
    let u = Universe::new(&[("x", -2, k + 2), ("y", -(2 * k + 2), k + 2)]).expect("valid universe");
    let pre = u.filter(move |s| s[0] > 0 && s[0] <= k && s[1] >= -2);
    let spec = u.filter(|s| s[1] == 0);
    (u, pre, spec)
}

/// The AbsVal program of the introduction.
pub fn absval_program() -> Reg {
    parse_program("if (x >= 0) then { skip } else { x := 0 - x }").expect("static program parses")
}

/// A chain of `n` guarded branches — forward repair must restart the whole
/// analysis after each repair, backward continues (T1's separation).
pub fn branch_chain_program(n: usize) -> Reg {
    let body: Vec<String> = (0..n)
        .map(|i| format!("if (x > {i}) then {{ y := y + 1 }} else {{ y := y - 1 }}"))
        .collect();
    parse_program(&body.join("; ")).expect("static program parses")
}

/// Universe, input and spec for [`branch_chain_program`].
pub fn branch_chain_workload(n: usize) -> (Universe, StateSet, StateSet) {
    let n = n as i64;
    let u = Universe::new(&[("x", -2, n + 2), ("y", -(n + 2), n + 2)]).expect("valid universe");
    // Odd positive x inputs, y = 0: interval guards go locally incomplete
    // at the branch boundaries.
    let input = u.filter(|s| s[0] % 2 != 0 && s[0] > 0 && s[1] == 0);
    // Each branch moves y by ±1, so after n branches y ≡ n (mod 2) — a
    // parity property intervals cannot prove without repair.
    let spec = u.filter(move |s| (s[1] - n).rem_euclid(2) == 0);
    (u, input, spec)
}

/// The two-lane CEGAR family: lane A (even states, initial) is safe, lane
/// B reaches the bad sink; the pairing partition makes every prefix
/// spurious.
pub fn two_lane(n: usize) -> (TransitionSystem, BitVecSet, BitVecSet, Partition) {
    let states = 2 * n + 1;
    let mut ts = TransitionSystem::new(states);
    for i in 0..n - 1 {
        ts.add_edge(2 * i, 2 * (i + 1));
        ts.add_edge(2 * i + 1, 2 * (i + 1) + 1);
    }
    ts.add_edge(2 * (n - 1) + 1, 2 * n);
    let init = BitVecSet::from_indices(states, [0]);
    let bad = BitVecSet::from_indices(states, [2 * n]);
    let pairs = Partition::from_key(states, |s| s / 2);
    (ts, init, bad, pairs)
}

/// The interval domain over a universe, wrapped for the enumerative
/// engine.
pub fn int_domain(u: &Universe) -> EnumDomain {
    EnumDomain::from_abstraction(u, IntervalEnv::new(u))
}

/// A fixed corpus of (name, program, universe, input, spec) verification
/// tasks used by the alarm-removal experiment (T6). Every spec holds
/// concretely, so every alarm of the unrepaired analysis is false.
pub fn alarm_corpus() -> Vec<(&'static str, Reg, Universe, StateSet, StateSet)> {
    let mut corpus = Vec::new();
    // 1. AbsVal on odd inputs.
    let u = Universe::new(&[("x", -8, 8)]).expect("valid");
    let odd = u.filter(|s| s[0] % 2 != 0);
    let nonzero = u.filter(|s| s[0] != 0);
    corpus.push(("absval", absval_program(), u, odd, nonzero));
    // 2. Triangular j ≤ 15.
    let u = triangular_universe(5);
    let full = u.full();
    let spec = u.filter(|s| s[1] <= 15);
    corpus.push(("triangular", triangular_program(5), u, full, spec));
    // 3. Countdown y = 0 on the diagonal.
    let (u, _, spec) = countdown_workload(5);
    let diag = u.filter(|s| (1..=5).contains(&s[0]) && s[1] == s[0]);
    corpus.push(("countdown", countdown_program(), u, diag, spec));
    // 4. Example 4.2's branch program, sequenced, on {2, 5}.
    let u = Universe::new(&[("x", -8, 8)]).expect("valid");
    let prog = parse_program(
        "if (0 < x) then { x := x - 2 } else { x := x + 1 }; \
         if (0 < x) then { x := x - 2 } else { x := x + 1 }",
    )
    .expect("parses");
    let input = u.of_values([2, 5]);
    let spec = u.filter(|s| s[0] >= 1);
    corpus.push(("ex4.2-seq", prog, u, input, spec));
    corpus
}

/// One corpus verification program, loaded from `corpus/*.imp`.
pub struct CorpusProgram {
    /// Program name (file stem).
    pub name: String,
    /// Parsed program.
    pub prog: Reg,
    /// The bounded universe from the header's `vars` clause.
    pub universe: Universe,
    /// Input property (header `pre`).
    pub pre: StateSet,
    /// Specification (header `spec`).
    pub spec: StateSet,
}

/// Loads every program of the repository `corpus/` directory with its
/// `# Verified with:` header — the same questions the CLI `air corpus`
/// subcommand sweeps, through the same loader, so benchmark and CLI
/// numbers describe identical workloads.
pub fn verification_corpus() -> Vec<CorpusProgram> {
    let dir = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
    air_core::question::load_corpus(&dir, air_core::DomainKind::Int)
        .expect("corpus loads")
        .into_iter()
        .map(|(name, question)| {
            let built = question.build().expect("corpus program builds");
            CorpusProgram {
                name,
                prog: built.program,
                universe: built.universe,
                pre: built.pre,
                spec: built.spec,
            }
        })
        .collect()
}

/// A reproducible random state set (density ~1/3) for closure probing.
pub fn random_state_set(u: &Universe, seed: u64) -> StateSet {
    let mut rng = air_lang::gen::XorShift::new(seed + 1);
    let mut s = u.empty();
    for i in 0..u.size() {
        if rng.chance(1, 3) {
            s.insert(i);
        }
    }
    s
}

/// Renders one row of a fixed-width table.
pub fn table_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_lang::Concrete;

    #[test]
    fn workloads_build_and_execute() {
        let (u, pre, _) = countdown_workload(4);
        let sem = Concrete::new(&u);
        sem.exec(&countdown_program(), &pre).unwrap();
        let (u2, input, _) = branch_chain_workload(3);
        Concrete::new(&u2)
            .exec(&branch_chain_program(3), &input)
            .unwrap();
        let (ts, init, bad, _) = two_lane(4);
        assert!(ts.reachable(&init).is_disjoint(&bad));
    }

    #[test]
    fn corpus_is_well_formed() {
        for (name, prog, u, input, spec) in alarm_corpus() {
            let sem = Concrete::new(&u);
            let out = sem.exec(&prog, &input).unwrap();
            assert!(
                out.is_subset(&spec),
                "{name}: corpus specs must hold concretely"
            );
        }
    }

    #[test]
    fn verification_corpus_loads_and_holds() {
        let corpus = verification_corpus();
        assert_eq!(corpus.len(), 6);
        for task in &corpus {
            let sem = Concrete::new(&task.universe);
            let out = sem.exec(&task.prog, &task.pre).unwrap();
            assert!(
                out.is_subset(&task.spec),
                "{}: corpus specs must hold concretely",
                task.name
            );
        }
    }

    #[test]
    fn table_row_aligns() {
        let row = table_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }
}
