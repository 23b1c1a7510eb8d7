//! `verify-cold`: one-shot `air verify` tasks.
//!
//! The six corpus programs plus `corpus/slow/unbounded.imp`, on the
//! Int, Oct and Karr bases under both repair strategies, with universes
//! scaled so each verdict costs roughly 5–60 ms on one core, plus two
//! slots under `--engine symbolic`: `corpus/large/countdown-cube.imp`
//! (`sat` and report rendering over the bitset bridge) and `two_phase`
//! (the relational Algorithm 2 on diagrams). Every task runs on a fresh
//! verifier and domain: cold semantic caches, closure and the bitset
//! kernels do the work, the serve layer none.

use crate::harness::{self, Config, Outcome};
use crate::oneshot::{self, Base, Engine, Family, Slot, Strategy};

/// Tasks per slot, over all rounds, for each second of `--seconds`.
const REPS_PER_SECOND: f64 = 2.0;

/// Rounds per run; each runs a work list of its own.
const ROUNDS: usize = 5;

fn slots() -> Vec<Slot> {
    use Base::{Int, Karr, Oct};
    use Family::*;
    use Strategy::{Backward, Forward};
    let rows: &[(Family, Base, Strategy, i64, i64)] = &[
        (Absval, Int, Backward, 4000, 12000),
        (Division, Int, Backward, 14, 22),
        (Gauss, Int, Backward, 9, 13),
        (NondetWalk, Int, Backward, 40, 70),
        (ParityFlip, Int, Backward, 2000, 6000),
        (TwoPhase, Int, Backward, 8, 12),
        (Unbounded, Int, Backward, 18, 30),
        (Absval, Oct, Backward, 4000, 12000),
        (Division, Oct, Backward, 12, 22),
        (Gauss, Oct, Backward, 7, 11),
        (NondetWalk, Oct, Backward, 30, 55),
        (ParityFlip, Oct, Backward, 1500, 5000),
        (TwoPhase, Oct, Backward, 7, 11),
        (Unbounded, Oct, Backward, 35, 60),
        (Absval, Karr, Backward, 1500, 5000),
        (Division, Karr, Backward, 12, 24),
        (Gauss, Karr, Backward, 5, 8),
        (NondetWalk, Karr, Backward, 30, 55),
        (ParityFlip, Karr, Backward, 400, 1500),
        (TwoPhase, Karr, Backward, 4, 7),
        (Unbounded, Karr, Backward, 30, 55),
        (Absval, Int, Forward, 4000, 12000),
        (Division, Int, Forward, 9, 15),
        (Gauss, Int, Forward, 5, 9),
        (NondetWalk, Int, Forward, 40, 70),
        (ParityFlip, Int, Forward, 2000, 6000),
        (TwoPhase, Int, Forward, 4, 6),
        (Unbounded, Int, Forward, 8, 12),
        (Absval, Oct, Forward, 4000, 12000),
        (NondetWalk, Oct, Forward, 30, 55),
        (ParityFlip, Oct, Forward, 150, 500),
        (Absval, Karr, Forward, 1500, 5000),
        (NondetWalk, Karr, Forward, 20, 50),
        (ParityFlip, Karr, Forward, 150, 500),
    ];
    let symbolic: &[(Family, Base, Strategy, i64, i64)] = &[
        (CountdownCube, Int, Backward, 14, 22),
        (TwoPhase, Int, Backward, 8, 12),
    ];
    let slots = |rows: &[(Family, Base, Strategy, i64, i64)], engine| {
        rows.iter()
            .map(move |&(family, base, strategy, lo, hi)| Slot {
                family,
                base,
                strategy,
                engine,
                lo,
                hi,
            })
            .collect::<Vec<_>>()
    };
    let mut all = slots(rows, Engine::Enumerative);
    all.extend(slots(symbolic, Engine::Symbolic));
    all
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let reps = ((cfg.seconds as f64 * REPS_PER_SECOND / ROUNDS as f64).round() as usize).max(1);
    let list = |round| oneshot::work_list(&slots(), reps, cfg.seed, round, ROUNDS);
    harness::run(cfg, oneshot::OneShot::new(list, ROUNDS))
}
