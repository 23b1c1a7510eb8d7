//! The one-shot verdict path of `verify-cold`: the public calls `air
//! verify` makes, in its order, on a fresh verifier and domain per task —
//! plus the task families it draws from and the known answer each
//! verdict is checked against.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use air::core::summarize::display_set;
use air::core::{EnumDomain, Verdict, Verifier};
use air::domains::{AffineDomain, IntervalEnv, OctagonDomain};
use air::lang::{parse_bexp, parse_program, Concrete, Reg, SemCache, StateSet, Store, Universe};

use crate::harness::{Counts, Outcome, Pass, Workload};
use crate::measure::{Probe, Recorder};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    Int,
    Oct,
    Karr,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    Backward,
    Forward,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Enumerative,
    Symbolic,
}

/// What a verification task asks, in the CLI's terms.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Question {
    pub vars: Vec<(String, i64, i64)>,
    pub code: String,
    pub pre: String,
    pub spec: String,
}

impl Question {
    fn universe(&self) -> Result<Universe, String> {
        let decls: Vec<(&str, i64, i64)> = self
            .vars
            .iter()
            .map(|(n, lo, hi)| (n.as_str(), *lo, *hi))
            .collect();
        Universe::new(&decls).map_err(|e| format!("universe: {e}"))
    }

    /// The universe, program and the pre and spec store sets, by the
    /// concrete semantics alone.
    fn concrete(&self) -> Result<(Universe, Reg, StateSet, StateSet), String> {
        let u = self.universe()?;
        let sem = Concrete::new(&u);
        let sat = |text: &str| {
            let b = parse_bexp(text).map_err(|e| e.to_string())?;
            sem.sat(&b).map_err(|e| e.to_string())
        };
        let (pre, spec) = (sat(&self.pre)?, sat(&self.spec)?);
        let prog = parse_program(&self.code).map_err(|e| e.to_string())?;
        Ok((u, prog, pre, spec))
    }

    /// The known answer, from the concrete collecting semantics alone:
    /// the number of stores in `⟦code⟧pre ∖ spec` on the enumerated
    /// universe (0 exactly when the spec holds).
    pub fn violations(&self) -> Result<usize, String> {
        let (u, prog, pre, spec) = self.concrete()?;
        let post = Concrete::new(&u)
            .exec(&prog, &pre)
            .map_err(|e| e.to_string())?;
        Ok(post.difference(&spec).len())
    }
}

/// One `air verify` invocation, as the CLI would receive it.
#[derive(Clone, Debug)]
pub struct Task {
    pub family: Family,
    pub scale: i64,
    pub question: Question,
    pub base: Base,
    pub strategy: Strategy,
    pub engine: Engine,
}

/// The corpus programs (`corpus/*.imp`, `corpus/slow/unbounded.imp` and
/// `corpus/large/countdown-cube.imp`) with their universes scaled by one
/// parameter. `wrong` swaps the checked-in spec for one that fails on
/// some input, so the task must refute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Absval,
    Division,
    Gauss,
    NondetWalk,
    ParityFlip,
    TwoPhase,
    Unbounded,
    CountdownCube,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Absval => "absval",
            Family::Division => "division",
            Family::Gauss => "gauss",
            Family::NondetWalk => "nondet_walk",
            Family::ParityFlip => "parity_flip",
            Family::TwoPhase => "two_phase",
            Family::Unbounded => "unbounded",
            Family::CountdownCube => "countdown-cube",
        }
    }

    /// The question at scale `k`.
    pub fn instance(self, k: i64, wrong: bool) -> Question {
        let v = |n: &str, lo: i64, hi: i64| (n.to_string(), lo, hi);
        let pick = |right: String, bad: String| if wrong { bad } else { right };
        let (vars, code, pre, spec) = match self {
            Family::Absval => (
                vec![v("x", -k, k)],
                "if (x >= 0) then { skip } else { x := 0 - x }".into(),
                "x != 0".into(),
                pick("x >= 1".into(), "x >= 2".into()),
            ),
            Family::Division => (
                vec![v("x", 0, k), v("q", 0, k / 3), v("r", 0, k)],
                "q := 0; r := x; while (r >= 3) do { r := r - 3; q := q + 1 }".into(),
                "x >= 0".into(),
                pick(
                    "x = 3 * q + r && r <= 2".into(),
                    "x = 3 * q + r && r <= 1".into(),
                ),
            ),
            Family::Gauss => {
                let sum = k * (k + 1) / 2;
                (
                    vec![v("i", 0, k + 3), v("j", 0, sum + 9)],
                    format!("i := 1; j := 0; while (i <= {k}) do {{ j := j + i; i := i + 1 }}"),
                    "true".into(),
                    pick(format!("j <= {sum}"), format!("j <= {}", sum - 1)),
                )
            }
            Family::NondetWalk => (
                vec![v("x", -2 * k, 2 * k), v("s", -1, 1)],
                format!(
                    "star {{ s := ?; assume s >= -1 && s <= 1; x := x + s; assume x >= -{k} && x <= {k} }}"
                ),
                "x = 0".into(),
                pick(
                    format!("x >= -{k} && x <= {k}"),
                    format!("x >= -{} && x <= {k}", k - 1),
                ),
            ),
            Family::ParityFlip => (
                vec![v("x", 0, k), v("b", 0, 1)],
                "while (x > 0) do { x := x - 1; b := 1 - b }".into(),
                "b = 0".into(),
                pick("b = 0 || b = 1".into(), "b = 0".into()),
            ),
            Family::TwoPhase => (
                vec![v("n", 0, k), v("i", 0, k + 1), v("j", 0, k + 1)],
                "while (i < n) do { i := i + 1 }; while (i > 0) do { i := i - 1; j := j + 1 }"
                    .into(),
                "i = 0 && j = 0 && n >= 0".into(),
                pick("j = n".into(), format!("j = n && j <= {}", k - 1)),
            ),
            Family::Unbounded => (
                vec![v("x", 0, k), v("y", 0, k)],
                "while (y >= 1) do { x := x + 1; y := y - 1 }".into(),
                format!("x = 0 && y = {k}"),
                pick(format!("x = {k} && y = 0"), format!("x <= {} && y = 0", k - 1)),
            ),
            Family::CountdownCube => (
                vec![v("x", 0, k), v("y", 0, k), v("z", 0, k)],
                "while (y >= 1) do { x := x + 1; y := y - 1 }".into(),
                format!("x = 0 && y = {k}"),
                pick(format!("x = {k} && y = 0"), format!("x = {k} && y = 0 && z <= {}", k - 1)),
            ),
        };
        Question {
            vars,
            code,
            pre,
            spec,
        }
    }
}

impl Task {
    pub fn new(
        family: Family,
        scale: i64,
        wrong: bool,
        base: Base,
        strategy: Strategy,
        engine: Engine,
    ) -> Task {
        Task {
            family,
            scale,
            question: family.instance(scale, wrong),
            base,
            strategy,
            engine,
        }
    }

    /// Parses every input once: the set-up check that the task list is
    /// well formed before anything is timed.
    pub fn validate(&self) -> Result<(), String> {
        let q = &self.question;
        q.universe()?;
        parse_program(&q.code).map_err(|e| e.to_string())?;
        parse_bexp(&q.pre).map_err(|e| e.to_string())?;
        parse_bexp(&q.spec).map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// What a verdict reported, kept for the known-answer check.
#[derive(Clone, Debug)]
pub struct Answer {
    pub proved: bool,
    pub witness: Option<Store>,
}

fn build_domain(base: Base, u: &Universe) -> EnumDomain {
    match base {
        Base::Int => EnumDomain::from_abstraction(u, IntervalEnv::new(u)),
        Base::Oct => EnumDomain::from_abstraction(u, OctagonDomain::new(u)),
        Base::Karr => EnumDomain::from_abstraction(u, AffineDomain::new(u)),
    }
}

fn bump(counts: &mut Counts, key: &'static str, by: u64) {
    *counts.entry(key).or_insert(0) += by;
}

/// Runs one task the way `air verify` does — universe, domain, parse,
/// `sat` of pre/spec, Algorithm 2 (or 1) on a fresh verifier, then the
/// rendered report — with a span around each layer call. Adds the
/// task's cache and repair work counts to `counts`.
pub fn run(
    task: &Task,
    rec: &mut Recorder,
    op: u64,
    counts: &mut Counts,
) -> Result<Answer, String> {
    let root = rec.enter("op", op);
    let out = run_layers(task, rec, op, counts);
    rec.exit(root);
    out
}

fn run_layers(
    task: &Task,
    rec: &mut Recorder,
    op: u64,
    counts: &mut Counts,
) -> Result<Answer, String> {
    let q = &task.question;
    let u = q.universe()?;
    let dom = rec.time("core.domain_build", op, || build_domain(task.base, &u));
    let (prog, pre_b, spec_b) = rec.time("lang.parse", op, || {
        Ok::<_, String>((
            parse_program(&q.code).map_err(|e| e.to_string())?,
            parse_bexp(&q.pre).map_err(|e| e.to_string())?,
            parse_bexp(&q.spec).map_err(|e| e.to_string())?,
        ))
    })?;
    let (pre, spec) = rec.time("lang.sat", op, || {
        let sem = Concrete::new(&u);
        Ok::<_, String>((
            sem.sat(&pre_b).map_err(|e| e.to_string())?,
            sem.sat(&spec_b).map_err(|e| e.to_string())?,
        ))
    })?;
    let mut rendered = rec.time("core.report", op, || {
        format!("{prog}\n{}\n{}\n", display_set(&u, &pre), u.size())
    });
    let cache = match task.engine {
        Engine::Enumerative => SemCache::new(),
        Engine::Symbolic => SemCache::symbolic(),
    };
    let verifier = Verifier::with_cache(&u, cache);
    // Clones share the closure memo and interner, so this handle sees
    // the counters of the domain the verifier consumes.
    let stats = dom.clone();
    let verdict = rec
        .time("core.verify", op, || match task.strategy {
            Strategy::Backward => verifier.backward(dom, &prog, &pre, &spec),
            Strategy::Forward => verifier.forward(dom, &prog, &pre, &spec),
        })
        .map_err(|e| format!("{}: {e}", task.family.name()))?;
    rec.time("core.report", op, || {
        rendered.push_str(&verdict.report(&u));
        if !verdict.is_proved() {
            rendered.push_str(&display_set(&u, &verdict.valid_input().intersection(&pre)));
        }
    });
    std::hint::black_box(&rendered);
    if let Some(c) = verifier.cache() {
        for (hits, misses, s) in [
            ("lang.exec_hits", "lang.exec_misses", c.exec_stats()),
            ("lang.wlp_hits", "lang.wlp_misses", c.wlp_stats()),
            ("lang.sat_hits", "lang.sat_misses", c.sat_stats()),
        ] {
            bump(counts, hits, s.hits);
            bump(counts, misses, s.misses);
        }
        bump(counts, "lang.bypasses", c.bypass_count());
    }
    let closure = stats.cache_stats();
    bump(counts, "lattice.closure_hits", closure.hits);
    bump(counts, "lattice.closure_misses", closure.misses);
    let interner = stats.interner_stats();
    bump(counts, "lang.intern_hits", interner.hits);
    bump(counts, "lang.intern_misses", interner.misses);
    bump(
        counts,
        "core.points_added",
        verdict.added_points().len() as u64,
    );
    Ok(Answer {
        proved: verdict.is_proved(),
        witness: match verdict {
            Verdict::Refuted { witness, .. } => Some(witness),
            Verdict::Proved { .. } => None,
        },
    })
}

/// Checks a reported answer against the known one (`truth`: the spec
/// holds); a refutation's witness must itself be an input whose
/// execution leaves the spec.
fn check(task: &Task, truth: bool, got: &Answer) -> Result<(), String> {
    let what = || {
        format!(
            "{} k={} {:?}/{:?}/{:?} spec `{}`",
            task.family.name(),
            task.scale,
            task.base,
            task.strategy,
            task.engine,
            task.question.spec
        )
    };
    if got.proved != truth {
        return Err(format!(
            "{}: verdict {} but the concrete semantics says {}",
            what(),
            if got.proved { "proved" } else { "refuted" },
            if truth { "proved" } else { "refuted" }
        ));
    }
    if let Some(w) = &got.witness {
        let (u, prog, pre, spec) = task.question.concrete()?;
        let idx = u
            .store_index(w)
            .ok_or_else(|| format!("{}: witness outside the universe", what()))?;
        let mut single = u.empty();
        single.insert(idx);
        let post = Concrete::new(&u)
            .exec(&prog, &single)
            .map_err(|e| e.to_string())?;
        if !pre.contains(idx) || post.is_subset(&spec) {
            return Err(format!("{}: witness {w:?} is not a counterexample", what()));
        }
    }
    Ok(())
}

/// Known answers, derived once per distinct question.
#[derive(Default)]
pub struct KnownAnswers(HashMap<Question, usize>);

impl KnownAnswers {
    /// `q`'s violating stores (see [`Question::violations`]).
    pub fn violations(&mut self, q: &Question) -> Result<usize, String> {
        if let Some(v) = self.0.get(q) {
            return Ok(*v);
        }
        let v = q.violations()?;
        self.0.insert(q.clone(), v);
        Ok(v)
    }

    /// How many distinct questions were answered, and how many of them
    /// refute.
    pub fn tally(&self) -> (usize, usize) {
        (self.0.len(), self.0.values().filter(|v| **v > 0).count())
    }

    /// Checks every answer of a pass against its known answer.
    fn check_all(&mut self, tasks: &[Task], answers: &[Result<Answer, String>], out: &mut Outcome) {
        for (i, (task, got)) in tasks.iter().zip(answers).enumerate() {
            let answer = match got {
                Ok(a) => a,
                Err(e) => {
                    out.notes.push(format!("operation {i} failed: {e}"));
                    continue;
                }
            };
            match self.violations(&task.question) {
                Ok(v) => {
                    if let Err(e) = check(task, v == 0, answer) {
                        out.errors.push(e);
                    }
                }
                Err(e) => out.errors.push(format!("known answer: {e}")),
            }
        }
    }
}

/// One slot of a one-shot work list: a family on a base, engine and
/// strategy, with the scale range its tasks are spread over.
pub struct Slot {
    pub family: Family,
    pub base: Base,
    pub strategy: Strategy,
    pub engine: Engine,
    pub lo: i64,
    pub hi: i64,
}

/// Round `round`'s work list: `reps` tasks per slot, scales spread over
/// the slot's range (so that the rounds of a run together cover it
/// evenly, at equal cost per round), all in seeded order. Of each slot's tasks, those at
/// ranks 1, 4, 7, … by scale check the wrong spec — fixed ranks, so every
/// seed refutes at the same scales. Forward tasks keep the right spec: a
/// refuting forward repair adds points until the counterexamples are
/// expressible, and its cost explodes with scale. So does refuting
/// `parity_flip` backward (every wrong spec about `b` is a parity fact),
/// so that family always proves.
pub fn work_list(slots: &[Slot], reps: usize, seed: u64, round: usize, rounds: usize) -> Vec<Task> {
    let mut rng = crate::measure::Rng::for_round(seed, round);
    let mut tasks = Vec::with_capacity(slots.len() * reps);
    for (s, slot) in slots.iter().enumerate() {
        let scales = rng.spread(slot.lo, slot.hi, reps, round + s, rounds);
        for (rank, k) in scales.into_iter().enumerate() {
            let wrong = slot.strategy == Strategy::Backward
                && slot.family != Family::ParityFlip
                && rank % 3 == 1;
            tasks.push(Task::new(
                slot.family,
                k,
                wrong,
                slot.base,
                slot.strategy,
                slot.engine,
            ));
        }
    }
    rng.shuffle(&mut tasks);
    tasks
}

/// The span names of the one-shot path and the per-layer metrics their
/// per-verdict self times report.
const LAYERS: &[(&str, &str)] = &[
    ("lang.parse", "lang.parse_ms"),
    ("lang.sat", "lang.sat_ms"),
    ("core.domain_build", "core.domain_build_ms"),
    ("core.verify", "core.verify_ms"),
    ("core.report", "core.report_ms"),
];

/// A one-shot workload over a seeded work list per round. Set-up builds
/// the list and parses every input; a pass runs each task on a fresh
/// verifier.
pub struct OneShot<F> {
    list: F,
    rounds: usize,
    truths: KnownAnswers,
    checked: usize,
    probe: Probe,
}

impl<F: Fn(usize) -> Vec<Task>> OneShot<F> {
    /// `list(round)` is round `round`'s work list.
    pub fn new(list: F, rounds: usize) -> Self {
        OneShot {
            list,
            rounds,
            truths: KnownAnswers::default(),
            checked: 0,
            probe: Probe::new(),
        }
    }
}

/// A round's work list and, once it ran, what each task answered.
pub struct Round {
    tasks: Vec<Task>,
    answers: Vec<Result<Answer, String>>,
}

impl<F: Fn(usize) -> Vec<Task>> Workload for OneShot<F> {
    type State = Round;

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn setups_per_round(&self) -> usize {
        25
    }

    fn setup(&mut self, round: usize) -> Result<Round, String> {
        let tasks = (self.list)(round);
        for t in &tasks {
            t.validate()?;
        }
        Ok(Round {
            answers: Vec::with_capacity(tasks.len()),
            tasks,
        })
    }

    fn pass(
        &mut self,
        round: &mut Round,
        rec: &mut Recorder,
        pass: &mut Pass,
        counts: &mut Counts,
        _out: &mut Outcome,
    ) -> Result<(), String> {
        for (i, task) in round.tasks.iter().enumerate() {
            let t0 = Instant::now();
            let got = catch_unwind(AssertUnwindSafe(|| run(task, rec, i as u64, counts)))
                .unwrap_or_else(|_| Err("panicked".to_string()));
            pass.push(t0.elapsed().as_secs_f64() * 1e3, got.is_ok());
            pass.speeds.push(self.probe.sample());
            round.answers.push(got);
        }
        Ok(())
    }

    fn check(&mut self, round: &mut Round, _pass: &mut Pass, out: &mut Outcome) {
        self.truths.check_all(&round.tasks, &round.answers, out);
        self.checked += round.answers.len();
    }

    fn finish(&self, out: &mut Outcome) {
        let (questions, refuting) = self.truths.tally();
        out.notes.push(format!(
            "{} verdicts checked against the concrete semantics, {questions} distinct questions ({refuting} refuting)",
            self.checked
        ));
    }

    fn layers(&self, rec: &Recorder, counts: &Counts, ops: u64, out: &mut Outcome) {
        out.layer_times(rec, ops, LAYERS);
        let op_ms = out.span_ms(rec, "op", ops);
        out.set("op.time_to_verdict_ms", op_ms);
        let c = |k: &str| counts.get(k).copied().unwrap_or(0);
        for (base, ratio, hits, misses) in [
            (
                "lang.exec_lookups",
                "lang.exec_hit_ratio",
                "lang.exec_hits",
                "lang.exec_misses",
            ),
            (
                "lang.wlp_lookups",
                "lang.wlp_hit_ratio",
                "lang.wlp_hits",
                "lang.wlp_misses",
            ),
            (
                "lang.sat_lookups",
                "lang.sat_hit_ratio",
                "lang.sat_hits",
                "lang.sat_misses",
            ),
            (
                "lattice.closure_lookups",
                "lattice.closure_hit_ratio",
                "lattice.closure_hits",
                "lattice.closure_misses",
            ),
            (
                "lang.intern_lookups",
                "lang.intern_hit_ratio",
                "lang.intern_hits",
                "lang.intern_misses",
            ),
        ] {
            out.ratio(base, ratio, c(hits), c(misses));
        }
        out.set("lang.bypasses", c("lang.bypasses") as f64);
        out.set("core.points_added", c("core.points_added") as f64);
        let layered: f64 = ["lang.sat_ms", "core.verify_ms", "core.report_ms"]
            .iter()
            .map(|k| out.metrics[*k])
            .sum();
        out.notes.push(format!(
            "time-to-verdict {op_ms:.3} ms per task under tracing, of which sat+verify+report self time {layered:.3} ms ({:.1}%)",
            100.0 * layered / op_ms
        ));
    }
}
