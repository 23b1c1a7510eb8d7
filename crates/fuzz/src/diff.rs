//! Pairwise differential sweeps across engine configurations.
//!
//! The same instance is pushed through every configuration axis the
//! ROADMAP exposes — cached vs uncached [`SemCache`](air_lang::SemCache), governed vs
//! ungoverned, sequential vs [`par_map_governed`] parallelism, the
//! `LCL_A` prover vs the repair engines, (axis 7) a fault-injected
//! run recovered by the [`Supervisor`] vs the fault-free run,
//! (axis 8) a warm [`RepairSession`] incrementally re-verifying the
//! unchanged program and a single-statement edit of it vs from-scratch
//! runs, and (axis 9) the diagram set kernel vs the bitset one, and the
//! symbolic algebra vs the enumerative one on `Int` bases — and any
//! observable disagreement is reported as a human-readable message. An
//! empty result is agreement everywhere.
//!
//! Budget cutoffs are *not* disagreements: a tightly-governed run may
//! legitimately stop early, but its partial invariant must still be a
//! sound over-approximation (Theorems 7.1/7.6 need the completed
//! repair only for precision, never for soundness).

use std::sync::Arc;

use crate::case::BuiltCase;
use air_core::{
    BackwardRepair, Engine, EnumAlgebra, ForwardRepair, Lcl, RepairError, RepairSession, Verifier,
};
use air_lang::{Concrete, Exp, Reg, SemError, SetKernel, StateSet, SymEngine};
use air_lattice::{par_map_governed, Budget, Governor};
use air_resilience::{
    FailSwitch, FaultInjector, FaultKind, FaultPlan, FaultSpec, InjectSink, RetryPolicy, Supervisor,
};
use air_trace::{MemorySink, Tracer};

/// Runs all configuration pairs on one instance.
///
/// # Errors
///
/// `Err(SemError)` when the instance itself cannot be evaluated
/// (universe escape, overflow) — a skip, not a disagreement.
pub fn differential_sweep(b: &BuiltCase) -> Result<Vec<String>, SemError> {
    let mut diffs = Vec::new();
    let u = &b.universe;
    let r = &b.case.program;

    // Axes 1, 2 and 5 compare each engine with itself in the uncached
    // reference algebra.
    let bare = EnumAlgebra::uncached(u);

    // Axis 1 — forward repair, cached vs uncached.
    let fwd_cached = ForwardRepair::new(u)
        .max_repairs(4_000)
        .repair(b.domain.clone(), r, &b.pre);
    let fwd_plain = ForwardRepair::from_algebra(u, bare.clone())
        .max_repairs(4_000)
        .repair(b.domain.clone(), r, &b.pre);
    match (&fwd_cached, &fwd_plain) {
        (Ok(c), Ok(p)) => {
            if c.under != p.under {
                diffs.push("fRepair: cached and uncached under-approximations differ".into());
            }
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
            if let Some(msg) = repair_error_diff("fRepair cache asymmetry", e)? {
                diffs.push(msg);
            }
        }
        (Err(a), Err(b2)) => {
            check_repair_error(a)?;
            check_repair_error(b2)?;
        }
    }

    // Axis 2 — backward repair, cached vs uncached.
    let bwd_cached = BackwardRepair::new(u).repair(&b.domain, &b.pre, r, &b.spec);
    let bwd_plain =
        BackwardRepair::from_algebra(u, bare.clone()).repair(&b.domain, &b.pre, r, &b.spec);
    match (bwd_cached, bwd_plain) {
        (Ok(c), Ok(p)) => {
            if c.valid_input != p.valid_input {
                diffs.push("bRepair: cached and uncached valid inputs differ".into());
            }
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
            if let Some(msg) = repair_error_diff("bRepair cache asymmetry", &e)? {
                diffs.push(msg);
            }
        }
        (Err(a), Err(b2)) => {
            check_repair_error(&a)?;
            check_repair_error(&b2)?;
        }
    }

    // Axis 3 — verifier, plain vs unlimited governor (the disabled
    // governor must be the zero-cost path).
    let plain = Verifier::new(u).backward(b.domain.clone(), r, &b.pre, &b.spec);
    let governed = Verifier::new(u).governor(Governor::unlimited()).backward(
        b.domain.clone(),
        r,
        &b.pre,
        &b.spec,
    );
    match (&plain, &governed) {
        (Ok(p), Ok(g)) => {
            if p.is_proved() != g.is_proved() {
                diffs.push("verify: unlimited governor changed the verdict".into());
            }
            if p.added_points() != g.added_points() {
                diffs.push("verify: unlimited governor changed the repair points".into());
            }
        }
        (Err(e), _) | (_, Err(e)) => check_repair_error(e)?,
    }

    // Axis 4 — verifier under a tight fuel budget: it may exhaust, but a
    // surfaced partial invariant must still over-approximate ⟦r⟧P.
    let tight = Verifier::new(u)
        .governor(Governor::new(Budget::fuel(8)))
        .backward(b.domain.clone(), r, &b.pre, &b.spec);
    match tight {
        Ok(v) => {
            if let Ok(p) = &plain {
                if p.is_proved() != v.is_proved() {
                    diffs.push("verify: tight fuel completed but flipped the verdict".into());
                }
            }
        }
        Err(RepairError::Exhausted(partial)) => {
            if let Some(inv) = &partial.invariant {
                let sem = Concrete::new(u);
                let conc = sem.exec(r, &b.pre)?;
                if !conc.is_subset(inv) {
                    diffs.push(
                        "governed cutoff: partial invariant is not a sound over-approximation"
                            .into(),
                    );
                }
            }
        }
        Err(e) => check_repair_error(&e)?,
    }

    // Axis 5 — LCL_A prover, cached vs uncached verdicts.
    let lcl_cached = Lcl::new(u).prove_spec(b.domain.clone(), &b.pre, r, &b.spec);
    let lcl_plain = Lcl::from_algebra(u, bare).prove_spec(b.domain.clone(), &b.pre, r, &b.spec);
    match (lcl_cached, lcl_plain) {
        (Ok(c), Ok(p)) => {
            if c.is_valid() != p.is_valid() {
                diffs.push("LCL: cached and uncached verdicts differ".into());
            }
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
            if let Some(msg) = repair_error_diff("LCL cache asymmetry", &e)? {
                diffs.push(msg);
            }
        }
        (Err(a), Err(b2)) => {
            check_repair_error(&a)?;
            check_repair_error(&b2)?;
        }
    }

    // Axis 6 — parallel vs sequential concrete sweeps: par_map_governed
    // over derived inputs must agree element-wise with the inline path.
    let sem = Concrete::new(u);
    let inputs: Vec<StateSet> = (0..4u64)
        .map(|k| derived_set(b, k.wrapping_mul(0x9E37)))
        .collect();
    let seq: Vec<Option<Result<StateSet, SemError>>> =
        inputs.iter().map(|p| Some(sem.exec(r, p))).collect();
    let gov = Governor::unlimited();
    let par = par_map_governed(2, &inputs, &gov, |_, p: &StateSet| sem.exec(r, p));
    if seq != par {
        diffs.push("par_map_governed(jobs=2) disagrees with the sequential sweep".into());
    }

    // Axis 7 — fault injection + supervised recovery: a one-shot panic
    // at the first `verify.*` trace point, retried by the Supervisor,
    // must reproduce the fault-free verdict exactly (recovery restores
    // the run; Theorems 7.1/7.6 are indifferent to the crashed attempt).
    let plan = FaultPlan {
        seed: b.case.seed,
        faults: vec![FaultSpec {
            site: "verify.".into(),
            after: 0,
            kind: FaultKind::Panic,
        }],
    };
    let injector = FaultInjector::armed(&plan, Governor::unlimited(), FailSwitch::new());
    let sink = InjectSink::new(Arc::new(MemorySink::new()), injector.clone());
    let tracer = Tracer::new(Arc::new(sink));
    injector.set_tracer(&tracer);
    let supervisor = Supervisor::new(RetryPolicy::default());
    match supervisor.run("diff.fault_axis", || {
        Verifier::new(u)
            .tracer(tracer.clone())
            .backward(b.domain.clone(), r, &b.pre, &b.spec)
    }) {
        Ok(recovered) => {
            match (&plain, &recovered) {
                (Ok(p), Ok(f)) => {
                    if p.is_proved() != f.is_proved() {
                        diffs.push(
                            "fault axis: recovery after an injected panic flipped the verdict"
                                .into(),
                        );
                    }
                    if p.added_points() != f.added_points() {
                        diffs.push("fault axis: recovery after an injected panic changed the repair points".into());
                    }
                }
                (Err(e), _) | (_, Err(e)) => check_repair_error(e)?,
            }
        }
        Err(failure) => {
            diffs.push(format!(
                "fault axis: supervised verify did not recover from an injected panic: {failure}"
            ));
        }
    }

    // Axis 8 — incremental re-repair vs from-scratch. A warm
    // RepairSession re-verifying the unchanged program, then a
    // single-statement edit of it, must reproduce the from-scratch
    // verdicts bit for bit: warm arenas and memo tables are pure, so
    // reuse may only change the cost, never the answer.
    let session = RepairSession::new(b.universe.clone(), b.domain.clone());
    let warm_first = session.verify(r, &b.pre, &b.spec);
    let warm_again = session.verify(r, &b.pre, &b.spec);
    match (&plain, &warm_again) {
        (Ok(p), Ok(s)) => {
            if p.is_proved() != s.verdict.is_proved()
                || p.valid_input() != s.verdict.valid_input()
                || p.added_points() != s.verdict.added_points()
            {
                diffs.push(
                    "reverify: warm session disagrees with from-scratch on the unchanged program"
                        .into(),
                );
            }
            if s.reuse.fresh_nodes != 0 {
                diffs.push("reverify: re-interning an unchanged program added arena nodes".into());
            }
        }
        (Err(e), _) | (_, Err(e)) => check_repair_error(e)?,
    }
    if let Err(e) = &warm_first {
        check_repair_error(e)?;
    }
    let edited = skip_one_statement(r, b.case.seed);
    let warm_edit = session.verify(&edited, &b.pre, &b.spec);
    let scratch_edit = Verifier::new(u).backward(b.domain.clone(), &edited, &b.pre, &b.spec);
    match (warm_edit, scratch_edit) {
        (Ok(s), Ok(p)) => {
            if p.is_proved() != s.verdict.is_proved()
                || p.valid_input() != s.verdict.valid_input()
                || p.added_points() != s.verdict.added_points()
            {
                diffs.push(
                    "reverify: warm session disagrees with from-scratch on an edited program"
                        .into(),
                );
            }
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
            if let Some(msg) = repair_error_diff("reverify edit asymmetry", &e)? {
                diffs.push(msg);
            }
        }
        (Err(a), Err(b2)) => {
            check_repair_error(&a)?;
            check_repair_error(&b2)?;
        }
    }

    // Axis 9 — the diagram kernel vs the bitset kernel, and the symbolic
    // algebra vs the enumerative one. Fuzz universes are enumerable by
    // construction (the gate below is belt-and-braces for future, larger
    // generators). Both kernels must give the same `⟦r⟧pre` and
    // `wlp(r, spec)` under the one recursion, errors and payloads
    // included; where the verifier runs the symbolic algebra (an `Int`
    // base) its verdict must match the enumerative one byte for byte.
    if u.size() <= SYMBOLIC_DIFF_BOUND {
        let eng = SymEngine::new(u);
        let sym_exec = eng.exec(false, r, &eng.lift(&b.pre));
        if sym_exec.map(|s| eng.lower(s)) != u.exec(false, r, &b.pre) {
            diffs.push("symbolic axis: the kernels disagree on exec(r, pre)".into());
        }
        let sym_wlp = eng.wlp(r, &eng.lift(&b.spec));
        if sym_wlp.map(|s| eng.lower(s)) != u.wlp(r, &b.spec) {
            diffs.push("symbolic axis: the kernels disagree on wlp(r, spec)".into());
        }
    }
    if u.size() <= SYMBOLIC_DIFF_BOUND && Engine::Symbolic.on_diagrams(&b.domain) {
        let symbolic = Verifier::new(u).engine(Engine::Symbolic).backward(
            b.domain.clone(),
            r,
            &b.pre,
            &b.spec,
        );
        match (&plain, &symbolic) {
            (Ok(p), Ok(s)) => {
                if p.report(u) != s.report(u) {
                    diffs.push("symbolic axis: backward verdict reports differ byte-wise".into());
                }
                if p.valid_input() != s.valid_input() || p.added_points() != s.added_points() {
                    diffs.push(
                        "symbolic axis: symbolic algebra changed the valid input or repair points"
                            .into(),
                    );
                }
            }
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
                if let Some(msg) = repair_error_diff("symbolic axis asymmetry", e)? {
                    diffs.push(msg);
                }
            }
            (Err(a), Err(b2)) => {
                check_repair_error(a)?;
                check_repair_error(b2)?;
            }
        }
    }

    Ok(diffs)
}

/// Axis 9 only compares engines on universes the bitset kernel can
/// enumerate comfortably; beyond this the symbolic engine is the only
/// one that applies and there is nothing to differentiate against.
pub const SYMBOLIC_DIFF_BOUND: usize = 1 << 16;

/// A deterministic single-statement edit: the `seed`-chosen basic
/// command is replaced by `skip`, leaving every other node untouched —
/// the shape of edit the incremental re-repair axis is about.
pub fn skip_one_statement(r: &Reg, seed: u64) -> Reg {
    let leaves = count_basic(r);
    let target = (seed as usize) % leaves.max(1);
    let mut next = 0usize;
    replace_basic(r, target, &mut next)
}

fn count_basic(r: &Reg) -> usize {
    match r {
        Reg::Basic(_) => 1,
        Reg::Seq(a, b) | Reg::Choice(a, b) => count_basic(a) + count_basic(b),
        Reg::Star(body) => count_basic(body),
    }
}

fn replace_basic(r: &Reg, target: usize, next: &mut usize) -> Reg {
    match r {
        Reg::Basic(e) => {
            let here = *next;
            *next += 1;
            if here == target {
                Reg::Basic(Exp::Skip)
            } else {
                Reg::Basic(e.clone())
            }
        }
        Reg::Seq(a, b) => Reg::Seq(
            Box::new(replace_basic(a, target, next)),
            Box::new(replace_basic(b, target, next)),
        ),
        Reg::Choice(a, b) => Reg::Choice(
            Box::new(replace_basic(a, target, next)),
            Box::new(replace_basic(b, target, next)),
        ),
        Reg::Star(body) => Reg::Star(Box::new(replace_basic(body, target, next))),
    }
}

fn derived_set(b: &BuiltCase, salt: u64) -> StateSet {
    let mut rng = air_lang::gen::XorShift::new(b.case.seed ^ salt ^ 0xD1FF);
    let mut s = b.universe.empty();
    for i in 0..b.universe.size() {
        if rng.chance(1, 3) {
            s.insert(i);
        }
    }
    s
}

/// Semantic errors abort the case (skip); internal errors are real
/// findings and must surface, which the caller does by reporting the
/// returned message.
fn repair_error_diff(context: &str, e: &RepairError) -> Result<Option<String>, SemError> {
    match e {
        RepairError::Sem(e) => Err(e.clone()),
        // One side exhausting while the other completes can only happen
        // with a configured budget; with none, surface it.
        RepairError::Exhausted(p) => Ok(Some(format!(
            "{context}: one configuration exhausted ({}) while the other completed",
            p.exhaustion
        ))),
        RepairError::Internal(msg) => Ok(Some(format!("{context}: internal error: {msg}"))),
    }
}

fn check_repair_error(e: &RepairError) -> Result<(), SemError> {
    match e {
        RepairError::Sem(e) => Err(e.clone()),
        RepairError::Exhausted(p) => Err(SemError::Exhausted(p.exhaustion.clone())),
        RepairError::Internal(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::FuzzCase;

    #[test]
    fn small_cases_agree_across_configurations() {
        let mut checked = 0;
        for seed in 0..20 {
            let case = FuzzCase::generate(seed);
            let Ok(built) = case.build() else { continue };
            // An Err is an unevaluable instance: a legitimate skip.
            if let Ok(diffs) = differential_sweep(&built) {
                assert!(diffs.is_empty(), "seed {seed}: {diffs:?}");
                checked += 1;
            }
        }
        assert!(checked >= 5, "only {checked}/20 cases evaluable");
    }

    #[test]
    fn fault_axis_is_not_vacuous() {
        // Replicate axis 7 on one buildable case and check the panic
        // actually fires and is retried — otherwise the axis would pass
        // trivially without exercising recovery.
        let built = (0..20)
            .find_map(|seed| FuzzCase::generate(seed).build().ok())
            .expect("a buildable case among the first 20 seeds");
        let plan = FaultPlan {
            seed: built.case.seed,
            faults: vec![FaultSpec {
                site: "verify.".into(),
                after: 0,
                kind: FaultKind::Panic,
            }],
        };
        let injector = FaultInjector::armed(&plan, Governor::unlimited(), FailSwitch::new());
        let sink = InjectSink::new(Arc::new(MemorySink::new()), injector.clone());
        let tracer = Tracer::new(Arc::new(sink));
        injector.set_tracer(&tracer);
        let supervisor = Supervisor::new(RetryPolicy::default());
        let out = supervisor.run("test.fault_axis", || {
            Verifier::new(&built.universe)
                .tracer(tracer.clone())
                .backward(
                    built.domain.clone(),
                    &built.case.program,
                    &built.pre,
                    &built.spec,
                )
        });
        assert!(out.is_ok(), "supervised verify must recover: {out:?}");
        assert_eq!(injector.injected(), 1, "the panic fault fired once");
        assert_eq!(supervisor.retry_count(), 1, "one retry healed the run");
    }
}
