//! `air chaos` — a seeded fault-injection sweep over the corpus.
//!
//! Each plan `i` expands `--seed + i` into a deterministic fault
//! schedule ([`FaultPlan::from_seed`]) and every corpus program is
//! verified under it with the full resilience stack engaged: a
//! [`Supervisor`] retries injected panics, poisoned cache shards are
//! quarantined on the next access, a tripped [`FailSwitch`] degrades the
//! plan's JSONL sink, and an injected cancel stops the run at the next
//! governed check with a sound partial result.
//!
//! The sweep asserts the paper's robustness story (Thm. 7.1/7.6): a run
//! that *completes* under faults must agree with the concrete semantics,
//! and a run that is *cut off* must carry a partial invariant that still
//! over-approximates the concrete reachable states. Any abort (a task
//! that out-ran its retry budget) or soundness violation fails the sweep
//! with exit code 4. The `--stats-json` report contains no wall-clock
//! data, so identical seeds produce byte-identical reports.

use std::sync::Arc;

use air_core::Verifier;
use air_lang::Concrete;
use air_lattice::{Budget, Governor};
use air_resilience::{
    install_quiet_fault_hook, FailSwitch, FaultInjector, FaultPlan, FlakyWriter, InjectSink,
    Supervisor,
};
use air_trace::{json, JsonlSink, MultiSink, Sink, Tracer};

use crate::args::{ChaosTask, DomainKind, Question};
use crate::run::{usage, AirError, Outcome};

/// Fuel per program run when `--fuel` is absent: generous enough that
/// only an injected cancel (never organic exhaustion) cuts corpus-sized
/// programs short, keeping the default sweep's outcome mix readable.
pub(crate) const DEFAULT_CHAOS_FUEL: u64 = 5_000_000;

/// One corpus program prepared once and replayed under every plan.
pub(crate) struct Prepared {
    name: String,
    question: Question,
    /// Ground truth from the concrete semantics: `⟦r⟧pre ⊆ spec`.
    truth_proved: bool,
}

/// Per-plan tallies; everything here is seed-deterministic, which is
/// what lets `--shards N` merge worker rows into a byte-identical
/// report.
#[derive(Default)]
pub(crate) struct PlanRow {
    seed: u64,
    faults: String,
    injected: u64,
    retries: u64,
    proved: u64,
    refuted: u64,
    budget: u64,
    errors: u64,
    aborts: u64,
    quarantined: u64,
    sinks_degraded: u64,
    soundness_violations: u64,
}

/// Reads every `*.imp` program under `dir` and precomputes its concrete
/// ground truth (the fault-free referee every faulted run is judged
/// against).
pub(crate) fn prepare_corpus(dir: &str) -> Result<Vec<Prepared>, AirError> {
    let corpus = air_core::question::load_corpus(dir, DomainKind::Int)?;
    let mut out = Vec::with_capacity(corpus.len());
    for (name, question) in corpus {
        let b = question.build()?;
        let post = Concrete::new(&b.universe)
            .exec(&b.program, &b.pre)
            .map_err(|e| usage(format!("{name}: concrete oracle failed: {e}")))?;
        out.push(Prepared {
            name,
            question,
            truth_proved: post.is_subset(&b.spec),
        });
    }
    Ok(out)
}

/// Verifies one program under one fault plan, folding the outcome into
/// `row`. The whole resilience chain is engaged per run: a fresh
/// governor (so an injected cancel cannot leak into the next program), a
/// fresh injector, and a JSONL sink behind a [`FlakyWriter`] wired to
/// the plan's [`FailSwitch`] so `SinkFail` faults exercise real sink
/// degradation.
fn run_one(
    p: &Prepared,
    plan: &FaultPlan,
    fuel: u64,
    sweep_sink: Option<&Arc<dyn Sink>>,
    row: &mut PlanRow,
) {
    let Ok(b) = p.question.build() else {
        row.errors += 1;
        return;
    };
    let u = &b.universe;
    let governor = Governor::new(Budget::fuel(fuel));
    let switch = FailSwitch::new();
    let injector = FaultInjector::armed(plan, governor.clone(), switch.clone());
    let flaky: Arc<dyn Sink> = Arc::new(JsonlSink::from_writer(Box::new(FlakyWriter::new(
        std::io::sink(),
        switch.clone(),
    ))));
    let fan: Vec<Arc<dyn Sink>> = match sweep_sink {
        Some(sink) => vec![flaky, Arc::clone(sink)],
        None => vec![flaky],
    };
    let tracer = Tracer::new(Arc::new(InjectSink::new(
        Arc::new(MultiSink::new(fan)),
        injector.clone(),
    )));
    injector.set_tracer(&tracer);
    let verifier = Verifier::new(u)
        .tracer(tracer.clone())
        .governor(governor.clone());
    // The verifier's memo tables are Arc-shared with their clones, so
    // poison faults land on the live cache mid-run.
    let cache = verifier.cache().cloned();
    if let Some(c) = cache.clone() {
        injector.on_poison(move |table, shard| c.chaos_poison_shard(table, shard));
    }
    // Plans carry up to 3 one-shot panics, so 4 attempts always converge
    // unless a *genuine* (non-injected) panic keeps recurring.
    let supervisor = Supervisor::with_tracer(4, tracer.clone());
    let site = format!("chaos.{}", p.name);
    let result = supervisor.run(&site, || {
        verifier.backward(b.domain.clone(), &b.program, &b.pre, &b.spec)
    });
    row.injected += injector.injected();
    row.retries += supervisor.retry_count();
    if let Some(c) = &cache {
        row.quarantined += c.quarantine_count();
    }
    if switch.is_tripped() {
        row.sinks_degraded += 1;
    }
    match result {
        Ok(Ok(verdict)) => {
            // A run that completes under faults must agree with the
            // concrete semantics — retries and quarantines may cost
            // precision-rebuilding work, never the verdict.
            if verdict.is_proved() {
                row.proved += 1;
            } else {
                row.refuted += 1;
            }
            if verdict.is_proved() != p.truth_proved {
                row.soundness_violations += 1;
            }
        }
        Ok(Err(air_core::RepairError::Exhausted(partial))) => {
            row.budget += 1;
            // Thm. 7.1/7.6 prefix-soundness: the partial invariant must
            // still over-approximate the concrete reachable states.
            if let Some(inv) = &partial.invariant {
                let sound = Concrete::new(u)
                    .exec(&b.program, &b.pre)
                    .map(|post| post.is_subset(inv))
                    .unwrap_or(false);
                if !sound {
                    row.soundness_violations += 1;
                }
            }
        }
        Ok(Err(_)) => row.errors += 1,
        Err(_) => row.aborts += 1,
    }
}

/// Renders the deterministic campaign report (`air-chaos-report/1`).
/// No wall-clock data: identical seeds must yield identical bytes.
fn render_report(task: &ChaosTask, fuel: u64, programs: usize, rows: &[PlanRow]) -> String {
    let total = |f: fn(&PlanRow) -> u64| rows.iter().map(f).sum::<u64>();
    let mut out = String::from("{\"schema\":\"air-chaos-report/1\",\"dir\":");
    json::escape_str(&task.dir, &mut out);
    out.push_str(&format!(
        ",\"plans\":{},\"base_seed\":{},\"fuel\":{fuel},\"programs\":{programs},\"runs\":{}",
        task.plans,
        task.seed,
        task.plans * programs as u64
    ));
    out.push_str(&format!(
        ",\"proved\":{},\"refuted\":{},\"budget\":{},\"errors\":{},\"aborts\":{}",
        total(|r| r.proved),
        total(|r| r.refuted),
        total(|r| r.budget),
        total(|r| r.errors),
        total(|r| r.aborts)
    ));
    out.push_str(&format!(
        ",\"injected\":{},\"retries\":{},\"quarantined\":{},\"sinks_degraded\":{},\"soundness_violations\":{}",
        total(|r| r.injected),
        total(|r| r.retries),
        total(|r| r.quarantined),
        total(|r| r.sinks_degraded),
        total(|r| r.soundness_violations)
    ));
    out.push_str(",\"plan_rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_plan_row(r, &mut out);
    }
    out.push_str("]}");
    out
}

/// One plan row as a JSON object (shared by the campaign report and the
/// worker lease payload).
fn render_plan_row(r: &PlanRow, out: &mut String) {
    out.push_str(&format!("{{\"seed\":{},\"faults\":", r.seed));
    json::escape_str(&r.faults, out);
    out.push_str(&format!(
        ",\"injected\":{},\"retries\":{},\"proved\":{},\"refuted\":{},\"budget\":{},\"errors\":{},\"aborts\":{},\"quarantined\":{},\"sinks_degraded\":{},\"soundness_violations\":{}}}",
        r.injected,
        r.retries,
        r.proved,
        r.refuted,
        r.budget,
        r.errors,
        r.aborts,
        r.quarantined,
        r.sinks_degraded,
        r.soundness_violations
    ));
}

/// Renders a worker's plan rows as one lease payload line
/// (`air-chaos-rows/1`). Rows carry no wall-clock data, so the
/// distributed merge is byte-deterministic.
pub(crate) fn render_rows(rows: &[PlanRow]) -> String {
    let mut out = String::from("{\"schema\":\"air-chaos-rows/1\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_plan_row(r, &mut out);
    }
    out.push_str("]}");
    out
}

/// Parses a lease payload written by [`render_rows`]. `None` on any
/// malformed row: a worker bug must surface as a coordinator error, not
/// shrink the sweep.
pub(crate) fn parse_rows(text: &str) -> Option<Vec<PlanRow>> {
    let doc = json::parse(text.trim()).ok()?;
    if doc.get("schema")?.as_str()? != "air-chaos-rows/1" {
        return None;
    }
    let mut out = Vec::new();
    for row in doc.get("rows")?.as_arr()? {
        let num = |key: &str| row.get(key).and_then(json::Value::as_num).map(|n| n as u64);
        out.push(PlanRow {
            seed: num("seed")?,
            faults: row.get("faults")?.as_str()?.to_string(),
            injected: num("injected")?,
            retries: num("retries")?,
            proved: num("proved")?,
            refuted: num("refuted")?,
            budget: num("budget")?,
            errors: num("errors")?,
            aborts: num("aborts")?,
            quarantined: num("quarantined")?,
            sinks_degraded: num("sinks_degraded")?,
            soundness_violations: num("soundness_violations")?,
        });
    }
    Some(out)
}

/// Runs every prepared program under the fault plan derived from `seed`
/// and returns the plan's tally row. The unit of work a distributed
/// lease hands out.
pub(crate) fn run_plan(
    programs: &[Prepared],
    seed: u64,
    fuel: u64,
    sweep_sink: Option<&Arc<dyn Sink>>,
) -> PlanRow {
    let plan = FaultPlan::from_seed(seed);
    let mut row = PlanRow {
        seed,
        faults: plan.describe(),
        ..PlanRow::default()
    };
    for p in programs {
        run_one(p, &plan, fuel, sweep_sink, &mut row);
    }
    row
}

/// `air chaos` — sweep the corpus under seeded fault plans and assert
/// zero aborts and zero soundness violations.
pub(crate) fn chaos(task: ChaosTask) -> Result<Outcome, AirError> {
    if let Some(shard) = task.dist.worker {
        return crate::dist::chaos_worker(shard, &task);
    }
    if task.dist.requested() {
        return crate::dist::chaos_dist(&task);
    }
    install_quiet_fault_hook();
    crate::signal::install();
    let programs = prepare_corpus(&task.dir)?;
    let fuel = task.fuel.unwrap_or(DEFAULT_CHAOS_FUEL);
    let sweep_sink: Option<Arc<dyn Sink>> = match &task.trace {
        Some(path) => Some(Arc::new(
            JsonlSink::create(std::path::Path::new(path))
                .map_err(|e| usage(format!("cannot create trace file `{path}`: {e}")))?,
        )),
        None => None,
    };
    print_banner(&task, programs.len(), fuel);
    let mut rows: Vec<PlanRow> = Vec::with_capacity(task.plans as usize);
    for i in 0..task.plans {
        if crate::signal::interrupted() {
            eprintln!("interrupted after {i} of {} plan(s)", task.plans);
            return Err(AirError::Budget {
                phase: "chaos.sweep".to_string(),
                spent: i,
                reason: "cancelled".to_string(),
            });
        }
        rows.push(run_plan(
            &programs,
            task.seed.saturating_add(i),
            fuel,
            sweep_sink.as_ref(),
        ));
    }
    finish_chaos(&task, fuel, programs.len(), &rows)
}

/// The sweep banner, shared by the in-process and distributed sweeps.
pub(crate) fn print_banner(task: &ChaosTask, programs: usize, fuel: u64) {
    let (plans, seed) = (task.plans, task.seed);
    println!(
        "chaos sweep: {plans} plan(s) from seed {seed}, {programs} program(s), fuel {fuel} per run"
    );
}

/// Prints the outcome/resilience/soundness summary (and `--stats-json`)
/// and folds aborts or soundness violations into the exit code. Shared
/// by the in-process sweep and the distributed merge.
pub(crate) fn finish_chaos(
    task: &ChaosTask,
    fuel: u64,
    programs: usize,
    rows: &[PlanRow],
) -> Result<Outcome, AirError> {
    let total = |f: fn(&PlanRow) -> u64| rows.iter().map(f).sum::<u64>();
    let (aborts, violations) = (total(|r| r.aborts), total(|r| r.soundness_violations));
    println!(
        "  outcomes: {} proved, {} refuted, {} budget-cut, {} error(s), {} abort(s)",
        total(|r| r.proved),
        total(|r| r.refuted),
        total(|r| r.budget),
        total(|r| r.errors),
        aborts
    );
    println!(
        "  resilience: {} fault(s) injected, {} retry(ies), {} shard(s) quarantined, {} sink(s) degraded",
        total(|r| r.injected),
        total(|r| r.retries),
        total(|r| r.quarantined),
        total(|r| r.sinks_degraded)
    );
    println!("  soundness: {violations} violation(s)");
    if task.stats_json {
        println!("{}", render_report(task, fuel, programs, rows));
    }
    if aborts > 0 || violations > 0 {
        return Err(AirError::Internal(format!(
            "chaos sweep failed: {aborts} abort(s), {violations} soundness violation(s)"
        )));
    }
    println!("chaos sweep passed: zero aborts, zero soundness violations");
    Ok(Outcome::Positive)
}
