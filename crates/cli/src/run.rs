//! Executing parsed CLI commands against the AIR engine.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use air_core::question::load_corpus;
use air_core::summarize::display_set;
use air_core::{
    EnumAlgebra, EnumDomain, Lcl, Question, QuestionError, RepairError, Verdict, Verifier,
};
use air_lang::{SemCache, StateSet, Universe};
use air_lattice::{par_map_governed, Budget, CacheStats, Exhaustion, Governor};
use air_resilience::Checkpointer;
use air_trace::{json, EventKind, JsonlSink, MultiSink, Profiler, Sink, Summary, Tracer};

use crate::args::{Command, CorpusTask, Engine, FuzzCmd, RepairTask, ServeTask, Task, TraceFormat};
use crate::signal::CancelWatch;

/// The sign of a completed run (drives the exit code).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Proved / no alarms.
    Positive,
    /// Refuted / alarms present.
    Negative,
}

/// The CLI's single error type; the variant decides the exit code
/// (`0` proved, `1` refuted, `2` usage, `3` budget, `4` internal).
#[derive(Clone, Debug)]
pub enum AirError {
    /// Bad input: arguments, program text, corpus headers, file I/O.
    Usage(String),
    /// A `--fuel` or `--timeout-ms` budget ran out mid-run.
    Budget {
        /// The engine phase whose loop-head check tripped.
        phase: String,
        /// Fuel ticks spent when the run stopped.
        spent: u64,
        /// `"fuel"`, `"deadline"` or `"cancelled"`.
        reason: String,
    },
    /// An engine invariant was violated (a bug, surfaced not panicked).
    Internal(String),
}

impl AirError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            AirError::Usage(_) => 2,
            AirError::Budget { .. } => 3,
            AirError::Internal(_) => 4,
        }
    }
}

impl fmt::Display for AirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AirError::Usage(msg) => write!(f, "{msg}"),
            AirError::Budget {
                phase,
                spent,
                reason,
            } => write!(
                f,
                "budget exhausted in {phase} ({spent} ticks spent): {reason}"
            ),
            AirError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for AirError {}

/// A question that does not read or build is bad input (exit 2).
impl From<QuestionError> for AirError {
    fn from(e: QuestionError) -> AirError {
        AirError::Usage(e.message)
    }
}

/// Maps input-level failures (parse errors, bad bounds, I/O) to exit 2.
pub(crate) fn usage(e: impl fmt::Display) -> AirError {
    AirError::Usage(e.to_string())
}

fn budget_error(e: &Exhaustion) -> AirError {
    AirError::Budget {
        phase: e.phase.clone(),
        spent: e.spent,
        reason: e.reason.name().to_string(),
    }
}

/// Maps an engine error to the CLI error, printing the sound partial
/// result an exhausted run carries (abstract interpretation is sound in
/// any pointed refinement, so a cut-off repair still yields a valid
/// over-approximation — only precision needs the completed repair).
fn engine_error(u: &Universe, e: RepairError) -> AirError {
    match e {
        RepairError::Exhausted(partial) => {
            let ex = &partial.exhaustion;
            println!(
                "BUDGET EXHAUSTED in {} after {} tick(s): {}",
                ex.phase,
                ex.spent,
                ex.reason.name()
            );
            println!(
                "partial repair: {} point(s) added so far",
                partial.points.len()
            );
            if let Some(inv) = &partial.invariant {
                println!(
                    "partial invariant (sound over-approximation): {}",
                    display_set(u, inv)
                );
            }
            budget_error(ex)
        }
        RepairError::Sem(sem) => AirError::Usage(sem.to_string()),
        RepairError::Internal(msg) => AirError::Internal(msg),
    }
}

fn build_budget(fuel: Option<u64>, timeout_ms: Option<u64>) -> Budget {
    Budget {
        fuel,
        timeout: timeout_ms.map(Duration::from_millis),
    }
}

/// Runs a command to completion, printing a human-readable report.
///
/// # Errors
///
/// [`AirError`] carrying the exit code: usage (2), budget (3) or
/// internal (4).
pub fn run(command: Command) -> Result<Outcome, AirError> {
    match command {
        Command::Verify(task) => verify(task),
        Command::Analyze(task) => analyze(task),
        Command::Prove(task) => prove(task),
        Command::Corpus(task) => corpus(task),
        Command::Repair(task) => repair(task),
        Command::TraceSummarize { file } => trace_summarize(&file),
        Command::Fuzz(cmd) => fuzz(cmd),
        Command::Chaos(task) => crate::chaos::chaos(task),
        Command::Serve(task) => serve(task),
        Command::Top(task) => crate::top::top(task),
    }
}

/// `air serve` — the repair-as-a-service daemon (see SERVING.md). Blocks
/// until a `shutdown` frame or stdio EOF drains the server.
fn serve(task: ServeTask) -> Result<Outcome, AirError> {
    let session = TraceSession::open(task.trace.as_deref(), false)?;
    let mut config = air_serve::ServeConfig {
        stdio: task.stdio,
        tcp: task.tcp.clone(),
        workers: task.workers,
        quota: task.quota,
        metrics_addr: task.metrics_addr.clone(),
        ..air_serve::ServeConfig::default()
    };
    if let Some(max_frame) = task.max_frame {
        config.max_frame = max_frame;
    }
    let server = air_serve::start(config, session.tracer()).map_err(AirError::Usage)?;
    // SIGINT/SIGTERM drain the daemon gracefully: intake stops, queued
    // jobs finish, then `join` returns the final counters.
    let stop_handle = server.stop_handle();
    let watch = CancelWatch::start(move || stop_handle.stop());
    let report = server.join();
    if watch.finish() {
        eprintln!("air-serve: interrupted; drained gracefully");
    }
    // Stdout belongs to the stdio transport; the drain summary goes to
    // stderr with the readiness banner.
    eprintln!(
        "air-serve drained: served={} warm_hits={} aborts={}",
        report.served, report.warm_hits, report.aborts
    );
    session.finish()?;
    Ok(if report.aborts == 0 {
        Outcome::Positive
    } else {
        Outcome::Negative
    })
}

/// Rejects an unknown `--oracle NAME` before any work happens.
fn check_oracle_name(oracle: Option<&str>) -> Result<(), AirError> {
    let Some(name) = oracle else { return Ok(()) };
    if air_fuzz::oracles::registry()
        .iter()
        .any(|(n, _)| *n == name)
    {
        return Ok(());
    }
    let known: Vec<&str> = air_fuzz::oracles::registry()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    Err(AirError::Usage(format!(
        "unknown oracle `{name}` (known: {})",
        known.join(", ")
    )))
}

fn read_seed_file(file: &str) -> Result<air_fuzz::FuzzCase, AirError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| usage(format!("cannot read `{file}`: {e}")))?;
    air_fuzz::seed::parse(&text).map_err(|e| usage(format!("{file}: {e}")))
}

/// Prints the campaign banner, per-oracle rows, failure seed files and
/// the optional `--stats-json` line. Shared verbatim by the
/// single-process and distributed (`--shards N`) paths — one printer is
/// what makes the byte-identical-report guarantee checkable with `diff`.
pub(crate) fn print_fuzz_report(
    report: &air_fuzz::CampaignReport,
    corpus_dir: &str,
    stats_json: bool,
) -> Result<Outcome, AirError> {
    println!(
        "fuzz campaign: seeds {}..{}, {} built, {} build skip(s), {} eval skip(s)",
        report.base_seed,
        report.base_seed.saturating_add(report.cases),
        report.built,
        report.build_skips,
        report.eval_skips
    );
    for (name, row) in &report.oracle_rows {
        let theorem = air_fuzz::oracles::theorem_of(name).unwrap_or("");
        println!(
            "  {name:<18} {theorem:<38} {:>6} run(s) {:>3} violation(s) {:>4} skip(s)",
            row.runs, row.violations, row.skips
        );
    }
    println!(
        "violations: {}, disagreements: {}",
        report.violations, report.disagreements
    );
    if !report.failures.is_empty() {
        std::fs::create_dir_all(corpus_dir)
            .map_err(|e| usage(format!("cannot create `{corpus_dir}`: {e}")))?;
        for f in &report.failures {
            let path = format!("{corpus_dir}/fuzz-{}-{}.imp", f.seed, f.oracle);
            std::fs::write(&path, f.to_seed_file())
                .map_err(|e| usage(format!("cannot write `{path}`: {e}")))?;
            println!(
                "failure: seed {} oracle {} — {} (shrunk to {} command(s), saved {path})",
                f.seed,
                f.oracle,
                f.message,
                f.shrunk.commands()
            );
        }
    }
    if stats_json {
        println!("{}", report.to_json());
    }
    Ok(if report.is_clean() {
        Outcome::Positive
    } else {
        Outcome::Negative
    })
}

/// `air fuzz ...` — theorem-oracle fuzzing (see FUZZING.md).
fn fuzz(cmd: FuzzCmd) -> Result<Outcome, AirError> {
    match cmd {
        FuzzCmd::Run {
            seed,
            cases,
            oracle,
            corpus_dir,
            shrink,
            stats_json,
            trace,
            checkpoint,
            resume,
            halt_after,
            dist,
        } => {
            check_oracle_name(oracle.as_deref())?;
            if let Some(shard) = dist.worker {
                return crate::dist::fuzz_worker(shard, oracle, checkpoint);
            }
            if dist.requested() {
                return crate::dist::fuzz_dist(crate::dist::FuzzDist {
                    seed,
                    cases,
                    oracle,
                    corpus_dir,
                    shrink,
                    stats_json,
                    trace,
                    checkpoint,
                    resume,
                    halt_after,
                    dist,
                });
            }
            // The fault-injection differential axis panics on purpose in
            // every case; keep those backtraces out of the report.
            air_resilience::install_quiet_fault_hook();
            crate::signal::install();
            let session = TraceSession::open(trace.as_deref(), false)?;
            // SIGINT/SIGTERM turn into a cooperative truncation at the
            // next case boundary; the campaign then writes its final
            // checkpoint through the normal cut-off path.
            let watch = air_fuzz::CampaignWatch::new();
            let observer = watch.clone();
            let watch = watch.with_progress(move |done| {
                if crate::signal::interrupted() {
                    observer.truncate(done);
                }
            });
            let opts = air_fuzz::FuzzOptions {
                base_seed: seed,
                cases,
                oracle,
                shrink,
                tracer: Some(session.tracer()),
                checkpoint: checkpoint.map(std::path::PathBuf::from),
                resume,
                halt_after,
                watch: Some(watch),
            };
            let report = air_fuzz::run_campaign(&opts);
            let done = report.built + report.build_skips;
            if crate::signal::interrupted() && done < report.cases {
                eprintln!(
                    "interrupted after {done} case(s); checkpoint saved, restart with --resume"
                );
                session.finish()?;
                return Err(AirError::Budget {
                    phase: "fuzz.campaign".to_string(),
                    spent: done,
                    reason: "cancelled".to_string(),
                });
            }
            let halted = halt_after.is_some_and(|_| done < report.cases);
            if halted {
                println!("halted after {done} case(s); checkpoint saved, restart with --resume");
                session.finish()?;
                return Ok(Outcome::Positive);
            }
            let outcome = print_fuzz_report(&report, &corpus_dir, stats_json)?;
            session.finish()?;
            Ok(outcome)
        }
        FuzzCmd::Replay { file, oracle } => {
            check_oracle_name(oracle.as_deref())?;
            // The fault-injection axis panics on purpose, as in `run`.
            air_resilience::install_quiet_fault_hook();
            let case = read_seed_file(&file)?;
            let outcome = air_fuzz::replay_case(&case, oracle.as_deref());
            if let Some(reason) = &outcome.case_skip {
                println!("seed {}: unevaluable ({reason})", case.seed);
                return Ok(Outcome::Positive);
            }
            for (name, msg) in &outcome.violations {
                println!("VIOLATION {name}: {msg}");
            }
            for msg in &outcome.disagreements {
                println!("DISAGREEMENT: {msg}");
            }
            for (name, reason) in &outcome.skips {
                println!("skip {name}: {reason}");
            }
            if outcome.is_clean() {
                println!("seed {}: clean", case.seed);
                Ok(Outcome::Positive)
            } else {
                Ok(Outcome::Negative)
            }
        }
        FuzzCmd::Minimize { file } => {
            air_resilience::install_quiet_fault_hook();
            let case = read_seed_file(&file)?;
            let outcome = air_fuzz::replay_case(&case, None);
            let target = outcome
                .violations
                .first()
                .map(|(n, _)| n.clone())
                .or_else(|| {
                    (!outcome.disagreements.is_empty()).then(|| "differential".to_string())
                });
            let Some(target) = target else {
                println!("seed {}: replays clean, nothing to minimize", case.seed);
                return Ok(Outcome::Positive);
            };
            let opts = air_fuzz::FuzzOptions::default();
            let shrunk = air_fuzz::minimize(&case, &target, &opts);
            print!("{}", air_fuzz::seed::render(&shrunk, Some(&target), None));
            Ok(Outcome::Negative)
        }
    }
}

/// The sinks behind a `--trace`/`--profile` run, plus the tracer handle
/// engines receive. Kept until [`TraceSession::finish`] so the JSONL file
/// is flushed and the profile table printed after the workload.
pub(crate) struct TraceSession {
    tracer: Tracer,
    jsonl: Option<Arc<JsonlSink>>,
    profiler: Option<Arc<Profiler>>,
}

impl TraceSession {
    /// Opens the sinks a task asked for; with neither `--trace` nor
    /// `--profile` the tracer is disabled and every emit site is free.
    /// Both flags together fan events out to both sinks.
    pub(crate) fn open(trace: Option<&str>, profile: bool) -> Result<TraceSession, AirError> {
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        let jsonl = match trace {
            Some(path) => {
                let sink = Arc::new(
                    JsonlSink::create(std::path::Path::new(path))
                        .map_err(|e| usage(format!("cannot create trace file `{path}`: {e}")))?,
                );
                sinks.push(sink.clone());
                Some(sink)
            }
            None => None,
        };
        let profiler = if profile {
            let p = Arc::new(Profiler::new());
            sinks.push(p.clone());
            Some(p)
        } else {
            None
        };
        let tracer = match sinks.pop() {
            None => Tracer::disabled(),
            Some(only) if sinks.is_empty() => Tracer::new(only),
            Some(last) => {
                sinks.push(last);
                Tracer::new(Arc::new(MultiSink::new(sinks)))
            }
        };
        Ok(TraceSession {
            tracer,
            jsonl,
            profiler,
        })
    }

    pub(crate) fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Finishes the session on an engine error and returns it as the
    /// CLI error (see [`engine_error`]).
    fn fail<T>(&self, u: &Universe, e: RepairError) -> Result<T, AirError> {
        let air = engine_error(u, e);
        self.finish()?;
        Err(air)
    }

    pub(crate) fn finish(&self) -> Result<(), AirError> {
        if let Some(jsonl) = &self.jsonl {
            jsonl
                .flush()
                .map_err(|e| AirError::Internal(format!("trace flush: {e}")))?;
        }
        if let Some(profiler) = &self.profiler {
            println!("\n--- profile ---");
            print!("{}", profiler.render());
        }
        Ok(())
    }
}

/// `air trace summarize FILE` — aggregate a JSONL trace into tables.
fn trace_summarize(file: &str) -> Result<Outcome, AirError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| usage(format!("cannot read `{file}`: {e}")))?;
    let summary = Summary::from_jsonl(&text).map_err(usage)?;
    print!("{}", summary.render());
    Ok(Outcome::Positive)
}

/// The algebra a task runs in: memoizing into a fresh cache, or the
/// reference path under `--uncached`.
fn build_algebra(u: &Universe, uncached: bool) -> EnumAlgebra<'_> {
    if uncached {
        EnumAlgebra::uncached(u)
    } else {
        EnumAlgebra::with_cache(u, SemCache::new())
    }
}

fn print_stats(label: &str, cache: Option<&SemCache>, dom: &EnumDomain, elapsed: f64) {
    println!("\n--- stats: {label} ---");
    println!("wall time:      {:.3} ms", elapsed * 1e3);
    match cache {
        Some(c) => {
            println!("exec cache:     {}", c.exec_stats());
            println!("wlp cache:      {}", c.wlp_stats());
            println!("sat cache:      {}", c.sat_stats());
            println!("bypassed runs:  {}", c.bypass_count());
        }
        None => println!("semantic cache: disabled (--uncached)"),
    }
    println!("closure cache:  {}", dom.cache_stats());
    println!("interner:       {}", dom.interner_stats());
}

fn cache_stats_json(stats: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"entries\":{}}}",
        stats.hits, stats.misses, stats.entries
    )
}

/// The `--stats-json` rendering: everything `print_stats` shows, as one
/// JSON object on one line (machine-consumable; the human table stays the
/// `--stats` default). `wall_ms` is the command's time-to-verdict: for
/// `verify` and `analyze`, from the first step (universe and domain
/// construction, parsing, `sat` of pre/spec) through the printed report.
fn stats_json(label: &str, cache: Option<&SemCache>, dom: &EnumDomain, elapsed: f64) -> String {
    let mut out = String::from("{\"label\":");
    json::escape_str(label, &mut out);
    out.push_str(&format!(",\"wall_ms\":{:.3}", elapsed * 1e3));
    match cache {
        Some(c) => out.push_str(&format!(
            ",\"semantic_cache\":{{\"exec\":{},\"wlp\":{},\"sat\":{},\"bypasses\":{}}}",
            cache_stats_json(&c.exec_stats()),
            cache_stats_json(&c.wlp_stats()),
            cache_stats_json(&c.sat_stats()),
            c.bypass_count(),
        )),
        None => out.push_str(",\"semantic_cache\":null"),
    }
    out.push_str(&format!(
        ",\"closure_cache\":{},\"interner\":{}}}",
        cache_stats_json(&dom.cache_stats()),
        cache_stats_json(&dom.interner_stats()),
    ));
    out
}

/// Prints the human table and/or JSON object a task asked for.
fn report_stats(
    task: &Task,
    label: &str,
    cache: Option<&SemCache>,
    dom: &EnumDomain,
    elapsed: f64,
) {
    if task.stats {
        print_stats(label, cache, dom, elapsed);
    }
    if task.stats_json {
        println!("{}", stats_json(label, cache, dom, elapsed));
    }
}

fn verify(task: Task) -> Result<Outcome, AirError> {
    // `wall_ms` is time-to-verdict (see `stats_json`).
    let started = Instant::now();
    let b = task.question.build()?;
    if task.question.spec.is_none() {
        return Err(AirError::Usage("`verify` requires --spec".into()));
    }
    let u = &b.universe;
    println!("program:   {}", b.program);
    println!("input:     {}", display_set(u, &b.pre));
    println!("universe:  {} stores", u.size());
    println!("domain:    {}\n", b.domain.base_name());
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let verifier = Verifier::from_algebra(u, build_algebra(u, task.uncached))
        .engine(task.engine)
        .tracer(session.tracer())
        .governor(governor);
    let verdict = verifier
        .verify(task.strategy, b.domain, &b.program, &b.pre, &b.spec)
        .or_else(|e| session.fail(u, e))?;
    print!("{}", verdict.report(u));
    if !verdict.is_proved() {
        println!(
            "valid inputs: {}",
            display_set(u, &verdict.valid_input().intersection(&b.pre))
        );
    }
    let elapsed = started.elapsed().as_secs_f64();
    report_stats(&task, "verify", verifier.cache(), verdict.domain(), elapsed);
    session.finish()?;
    Ok(match verdict {
        Verdict::Proved { .. } => Outcome::Positive,
        Verdict::Refuted { .. } => Outcome::Negative,
    })
}

fn analyze(task: Task) -> Result<Outcome, AirError> {
    let started = Instant::now();
    let b = task.question.build()?;
    if task.question.spec.is_none() {
        return Err(AirError::Usage("`analyze` requires --spec".into()));
    }
    let u = &b.universe;
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let verifier = Verifier::from_algebra(u, build_algebra(u, task.uncached))
        .tracer(session.tracer())
        .governor(governor);
    let counts = verifier
        .alarm_counts(&b.domain, &b.program, &b.pre, &b.spec)
        .or_else(|e| session.fail(u, e))?;
    println!("program:      {}", b.program);
    println!("domain:       {}", b.domain.base_name());
    println!("alarms:       {}", counts.total);
    println!("true alarms:  {}", counts.true_alarms);
    println!("false alarms: {}", counts.false_alarms);
    let elapsed = started.elapsed().as_secs_f64();
    report_stats(&task, "analyze", verifier.cache(), &b.domain, elapsed);
    session.finish()?;
    Ok(if counts.total == 0 {
        Outcome::Positive
    } else {
        Outcome::Negative
    })
}

fn prove(task: Task) -> Result<Outcome, AirError> {
    let b = task.question.build()?;
    let u = &b.universe;
    // With `--trace-format dot` the trace file receives the derivation
    // tree, not a JSONL event log, so the session opens without it.
    let dot_path = match (task.trace_format, &task.trace) {
        (TraceFormat::Dot, Some(path)) => Some(path.clone()),
        _ => None,
    };
    let jsonl_path = if dot_path.is_some() {
        None
    } else {
        task.trace.as_deref()
    };
    let session = TraceSession::open(jsonl_path, task.profile)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let lcl = Lcl::from_algebra(u, build_algebra(u, task.uncached))
        .tracer(session.tracer())
        .governor(governor);
    let write_dot = |derivation: &air_core::Derivation| -> Result<(), AirError> {
        if let Some(path) = &dot_path {
            std::fs::write(path, derivation.to_dot(u))
                .map_err(|e| usage(format!("cannot write `{path}`: {e}")))?;
            println!("wrote DOT derivation to {path}");
        }
        Ok(())
    };
    let started = Instant::now();
    // With a spec, decide it through the logic; otherwise just derive.
    if task.question.spec.is_some() {
        let verdict = lcl
            .prove_spec(b.domain, &b.pre, &b.program, &b.spec)
            .or_else(|e| session.fail(u, e))?;
        let (derivation, repaired, outcome) = match &verdict {
            air_core::SpecVerdict::Valid { derivation, domain } => {
                println!("SPEC VALID");
                (derivation, domain, Outcome::Positive)
            }
            air_core::SpecVerdict::TrueAlarm {
                derivation,
                domain,
                witness,
            } => {
                println!(
                    "TRUE ALARM: reachable store {} violates the spec",
                    u.display_store(&u.store_at(*witness))
                );
                (derivation, domain, Outcome::Negative)
            }
        };
        println!(
            "\nLCL_A derivation ({} rule applications):\n",
            derivation.size()
        );
        print!("{}", derivation.render(u));
        println!(
            "\nrepaired domain: {} (points added: {})",
            repaired.base_name(),
            repaired.num_points()
        );
        write_dot(derivation)?;
        report_stats(
            &task,
            "prove",
            lcl.cache(),
            repaired,
            started.elapsed().as_secs_f64(),
        );
        session.finish()?;
        return Ok(outcome);
    }
    let (derivation, repaired) = lcl
        .derive_with_repair(b.domain, &b.pre, &b.program)
        .or_else(|e| session.fail(u, e))?;
    println!(
        "LCL_A derivation ({} rule applications):\n",
        derivation.size()
    );
    print!("{}", derivation.render(u));
    println!(
        "\nrepaired domain: {} (points added: {})",
        repaired.base_name(),
        repaired.num_points()
    );
    println!("post: {}", display_set(u, &derivation.triple().post));
    write_dot(&derivation)?;
    report_stats(
        &task,
        "prove",
        lcl.cache(),
        &repaired,
        started.elapsed().as_secs_f64(),
    );
    session.finish()?;
    Ok(Outcome::Positive)
}

/// Runs one revision through the warm session, printing its verdict and
/// (for edits) the node-reuse line. Returns whether the spec was proved.
fn repair_revision(
    session: &air_core::RepairSession,
    u: &Universe,
    label: &str,
    (prog, pre, spec): &(air_lang::Reg, StateSet, StateSet),
    task: &RepairTask,
) -> Result<bool, AirError> {
    let started = Instant::now();
    let outcome = session
        .verify(prog, pre, spec)
        .map_err(|e| engine_error(u, e))?;
    let elapsed = started.elapsed().as_secs_f64();
    print!("{}", outcome.verdict.report(u));
    let reuse = outcome.reuse;
    if reuse.incremental {
        println!(
            "reuse: {}/{} node(s) warm ({:.0}%), {} fresh",
            reuse.reused_nodes(),
            reuse.program_nodes,
            reuse.reuse_ratio() * 100.0,
            reuse.fresh_nodes
        );
    }
    if task.stats {
        print_stats(label, Some(session.cache()), session.base(), elapsed);
    }
    if task.stats_json {
        println!(
            "{}",
            stats_json(label, Some(session.cache()), session.base(), elapsed)
        );
    }
    Ok(outcome.verdict.is_proved())
}

/// `air repair FILE --edit FILE...` — verify the base program, then
/// re-verify each edited revision incrementally in one warm
/// [`air_core::RepairSession`]. Verdicts are byte-identical to
/// from-scratch runs; only the cost shrinks.
fn repair(task: RepairTask) -> Result<Outcome, AirError> {
    let path = std::path::Path::new(&task.file);
    let (name, base) = Question::read_corpus_file(path, task.domain)?;
    let b = base.build()?;
    let u = &b.universe;
    let trace_session = TraceSession::open(task.trace.as_deref(), false)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let session = air_core::RepairSession::new(u.clone(), b.domain)
        .tracer(trace_session.tracer())
        .governor(governor);
    println!("base:      {name}");
    println!("universe:  {} stores", u.size());
    println!("domain:    {}\n", session.base().base_name());
    let revision = (b.program, b.pre, b.spec);
    let mut all_proved = repair_revision(&session, u, &name, &revision, &task)?;
    for (i, edit) in task.edits.iter().enumerate() {
        let text = std::fs::read_to_string(edit)
            .map_err(|e| usage(format!("cannot read `{edit}`: {e}")))?;
        // An edited revision reuses the base header unless it carries its
        // own (over the same variables — the session owns one universe).
        let question = if air_core::question::corpus_header(&text).is_some() {
            let q = Question::from_corpus(edit, text, task.domain)?;
            if q.vars != base.vars {
                return Err(AirError::Usage(format!(
                    "{edit}: --edit revisions must declare the base program's variables"
                )));
            }
            q
        } else {
            Question {
                code: text,
                ..base.clone()
            }
        };
        let parts = question.parts(u)?;
        println!("\n--- edit {}: {edit} ---", i + 1);
        let label = format!("edit-{}", i + 1);
        all_proved &= repair_revision(&session, u, &label, &parts, &task)?;
    }
    trace_session.finish()?;
    Ok(if all_proved {
        Outcome::Positive
    } else {
        Outcome::Negative
    })
}

/// How one corpus program ended. Every program gets a row — the sweep is
/// fail-soft, so panics, budget cutoffs and engine errors are recorded
/// and the remaining programs still run (or are marked skipped once a
/// shared budget cancels the sweep).
#[derive(Clone, Debug)]
enum ProgramStatus {
    /// Spec proved.
    Proved,
    /// Spec refuted.
    Refuted,
    /// The shared sweep budget ran out inside this program.
    Budget(Exhaustion),
    /// An engine or input error (recorded, not fatal to the sweep).
    Error(String),
    /// The program's worker panicked (caught; the sweep continues).
    Panicked(String),
    /// Not run: the shared budget was already exhausted or cancelled.
    Skipped,
}

impl ProgramStatus {
    /// Appends what a row's status carries as JSON fields: phase, spent
    /// and reason of a budget cut, the detail of an error or panic.
    fn push_detail(&self, out: &mut String) {
        match self {
            ProgramStatus::Budget(ex) => {
                out.push_str(",\"phase\":");
                json::escape_str(&ex.phase, out);
                let (spent, reason) = (ex.spent, ex.reason.name());
                out.push_str(&format!(",\"spent\":{spent},\"reason\":\"{reason}\""));
            }
            ProgramStatus::Error(msg) | ProgramStatus::Panicked(msg) => {
                out.push_str(",\"detail\":");
                json::escape_str(msg, out);
            }
            _ => {}
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ProgramStatus::Proved => "proved",
            ProgramStatus::Refuted => "refuted",
            ProgramStatus::Budget(_) => "budget",
            ProgramStatus::Error(_) => "error",
            ProgramStatus::Panicked(_) => "panic",
            ProgramStatus::Skipped => "skipped",
        }
    }
}

/// One corpus program's result row.
pub(crate) struct ProgramReport {
    name: String,
    status: ProgramStatus,
    points: usize,
    millis: f64,
    exec_cache: String,
    closure_cache: String,
}

impl ProgramReport {
    fn bare(name: &str, status: ProgramStatus, millis: f64) -> ProgramReport {
        ProgramReport {
            name: name.to_string(),
            status,
            points: 0,
            millis,
            exec_cache: String::new(),
            closure_cache: String::new(),
        }
    }
}

/// Verifies one corpus program, returning a report row — never an error:
/// engine failures, budget cutoffs and panics are folded into the status
/// so the sweep stays fail-soft. Each program gets its own universe and
/// therefore its own caches — semantic caches must never be shared across
/// universes (equal-looking state sets would alias different store
/// enumerations).
pub(crate) fn run_corpus_program(
    name: &str,
    question: &Question,
    sweep: &CorpusTask,
    tracer: Tracer,
    governor: Governor,
) -> ProgramReport {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        verify_corpus_program(name, question, sweep, tracer, governor)
    }))
    .unwrap_or_else(|payload| {
        let message = air_resilience::panic_message(payload.as_ref());
        ProgramReport::bare(name, ProgramStatus::Panicked(message), 0.0)
    })
}

fn verify_corpus_program(
    name: &str,
    question: &Question,
    sweep: &CorpusTask,
    tracer: Tracer,
    governor: Governor,
) -> ProgramReport {
    let started = Instant::now();
    let _span = tracer.span(|| format!("corpus.{name}"));
    let b = match question.build() {
        Ok(b) => b,
        Err(e) => {
            let millis = started.elapsed().as_secs_f64() * 1e3;
            return ProgramReport::bare(name, ProgramStatus::Error(e.message), millis);
        }
    };
    let u = &b.universe;
    let verifier = Verifier::from_algebra(u, build_algebra(u, sweep.uncached))
        .engine(sweep.engine)
        .tracer(tracer)
        .governor(governor);
    let verdict = verifier.verify(sweep.strategy, b.domain, &b.program, &b.pre, &b.spec);
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let verdict = match verdict {
        Ok(v) => v,
        Err(RepairError::Exhausted(partial)) => {
            return ProgramReport::bare(name, ProgramStatus::Budget(partial.exhaustion), millis)
        }
        Err(e) => return ProgramReport::bare(name, ProgramStatus::Error(e.to_string()), millis),
    };
    let exec_cache = match verifier.cache() {
        Some(c) => c.exec_stats().to_string(),
        None => "disabled".into(),
    };
    ProgramReport {
        name: name.to_string(),
        status: if verdict.is_proved() {
            ProgramStatus::Proved
        } else {
            ProgramStatus::Refuted
        },
        points: verdict.added_points().len(),
        millis,
        exec_cache,
        closure_cache: verdict.domain().cache_stats().to_string(),
    }
}

/// Renders completed sweep rows as one crash-safe checkpoint line
/// (`air-corpus-checkpoint/1`). The same format doubles as the worker
/// lease payload of `corpus --shards N` (see crates/dist), which is why
/// every status — including budget and panic rows — round-trips through
/// [`parse_corpus_rows`].
pub(crate) fn render_corpus_checkpoint(dir: &str, rows: &[ProgramReport]) -> String {
    let mut out = String::from("{\"schema\":\"air-corpus-checkpoint/1\",\"dir\":");
    json::escape_str(dir, &mut out);
    out.push_str(",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::escape_str(&r.name, &mut out);
        out.push_str(&format!(
            ",\"status\":\"{}\",\"points\":{},\"millis\":{:.3}",
            r.status.label(),
            r.points,
            r.millis
        ));
        r.status.push_detail(&mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Restores the completed rows of a previous sweep's checkpoint. Budget
/// and skipped rows are NOT restored — a resumed sweep has a fresh
/// budget, so previously cut-off programs get another chance. Malformed
/// files or a different corpus directory restore nothing (fresh start);
/// a malformed row is re-run.
fn parse_corpus_checkpoint(
    text: &str,
    dir: &str,
) -> std::collections::BTreeMap<String, ProgramReport> {
    let rows = checkpoint_rows(text, dir).unwrap_or_default();
    let restorable =
        |s: &ProgramStatus| !matches!(s, ProgramStatus::Budget(_) | ProgramStatus::Skipped);
    rows.iter()
        .filter_map(|row| {
            let name = row.get("name")?.as_str()?;
            let status = parse_status(row).filter(restorable)?;
            let points = row
                .get("points")
                .and_then(json::Value::as_num)
                .unwrap_or(0.0);
            let report = ProgramReport::bare(name, status, 0.0);
            Some((
                name.to_string(),
                ProgramReport {
                    points: points as usize,
                    ..report
                },
            ))
        })
        .collect()
}

/// Parses a worker lease payload (`air-corpus-checkpoint/1`) back into
/// ordered report rows. Unlike [`parse_corpus_checkpoint`] — which
/// deliberately drops budget/skipped rows so a resumed sweep retries
/// them — the distributed merge needs every status to round-trip, and
/// `None` on any malformed row (a worker bug must surface, not shrink
/// the corpus).
pub(crate) fn parse_corpus_rows(text: &str, dir: &str) -> Option<Vec<ProgramReport>> {
    let rows = checkpoint_rows(text, dir)?;
    rows.iter()
        .map(|row| {
            let name = row.get("name")?.as_str()?;
            let report =
                ProgramReport::bare(name, parse_status(row)?, row.get("millis")?.as_num()?);
            let points = row.get("points")?.as_num()? as usize;
            Some(ProgramReport { points, ..report })
        })
        .collect()
}

/// The rows of an `air-corpus-checkpoint/1` document written for `dir`.
fn checkpoint_rows(text: &str, dir: &str) -> Option<Vec<json::Value>> {
    let doc = json::parse(text.trim()).ok()?;
    if doc.get("schema")?.as_str()? != "air-corpus-checkpoint/1" || doc.get("dir")?.as_str()? != dir
    {
        return None;
    }
    Some(doc.get("rows")?.as_arr()?.to_vec())
}

/// A checkpoint row's status, with what [`ProgramStatus::push_detail`]
/// wrote for it.
fn parse_status(row: &json::Value) -> Option<ProgramStatus> {
    let detail = || {
        row.get("detail")
            .and_then(json::Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    Some(match row.get("status")?.as_str()? {
        "proved" => ProgramStatus::Proved,
        "refuted" => ProgramStatus::Refuted,
        "budget" => ProgramStatus::Budget(Exhaustion {
            phase: row.get("phase")?.as_str()?.to_string(),
            spent: row.get("spent")?.as_num()? as u64,
            reason: match row.get("reason")?.as_str()? {
                "fuel" => air_lattice::ExhaustReason::Fuel,
                "deadline" => air_lattice::ExhaustReason::Deadline,
                "cancelled" => air_lattice::ExhaustReason::Cancelled,
                _ => return None,
            },
        }),
        "error" => ProgramStatus::Error(detail()),
        "panic" => ProgramStatus::Panicked(detail()),
        "skipped" => ProgramStatus::Skipped,
        _ => return None,
    })
}

/// The crash-safe sequential sweep behind `corpus --checkpoint`: after
/// every program the completed rows are atomically checkpointed, and
/// `--resume` restores them instead of re-verifying. Checkpoint I/O
/// failures degrade to "no checkpoint" — the sweep itself never stops
/// for them.
fn corpus_checkpointed(
    task: &CorpusTask,
    programs: &[(String, Question)],
    session: &TraceSession,
    governor: &Governor,
    path: &str,
) -> Vec<ProgramReport> {
    let path = std::path::PathBuf::from(path);
    let mut restored = if task.resume {
        match air_resilience::checkpoint::load(&path) {
            Ok(Some(text)) => parse_corpus_checkpoint(&text, &task.dir),
            _ => std::collections::BTreeMap::new(),
        }
    } else {
        std::collections::BTreeMap::new()
    };
    let mut cp = Checkpointer::new(path, 1, session.tracer());
    let mut rows: Vec<ProgramReport> = Vec::with_capacity(programs.len());
    for (name, q) in programs {
        if let Some(row) = restored.remove(name) {
            rows.push(row);
        } else {
            rows.push(run_corpus_program(
                name,
                q,
                task,
                session.tracer(),
                governor.clone(),
            ));
        }
        let _ = cp.write_now(rows.len() as u64, || {
            render_corpus_checkpoint(&task.dir, &rows)
        });
    }
    // Sweep complete: the checkpoint is stale state, drop it.
    cp.remove();
    rows
}

/// Sweeps every `*.imp` program under `task.dir`, fanning the programs out
/// over worker threads (`--jobs`). Results are printed in file order
/// regardless of scheduling, so the output is deterministic. The sweep is
/// fail-soft: one shared governor budgets the whole run, and a program
/// that panics, errors or exhausts the budget is recorded in its result
/// row (and `--stats-json`) while the others continue — pending programs
/// after a budget cancellation are marked skipped.
fn corpus(task: CorpusTask) -> Result<Outcome, AirError> {
    if let Some(shard) = task.dist.worker {
        return crate::dist::corpus_worker(shard, &task);
    }
    if task.dist.requested() {
        return crate::dist::corpus_dist(&task);
    }
    let programs = load_corpus(&task.dir, task.domain)?;
    let jobs = if task.jobs == 0 {
        programs.len()
    } else {
        task.jobs
    };
    print_corpus_banner(&task, programs.len(), format!("{jobs} job(s)"));
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    // An ungoverned sweep still gets a cancellable governor so SIGINT
    // stops it at the next engine loop head instead of mid-program.
    let budget = build_budget(task.fuel, task.timeout_ms);
    let governor = if budget.is_unlimited() {
        Governor::cancellable()
    } else {
        Governor::new(budget)
    };
    let watch = CancelWatch::start({
        let governor = governor.clone();
        move || governor.cancel()
    });
    let started = Instant::now();
    let reports: Vec<ProgramReport> = if let Some(path) = &task.checkpoint {
        // Crash-safe mode runs sequentially: a checkpoint after every
        // program needs a defined "done so far" prefix, which the
        // parallel fan-out does not have.
        corpus_checkpointed(&task, &programs, &session, &governor, path)
    } else {
        let results = par_map_governed(jobs, &programs, &governor, |_, (name, q)| {
            run_corpus_program(name, q, &task, session.tracer(), governor.clone())
        });
        let tracer = session.tracer();
        results
            .into_iter()
            .zip(&programs)
            .map(|(slot, (name, _))| match slot {
                Some(report) => report,
                None => {
                    tracer.emit_with(|| EventKind::Cancelled {
                        phase: format!("corpus.{name}"),
                    });
                    ProgramReport::bare(name, ProgramStatus::Skipped, 0.0)
                }
            })
            .collect()
    };
    watch.finish();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    print_corpus_rows(&task, &reports, total_ms);
    session.finish()?;
    corpus_outcome(&reports, governor.spent())
}

/// The sweep banner; `fanout` is `N job(s)` or, sharded, `N shard(s)`.
pub(crate) fn print_corpus_banner(task: &CorpusTask, programs: usize, fanout: String) {
    let engine = match task.engine {
        Engine::Symbolic => ", symbolic engine",
        Engine::Enumerative => "",
    };
    let uncached = if task.uncached { ", uncached" } else { "" };
    let strategy = task.strategy;
    println!(
        "corpus sweep: {programs} programs, {fanout}, strategy {strategy:?}{engine}{uncached}"
    );
}

/// Prints the per-program rows, the wall total and the optional
/// `--stats-json` object. Shared by the in-process sweep and the
/// distributed merge.
pub(crate) fn print_corpus_rows(task: &CorpusTask, reports: &[ProgramReport], total_ms: f64) {
    for report in reports {
        print!(
            "  {:<14} {:<7} {:>2} point(s) {:>9.3} ms",
            report.name,
            report.status.label().to_uppercase(),
            report.points,
            report.millis
        );
        if task.stats && !report.exec_cache.is_empty() {
            print!(
                "  exec cache: {}; closure cache: {}",
                report.exec_cache, report.closure_cache
            );
        }
        match &report.status {
            ProgramStatus::Budget(ex) => print!("  ({ex})"),
            ProgramStatus::Error(msg) | ProgramStatus::Panicked(msg) => print!("  ({msg})"),
            _ => {}
        }
        println!();
    }
    println!("total: {total_ms:.3} ms");
    if task.stats_json {
        let mut out = format!("{{\"label\":\"corpus\",\"wall_ms\":{total_ms:.3},\"programs\":[");
        let mut first = true;
        for report in reports {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::escape_str(&report.name, &mut out);
            out.push_str(&format!(
                ",\"status\":\"{}\",\"proved\":{},\"points\":{},\"wall_ms\":{:.3}",
                report.status.label(),
                matches!(report.status, ProgramStatus::Proved),
                report.points,
                report.millis
            ));
            report.status.push_detail(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        println!("{out}");
    }
}

/// Folds the sweep rows into the process outcome. Exit precedence:
/// internal (4) > budget (3) > refuted (1) > proved (0). `spent` labels
/// a budget-less cancellation (SIGINT, a dead fleet) with how much work
/// was done before the stop.
pub(crate) fn corpus_outcome(reports: &[ProgramReport], spent: u64) -> Result<Outcome, AirError> {
    let mut internal = Vec::new();
    let mut first_budget: Option<Exhaustion> = None;
    let mut any_skipped = false;
    let mut any_refuted = false;
    for report in reports {
        match &report.status {
            ProgramStatus::Proved => {}
            ProgramStatus::Refuted => any_refuted = true,
            ProgramStatus::Budget(ex) => {
                if first_budget.is_none() {
                    first_budget = Some(ex.clone());
                }
            }
            ProgramStatus::Error(msg) | ProgramStatus::Panicked(msg) => {
                internal.push(format!("{}: {msg}", report.name));
            }
            ProgramStatus::Skipped => any_skipped = true,
        }
    }
    if !internal.is_empty() {
        return Err(AirError::Internal(internal.join("; ")));
    }
    if let Some(ex) = first_budget {
        return Err(budget_error(&ex));
    }
    if any_skipped {
        // Cancellation without a recorded exhaustion row (e.g. an external
        // cancel): still a budget-class stop.
        return Err(AirError::Budget {
            phase: "corpus.sweep".to_string(),
            spent,
            reason: "cancelled".to_string(),
        });
    }
    Ok(if any_refuted {
        Outcome::Negative
    } else {
        Outcome::Positive
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{DomainKind, Strategy};

    fn task(code: &str, pre: &str, spec: Option<&str>) -> Task {
        Task {
            question: Question {
                vars: vec![("x".into(), -8, 8)],
                code: code.into(),
                pre: pre.into(),
                spec: spec.map(str::to_owned),
                domain: DomainKind::Int,
            },
            strategy: Strategy::Backward,
            engine: Engine::Enumerative,
            stats: false,
            stats_json: false,
            uncached: false,
            trace: None,
            trace_format: TraceFormat::default(),
            profile: false,
            fuel: None,
            timeout_ms: None,
        }
    }

    /// `air corpus --dir DIR`, as the argument parser builds it.
    fn corpus_task(dir: String) -> CorpusTask {
        match crate::args::parse(&["corpus".into(), "--dir".into(), dir]) {
            Ok(Command::Corpus(task)) => task,
            other => panic!("expected corpus, got {other:?}"),
        }
    }

    fn corpus_dir() -> String {
        format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn corpus_sweep_proves_all_programs() {
        let mut t = corpus_task(corpus_dir());
        t.stats = true;
        let out = corpus(t).unwrap();
        assert_eq!(out, Outcome::Positive);
    }

    #[test]
    fn corpus_sequential_uncached_matches() {
        let mut t = corpus_task(corpus_dir());
        t.jobs = 1;
        t.uncached = true;
        let out = corpus(t).unwrap();
        assert_eq!(out, Outcome::Positive);
    }

    #[test]
    fn corpus_missing_dir_errors() {
        let err = corpus(corpus_task("/nonexistent-air-corpus".into())).unwrap_err();
        assert!(matches!(err, AirError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn corpus_with_tiny_fuel_fails_soft() {
        let mut t = corpus_task(corpus_dir());
        t.jobs = 1;
        t.fuel = Some(1);
        let err = corpus(t).unwrap_err();
        let AirError::Budget { spent, .. } = &err else {
            panic!("expected budget exhaustion, got {err:?}");
        };
        assert!(*spent >= 1);
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn verify_proved_and_refuted() {
        let proved = verify(task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            Some("x >= 1"),
        ))
        .unwrap();
        assert_eq!(proved, Outcome::Positive);
        let refuted = verify(task("x := x + 1", "x >= 0 && x <= 5", Some("x <= 3"))).unwrap();
        assert_eq!(refuted, Outcome::Negative);
    }

    #[test]
    fn verify_without_spec_is_a_usage_error_not_a_panic() {
        let err = verify(task("skip", "true", None)).unwrap_err();
        assert!(matches!(err, AirError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        let err = analyze(task("skip", "true", None)).unwrap_err();
        assert!(matches!(err, AirError::Usage(_)), "{err:?}");
    }

    #[test]
    fn verify_with_tiny_fuel_exhausts() {
        let mut t = task("while (x < 7) do { x := x + 1 }", "x = 0", Some("x = 7"));
        t.fuel = Some(1);
        let err = verify(t).unwrap_err();
        let AirError::Budget { reason, .. } = &err else {
            panic!("expected budget exhaustion, got {err:?}");
        };
        assert_eq!(reason, "fuel");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn symbolic_engine_matches_enumerative_verdicts() {
        let mut proved = task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            Some("x >= 1"),
        );
        proved.engine = Engine::Symbolic;
        assert_eq!(verify(proved).unwrap(), Outcome::Positive);
        let mut refuted = task("x := x + 1", "x >= 0 && x <= 5", Some("x <= 3"));
        refuted.engine = Engine::Symbolic;
        assert_eq!(verify(refuted).unwrap(), Outcome::Negative);
        let mut alarms = task(
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "x != 0",
            Some("x != 0"),
        );
        alarms.engine = Engine::Symbolic;
        assert_eq!(analyze(alarms).unwrap(), Outcome::Negative);
    }

    #[test]
    fn corpus_sweep_with_symbolic_engine_proves_all_programs() {
        let mut t = corpus_task(corpus_dir());
        t.engine = Engine::Symbolic;
        let out = corpus(t).unwrap();
        assert_eq!(out, Outcome::Positive);
    }

    #[test]
    fn forward_strategy_runs() {
        let mut t = task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            Some("x >= 1"),
        );
        t.strategy = Strategy::Forward;
        assert_eq!(verify(t).unwrap(), Outcome::Positive);
    }

    #[test]
    fn analyze_counts_alarms() {
        // Classic AbsVal: A(x ≠ 0) = [-8,8], so the then-branch spuriously
        // lets 0 through — a false alarm against spec x ≠ 0.
        let out = analyze(task(
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "x != 0",
            Some("x != 0"),
        ))
        .unwrap();
        assert_eq!(out, Outcome::Negative);
        let clean = analyze(task("skip", "x > 0", Some("x > 0"))).unwrap();
        assert_eq!(clean, Outcome::Positive);
    }

    #[test]
    fn prove_renders_derivation() {
        let out = prove(task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            None,
        ))
        .unwrap();
        assert_eq!(out, Outcome::Positive);
    }

    #[test]
    fn prove_with_spec_decides() {
        let valid = prove(task(
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "x != 0",
            Some("x != 0"),
        ))
        .unwrap();
        assert_eq!(valid, Outcome::Positive);
        let alarm = prove(task(
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "x != 0",
            Some("x >= 2"),
        ))
        .unwrap();
        assert_eq!(alarm, Outcome::Negative);
    }

    #[test]
    fn every_domain_kind_builds() {
        for d in DomainKind::ALL {
            let mut t = task("x := x + 1", "x = 0", Some("x = 1"));
            t.question.domain = d;
            assert_eq!(verify(t).unwrap(), Outcome::Positive, "{d:?}");
        }
    }

    #[test]
    fn stats_json_renders_valid_json() {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = DomainKind::Int.build(&u);
        let cache = SemCache::new();
        let line = stats_json("verify", Some(&cache), &dom, 0.001);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("label").and_then(json::Value::as_str),
            Some("verify")
        );
        assert!(doc.get("semantic_cache").is_some());
        // Uncached runs report null for the semantic cache.
        let line = stats_json("verify", None, &dom, 0.001);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("semantic_cache"), Some(&json::Value::Null));
    }

    #[test]
    fn verify_trace_file_summarizes() {
        let path = std::env::temp_dir().join("air_cli_test_verify.jsonl");
        let mut t = task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            Some("x >= 1"),
        );
        t.trace = Some(path.display().to_string());
        assert_eq!(verify(t).unwrap(), Outcome::Positive);
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = Summary::from_jsonl(&text).unwrap();
        assert!(summary.events > 0);
        assert!(
            summary.phases.contains_key("verify.backward"),
            "{summary:?}"
        );
        assert_eq!(
            trace_summarize(&path.display().to_string()).unwrap(),
            Outcome::Positive
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_and_profile_fan_out_to_both_sinks() {
        // Satellite regression: `--trace` + `--profile` used to funnel
        // through a single-sink `expect`; both sinks must now see events.
        let path = std::env::temp_dir().join("air_cli_test_fanout.jsonl");
        let mut t = task(
            "if (x >= 1) then { skip } else { x := 1 - x }",
            "x != 0",
            Some("x >= 1"),
        );
        t.trace = Some(path.display().to_string());
        t.profile = true;
        assert_eq!(verify(t).unwrap(), Outcome::Positive);
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = Summary::from_jsonl(&text).unwrap();
        assert!(summary.events > 0, "JSONL sink must receive events");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_trace_records_budget_event() {
        let path = std::env::temp_dir().join("air_cli_test_budget.jsonl");
        let mut t = task("while (x < 7) do { x := x + 1 }", "x = 0", Some("x = 7"));
        t.trace = Some(path.display().to_string());
        t.fuel = Some(1);
        assert!(matches!(verify(t).unwrap_err(), AirError::Budget { .. }));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"kind\":\"budget_exhausted\""),
            "trace must record the cutoff: {text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prove_writes_dot_derivation() {
        let path = std::env::temp_dir().join("air_cli_test_derivation.dot");
        let mut t = task("x := x + 1", "x = 0", None);
        t.trace = Some(path.display().to_string());
        t.trace_format = TraceFormat::Dot;
        assert_eq!(prove(t).unwrap(), Outcome::Positive);
        let dot = std::fs::read_to_string(&path).unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");
        assert!(dot.contains("transfer"), "{dot}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fuzz_run_small_campaign_is_clean() {
        let out = fuzz(FuzzCmd::Run {
            seed: 0,
            cases: 5,
            oracle: None,
            corpus_dir: std::env::temp_dir()
                .join("air_cli_test_fuzz_corpus")
                .display()
                .to_string(),
            shrink: true,
            stats_json: true,
            trace: None,
            checkpoint: None,
            resume: false,
            halt_after: None,
            dist: crate::args::DistOpts::default(),
        })
        .unwrap();
        assert_eq!(out, Outcome::Positive);
    }

    #[test]
    fn fuzz_rejects_unknown_oracle() {
        let err = fuzz(FuzzCmd::Run {
            seed: 0,
            cases: 1,
            oracle: Some("telepathy".into()),
            corpus_dir: "corpus/fuzz".into(),
            shrink: true,
            stats_json: false,
            trace: None,
            checkpoint: None,
            resume: false,
            halt_after: None,
            dist: crate::args::DistOpts::default(),
        })
        .unwrap_err();
        assert!(matches!(err, AirError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn fuzz_replay_of_a_rendered_seed_file_is_clean() {
        let case = air_fuzz::FuzzCase::generate(3);
        let path = std::env::temp_dir().join("air_cli_test_fuzz_seed.imp");
        std::fs::write(&path, air_fuzz::seed::render(&case, None, None)).unwrap();
        let out = fuzz(FuzzCmd::Replay {
            file: path.display().to_string(),
            oracle: None,
        })
        .unwrap();
        assert_eq!(out, Outcome::Positive);
        // A clean seed has nothing to minimize.
        let out = fuzz(FuzzCmd::Minimize {
            file: path.display().to_string(),
        })
        .unwrap();
        assert_eq!(out, Outcome::Positive);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fuzz_replay_of_a_missing_file_is_a_usage_error() {
        let err = fuzz(FuzzCmd::Replay {
            file: "/nonexistent-air-fuzz-seed.imp".into(),
            oracle: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(verify(task("x := (", "true", Some("true"))).is_err());
        assert!(verify(task("skip", "x <", Some("true"))).is_err());
        let mut t = task("skip", "true", Some("true"));
        t.question.vars = vec![("x".into(), 5, 0)];
        let err = verify(t).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
    }
}
