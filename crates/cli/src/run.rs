//! Executing parsed CLI commands against the AIR engine.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use air_core::summarize::display_set;
use air_core::{EnumDomain, Lcl, RepairError, Verdict, Verifier};
use air_domains::{
    AffineDomain, CongruenceEnv, ConstantEnv, IntervalEnv, OctagonDomain, ParityEnv, SignEnv,
};
use air_lang::{parse_bexp, parse_program, Concrete, SemCache, SemError, StateSet, Universe};
use air_lattice::{par_map_governed, Budget, CacheStats, Exhaustion, Governor};
use air_resilience::Checkpointer;
use air_trace::{json, EventKind, JsonlSink, MultiSink, Profiler, Sink, Summary, Tracer};

use crate::args::{
    Command, CorpusTask, DomainKind, EngineKind, FuzzCmd, RepairTask, ServeTask, StrategyKind,
    Task, TraceFormat,
};

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
        RepairError::Sem(SemError::Exhausted(ex)) => budget_error(&ex),
        RepairError::Sem(other) => AirError::Usage(other.to_string()),
        RepairError::Internal(msg) => AirError::Internal(msg),
    }
}

fn build_budget(fuel: Option<u64>, timeout_ms: Option<u64>) -> Budget {
    Budget {
        fuel,
        timeout: timeout_ms.map(Duration::from_millis),
    }
}

pub(crate) fn build_universe(task: &Task) -> Result<Universe, AirError> {
    let decls: Vec<(&str, i64, i64)> = task
        .vars
        .iter()
        .map(|v| (v.name.as_str(), v.lo, v.hi))
        .collect();
    Universe::new(&decls).map_err(usage)
}

pub(crate) fn build_domain(task: &Task, u: &Universe) -> EnumDomain {
    match task.domain {
        DomainKind::Int => EnumDomain::from_abstraction(u, IntervalEnv::new(u)),
        DomainKind::Oct => EnumDomain::from_abstraction(u, OctagonDomain::new(u)),
        DomainKind::Sign => EnumDomain::from_abstraction(u, SignEnv::new(u)),
        DomainKind::Parity => EnumDomain::from_abstraction(u, ParityEnv::new(u)),
        DomainKind::Const => EnumDomain::from_abstraction(u, ConstantEnv::new(u)),
        DomainKind::Cong => EnumDomain::from_abstraction(u, CongruenceEnv::new(u)),
        DomainKind::Karr => EnumDomain::from_abstraction(u, AffineDomain::new(u)),
    }
}

pub(crate) fn build_sets(
    task: &Task,
    u: &Universe,
) -> Result<(air_lang::Reg, StateSet, Option<StateSet>), AirError> {
    let prog = parse_program(&task.code).map_err(usage)?;
    let sem = Concrete::new(u);
    let pre = sem
        .sat(&parse_bexp(&task.pre).map_err(usage)?)
        .map_err(usage)?;
    let spec = match &task.spec {
        Some(s) => Some(sem.sat(&parse_bexp(s).map_err(usage)?).map_err(usage)?),
        None => None,
    };
    Ok((prog, pre, spec))
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
        metrics: task.metrics,
        metrics_addr: task.metrics_addr.clone(),
        ..air_serve::ServeConfig::default()
    };
    if let Some(max_frame) = task.max_frame {
        config.max_frame = max_frame;
    }
    let server = air_serve::start(config, session.tracer()).map_err(AirError::Usage)?;
    // SIGINT/SIGTERM drain the daemon gracefully: intake stops, queued
    // jobs finish, then `join` returns the final counters.
    crate::signal::install();
    let stop_handle = server.stop_handle();
    let drained = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = std::thread::spawn({
        let drained = Arc::clone(&drained);
        move || {
            while !drained.load(std::sync::atomic::Ordering::Relaxed) {
                if crate::signal::interrupted() {
                    stop_handle.stop();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });
    let report = server.join();
    drained.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = watcher.join();
    if crate::signal::interrupted() {
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
                ..air_fuzz::FuzzOptions::default()
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

/// The semantic cache a task's `--engine` flag asks for. `--uncached`
/// returns `None` (the reference path); args parsing already rejects
/// `--uncached --engine symbolic`.
fn build_cache(engine: EngineKind, uncached: bool) -> Option<SemCache> {
    match (engine, uncached) {
        (_, true) => None,
        (EngineKind::Enumerative, false) => Some(SemCache::new()),
        (EngineKind::Symbolic, false) => Some(SemCache::symbolic()),
    }
}

fn build_verifier<'u>(u: &'u Universe, engine: EngineKind, uncached: bool) -> Verifier<'u> {
    match build_cache(engine, uncached) {
        Some(cache) => Verifier::with_cache(u, cache),
        None => Verifier::uncached(u),
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
        }
        None => println!("semantic cache: disabled (--uncached)"),
    }
    println!("closure cache:  {}", dom.cache_stats());
    println!("interner:       {}", dom.interner_stats());
}

fn cache_stats_json(stats: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"bypasses\":{},\"entries\":{}}}",
        stats.hits, stats.misses, stats.bypasses, stats.entries
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
            ",\"semantic_cache\":{{\"exec\":{},\"wlp\":{},\"sat\":{}}}",
            cache_stats_json(&c.exec_stats()),
            cache_stats_json(&c.wlp_stats()),
            cache_stats_json(&c.sat_stats()),
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
    let u = build_universe(&task)?;
    let dom = build_domain(&task, &u);
    let (prog, pre, spec) = build_sets(&task, &u)?;
    let Some(spec) = spec else {
        return Err(AirError::Usage("`verify` requires --spec".into()));
    };
    println!("program:   {prog}");
    println!("input:     {}", display_set(&u, &pre));
    println!("universe:  {} stores", u.size());
    println!("domain:    {}\n", dom.base_name());
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let verifier = build_verifier(&u, task.engine, task.uncached)
        .tracer(session.tracer())
        .governor(governor);
    let result = match task.strategy {
        StrategyKind::Backward => verifier.backward(dom, &prog, &pre, &spec),
        StrategyKind::Forward => verifier.forward(dom, &prog, &pre, &spec),
    };
    let verdict = match result {
        Ok(v) => v,
        Err(e) => {
            let air = engine_error(&u, e);
            session.finish()?;
            return Err(air);
        }
    };
    print!("{}", verdict.report(&u));
    if !verdict.is_proved() {
        println!(
            "valid inputs: {}",
            display_set(&u, &verdict.valid_input().intersection(&pre))
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
    let u = build_universe(&task)?;
    let dom = build_domain(&task, &u);
    let (prog, pre, spec) = build_sets(&task, &u)?;
    let Some(spec) = spec else {
        return Err(AirError::Usage("`analyze` requires --spec".into()));
    };
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let verifier = build_verifier(&u, task.engine, task.uncached)
        .tracer(session.tracer())
        .governor(governor);
    let counts = match verifier.alarm_counts(&dom, &prog, &pre, &spec) {
        Ok(c) => c,
        Err(e) => {
            let air = engine_error(&u, e);
            session.finish()?;
            return Err(air);
        }
    };
    println!("program:      {prog}");
    println!("domain:       {}", dom.base_name());
    println!("alarms:       {}", counts.total);
    println!("true alarms:  {}", counts.true_alarms);
    println!("false alarms: {}", counts.false_alarms);
    let elapsed = started.elapsed().as_secs_f64();
    report_stats(&task, "analyze", verifier.cache(), &dom, elapsed);
    session.finish()?;
    Ok(if counts.total == 0 {
        Outcome::Positive
    } else {
        Outcome::Negative
    })
}

fn prove(task: Task) -> Result<Outcome, AirError> {
    let u = build_universe(&task)?;
    let dom = build_domain(&task, &u);
    let (prog, pre, spec) = build_sets(&task, &u)?;
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
    let lcl = match build_cache(task.engine, task.uncached) {
        Some(cache) => Lcl::with_cache(&u, cache),
        None => Lcl::uncached(&u),
    }
    .tracer(session.tracer())
    .governor(governor);
    let write_dot = |derivation: &air_core::Derivation| -> Result<(), AirError> {
        if let Some(path) = &dot_path {
            std::fs::write(path, derivation.to_dot(&u))
                .map_err(|e| usage(format!("cannot write `{path}`: {e}")))?;
            println!("wrote DOT derivation to {path}");
        }
        Ok(())
    };
    let started = Instant::now();
    // With a spec, decide it through the logic; otherwise just derive.
    if let Some(spec) = spec {
        let verdict = match lcl.prove_spec(dom, &pre, &prog, &spec) {
            Ok(v) => v,
            Err(e) => {
                let air = engine_error(&u, e);
                session.finish()?;
                return Err(air);
            }
        };
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
        print!("{}", derivation.render(&u));
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
    let (derivation, repaired) = match lcl.derive_with_repair(dom, &pre, &prog) {
        Ok(v) => v,
        Err(e) => {
            let air = engine_error(&u, e);
            session.finish()?;
            return Err(air);
        }
    };
    println!(
        "LCL_A derivation ({} rule applications):\n",
        derivation.size()
    );
    print!("{}", derivation.render(&u));
    println!(
        "\nrepaired domain: {} (points added: {})",
        repaired.base_name(),
        repaired.num_points()
    );
    println!("post: {}", display_set(&u, &derivation.triple().post));
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
    session: &mut air_core::RepairSession,
    u: &Universe,
    label: &str,
    prog: &air_lang::Reg,
    pre: &StateSet,
    spec: &StateSet,
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
    // The corpus header reader wants sweep defaults; repair has none.
    let corpus_defaults = CorpusTask {
        dir: String::new(),
        jobs: 0,
        domain: task.domain,
        strategy: StrategyKind::Backward,
        engine: EngineKind::Enumerative,
        stats: false,
        stats_json: false,
        uncached: false,
        trace: None,
        profile: false,
        fuel: None,
        timeout_ms: None,
        checkpoint: None,
        resume: false,
        dist: crate::args::DistOpts::default(),
    };
    let (name, base_task) = parse_corpus_file(std::path::Path::new(&task.file), &corpus_defaults)?;
    let u = build_universe(&base_task)?;
    let dom = build_domain(&base_task, &u);
    let (prog, pre, spec) = build_sets(&base_task, &u)?;
    let Some(spec) = spec else {
        return Err(AirError::Usage(format!(
            "{name}: corpus header produced no spec"
        )));
    };
    let trace_session = TraceSession::open(task.trace.as_deref(), false)?;
    let governor = Governor::new(build_budget(task.fuel, task.timeout_ms));
    let mut session = air_core::RepairSession::new(u.clone(), dom)
        .tracer(trace_session.tracer())
        .governor(governor);
    println!("base:      {name}");
    println!("universe:  {} stores", u.size());
    println!("domain:    {}\n", session.base().base_name());
    let mut all_proved = repair_revision(&mut session, &u, &name, &prog, &pre, &spec, &task)?;
    for (i, edit) in task.edits.iter().enumerate() {
        let edit_path = std::path::Path::new(edit);
        let text = std::fs::read_to_string(edit_path)
            .map_err(|e| usage(format!("cannot read `{edit}`: {e}")))?;
        // An edited revision reuses the base header unless it carries its
        // own (over the same variables — the session owns one universe).
        let has_header = text
            .lines()
            .filter(|l| l.trim_start().starts_with('#'))
            .any(|l| l.contains("Verified with:"));
        let rev_task = if has_header {
            let (_, t) = parse_corpus_file(edit_path, &corpus_defaults)?;
            if t.vars != base_task.vars {
                return Err(AirError::Usage(format!(
                    "{edit}: --edit revisions must declare the base program's variables"
                )));
            }
            t
        } else {
            Task {
                code: text,
                ..base_task.clone()
            }
        };
        let (eprog, epre, espec) = build_sets(&rev_task, &u)?;
        let espec = espec.unwrap_or_else(|| spec.clone());
        println!("\n--- edit {}: {edit} ---", i + 1);
        let label = format!("edit-{}", i + 1);
        all_proved &= repair_revision(&mut session, &u, &label, &eprog, &epre, &espec, &task)?;
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
pub(crate) enum ProgramStatus {
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
    pub(crate) fn bare(name: &str, status: ProgramStatus, millis: f64) -> ProgramReport {
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

/// Extracts the quoted value of `key "..."` from a corpus header line.
fn header_clause(header: &str, key: &str) -> Option<String> {
    let pat = format!("{key} \"");
    let start = header.find(&pat)? + pat.len();
    let rest = &header[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Reads one `*.imp` file into a verification [`Task`] using its
/// `# Verified with:` header (vars/pre/spec, optional domain override).
pub(crate) fn parse_corpus_file(
    path: &std::path::Path,
    task: &CorpusTask,
) -> Result<(String, Task), AirError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage(format!("cannot read `{}`: {e}", path.display())))?;
    let header = text
        .lines()
        .filter(|l| l.trim_start().starts_with('#'))
        .find(|l| l.contains("Verified with:"))
        .ok_or_else(|| {
            usage(format!(
                "{}: missing `# Verified with:` header",
                path.display()
            ))
        })?;
    let missing = |key: &str| usage(format!("{}: header lacks `{key} \"...\"`", path.display()));
    let vars = header_clause(header, "vars").ok_or_else(|| missing("vars"))?;
    let pre = header_clause(header, "pre").ok_or_else(|| missing("pre"))?;
    let spec = header_clause(header, "spec").ok_or_else(|| missing("spec"))?;
    let domain = match header_clause(header, "domain") {
        Some(d) => DomainKind::parse(&d).map_err(usage)?,
        None => task.domain,
    };
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    Ok((
        name,
        Task {
            vars: crate::args::parse_vars(&vars).map_err(usage)?,
            code: text,
            pre,
            spec: Some(spec),
            domain,
            strategy: task.strategy,
            engine: task.engine,
            stats: task.stats,
            stats_json: false,
            uncached: task.uncached,
            // The sweep owns the trace session; per-program tasks don't.
            trace: None,
            trace_format: TraceFormat::default(),
            profile: false,
            // The sweep owns one shared budget; per-program tasks don't.
            fuel: None,
            timeout_ms: None,
        },
    ))
}

/// Verifies one corpus program, returning a report row — never an error:
/// engine failures and budget cutoffs are folded into the status so the
/// sweep stays fail-soft. Each program gets its own universe and
/// therefore its own caches — semantic caches must never be shared across
/// universes (equal-looking state sets would alias different store
/// enumerations).
pub(crate) fn run_corpus_program(
    name: &str,
    task: &Task,
    tracer: Tracer,
    governor: Governor,
) -> ProgramReport {
    let started = Instant::now();
    let _span = tracer.span(|| format!("corpus.{name}"));
    let fail = |status: ProgramStatus| {
        ProgramReport::bare(name, status, started.elapsed().as_secs_f64() * 1e3)
    };
    let u = match build_universe(task) {
        Ok(u) => u,
        Err(e) => return fail(ProgramStatus::Error(e.to_string())),
    };
    let dom = build_domain(task, &u);
    let (prog, pre, spec) = match build_sets(task, &u) {
        Ok(t) => t,
        Err(e) => return fail(ProgramStatus::Error(e.to_string())),
    };
    let Some(spec) = spec else {
        return fail(ProgramStatus::Error(format!(
            "{name}: corpus header produced no spec"
        )));
    };
    let verifier = build_verifier(&u, task.engine, task.uncached)
        .tracer(tracer)
        .governor(governor);
    let verdict = match task.strategy {
        StrategyKind::Backward => verifier.backward(dom, &prog, &pre, &spec),
        StrategyKind::Forward => verifier.forward(dom, &prog, &pre, &spec),
    };
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let verdict = match verdict {
        Ok(v) => v,
        Err(RepairError::Exhausted(partial)) => {
            return ProgramReport::bare(name, ProgramStatus::Budget(partial.exhaustion), millis)
        }
        Err(RepairError::Sem(SemError::Exhausted(ex))) => {
            return ProgramReport::bare(name, ProgramStatus::Budget(ex), millis)
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

/// Renders a panic payload (the argument of `panic!`) as text.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
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
        match &r.status {
            ProgramStatus::Budget(ex) => {
                out.push_str(",\"phase\":");
                json::escape_str(&ex.phase, &mut out);
                out.push_str(&format!(
                    ",\"spent\":{},\"reason\":\"{}\"",
                    ex.spent,
                    ex.reason.name()
                ));
            }
            ProgramStatus::Error(msg) | ProgramStatus::Panicked(msg) => {
                out.push_str(",\"detail\":");
                json::escape_str(msg, &mut out);
            }
            _ => {}
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Restores the completed rows of a previous sweep's checkpoint. Budget
/// and skipped rows are NOT restored — a resumed sweep has a fresh
/// budget, so previously cut-off programs get another chance. Malformed
/// files or a different corpus directory restore nothing (fresh start).
fn parse_corpus_checkpoint(
    text: &str,
    dir: &str,
) -> std::collections::BTreeMap<String, ProgramReport> {
    let mut out = std::collections::BTreeMap::new();
    let Ok(doc) = json::parse(text.trim()) else {
        return out;
    };
    if doc.get("schema").and_then(json::Value::as_str) != Some("air-corpus-checkpoint/1")
        || doc.get("dir").and_then(json::Value::as_str) != Some(dir)
    {
        return out;
    }
    let Some(rows) = doc.get("rows").and_then(json::Value::as_arr) else {
        return out;
    };
    for row in rows {
        let Some(name) = row.get("name").and_then(json::Value::as_str) else {
            continue;
        };
        let detail = row
            .get("detail")
            .and_then(json::Value::as_str)
            .unwrap_or("")
            .to_string();
        let status = match row.get("status").and_then(json::Value::as_str) {
            Some("proved") => ProgramStatus::Proved,
            Some("refuted") => ProgramStatus::Refuted,
            Some("error") => ProgramStatus::Error(detail),
            Some("panic") => ProgramStatus::Panicked(detail),
            _ => continue,
        };
        out.insert(
            name.to_string(),
            ProgramReport {
                name: name.to_string(),
                status,
                points: row
                    .get("points")
                    .and_then(json::Value::as_num)
                    .unwrap_or(0.0) as usize,
                millis: 0.0,
                exec_cache: String::new(),
                closure_cache: String::new(),
            },
        );
    }
    out
}

/// Parses a worker lease payload (`air-corpus-checkpoint/1`) back into
/// ordered report rows. Unlike [`parse_corpus_checkpoint`] — which
/// deliberately drops budget/skipped rows so a resumed sweep retries
/// them — the distributed merge needs every status to round-trip, and
/// `None` on any malformed row (a worker bug must surface, not shrink
/// the corpus).
pub(crate) fn parse_corpus_rows(text: &str, dir: &str) -> Option<Vec<ProgramReport>> {
    let doc = json::parse(text.trim()).ok()?;
    if doc.get("schema")?.as_str()? != "air-corpus-checkpoint/1" || doc.get("dir")?.as_str()? != dir
    {
        return None;
    }
    let mut out = Vec::new();
    for row in doc.get("rows")?.as_arr()? {
        let name = row.get("name")?.as_str()?.to_string();
        let detail = || {
            row.get("detail")
                .and_then(json::Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let status = match row.get("status")?.as_str()? {
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
        };
        out.push(ProgramReport {
            name,
            status,
            points: row.get("points")?.as_num()? as usize,
            millis: row.get("millis")?.as_num()?,
            exec_cache: String::new(),
            closure_cache: String::new(),
        });
    }
    Some(out)
}

/// The crash-safe sequential sweep behind `corpus --checkpoint`: after
/// every program the completed rows are atomically checkpointed, and
/// `--resume` restores them instead of re-verifying. Checkpoint I/O
/// failures degrade to "no checkpoint" — the sweep itself never stops
/// for them.
fn corpus_checkpointed(
    task: &CorpusTask,
    programs: &[(String, Task)],
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
    for (name, t) in programs {
        if let Some(row) = restored.remove(name) {
            rows.push(row);
        } else {
            let row = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_corpus_program(name, t, session.tracer(), governor.clone())
            })) {
                Ok(report) => report,
                Err(payload) => {
                    ProgramReport::bare(name, ProgramStatus::Panicked(panic_message(payload)), 0.0)
                }
            };
            rows.push(row);
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
    let programs = load_corpus_programs(&task)?;
    let jobs = if task.jobs == 0 {
        programs.len()
    } else {
        task.jobs
    };
    println!(
        "corpus sweep: {} programs, {} job(s), strategy {:?}{}{}",
        programs.len(),
        jobs,
        task.strategy,
        if task.engine == EngineKind::Symbolic {
            ", symbolic engine"
        } else {
            ""
        },
        if task.uncached { ", uncached" } else { "" }
    );
    let session = TraceSession::open(task.trace.as_deref(), task.profile)?;
    // An ungoverned sweep still gets a cancellable governor so SIGINT
    // stops it at the next engine loop head instead of mid-program.
    let budget = build_budget(task.fuel, task.timeout_ms);
    let governor = if budget.is_unlimited() {
        Governor::cancellable()
    } else {
        Governor::new(budget)
    };
    crate::signal::install();
    let sweep_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = std::thread::spawn({
        let sweep_done = Arc::clone(&sweep_done);
        let governor = governor.clone();
        move || {
            while !sweep_done.load(std::sync::atomic::Ordering::Relaxed) {
                if crate::signal::interrupted() {
                    governor.cancel();
                    return;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    });
    let started = Instant::now();
    let reports: Vec<ProgramReport> = if let Some(path) = &task.checkpoint {
        // Crash-safe mode runs sequentially: a checkpoint after every
        // program needs a defined "done so far" prefix, which the
        // parallel fan-out does not have.
        corpus_checkpointed(&task, &programs, &session, &governor, path)
    } else {
        let results = par_map_governed(jobs, &programs, &governor, |_, (name, t)| {
            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_corpus_program(name, t, session.tracer(), governor.clone())
            })) {
                Ok(report) => report,
                Err(payload) => {
                    ProgramReport::bare(name, ProgramStatus::Panicked(panic_message(payload)), 0.0)
                }
            }
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
    sweep_done.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = watcher.join();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    print_corpus_rows(&task, &reports, total_ms);
    session.finish()?;
    corpus_outcome(&reports, governor.spent())
}

/// Lists and parses every `*.imp` program under the corpus directory,
/// in sorted file order (the canonical item order of `--shards N`).
pub(crate) fn load_corpus_programs(task: &CorpusTask) -> Result<Vec<(String, Task)>, AirError> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&task.dir)
        .map_err(|e| usage(format!("cannot read corpus dir `{}`: {e}", task.dir)))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(usage(format!("no *.imp programs under `{}`", task.dir)));
    }
    files
        .iter()
        .map(|p| parse_corpus_file(p, task))
        .collect::<Result<_, _>>()
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
            match &report.status {
                ProgramStatus::Budget(ex) => {
                    out.push_str(&format!(
                        ",\"phase\":\"{}\",\"spent\":{},\"reason\":\"{}\"",
                        ex.phase,
                        ex.spent,
                        ex.reason.name()
                    ));
                }
                ProgramStatus::Error(msg) | ProgramStatus::Panicked(msg) => {
                    out.push_str(",\"detail\":");
                    json::escape_str(msg.as_str(), &mut out);
                }
                _ => {}
            }
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
    use crate::args::VarDecl;

    fn task(code: &str, pre: &str, spec: Option<&str>) -> Task {
        Task {
            vars: vec![VarDecl {
                name: "x".into(),
                lo: -8,
                hi: 8,
            }],
            code: code.into(),
            pre: pre.into(),
            spec: spec.map(str::to_owned),
            domain: DomainKind::Int,
            strategy: StrategyKind::Backward,
            engine: EngineKind::Enumerative,
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

    fn corpus_task(dir: String) -> CorpusTask {
        CorpusTask {
            dir,
            jobs: 0, // one worker per program
            domain: DomainKind::Int,
            strategy: StrategyKind::Backward,
            engine: EngineKind::Enumerative,
            stats: false,
            stats_json: false,
            uncached: false,
            trace: None,
            profile: false,
            fuel: None,
            timeout_ms: None,
            checkpoint: None,
            resume: false,
            dist: crate::args::DistOpts::default(),
        }
    }

    fn corpus_dir() -> String {
        format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn header_clause_extracts_quoted_values() {
        let h = r#"# Verified with: vars "x:-8..8", pre "x != 0", spec "x >= 1"."#;
        assert_eq!(header_clause(h, "vars").as_deref(), Some("x:-8..8"));
        assert_eq!(header_clause(h, "pre").as_deref(), Some("x != 0"));
        assert_eq!(header_clause(h, "spec").as_deref(), Some("x >= 1"));
        assert_eq!(header_clause(h, "domain"), None);
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
        proved.engine = EngineKind::Symbolic;
        assert_eq!(verify(proved).unwrap(), Outcome::Positive);
        let mut refuted = task("x := x + 1", "x >= 0 && x <= 5", Some("x <= 3"));
        refuted.engine = EngineKind::Symbolic;
        assert_eq!(verify(refuted).unwrap(), Outcome::Negative);
        let mut alarms = task(
            "if (x >= 0) then { skip } else { x := 0 - x }",
            "x != 0",
            Some("x != 0"),
        );
        alarms.engine = EngineKind::Symbolic;
        assert_eq!(analyze(alarms).unwrap(), Outcome::Negative);
    }

    #[test]
    fn corpus_sweep_with_symbolic_engine_proves_all_programs() {
        let mut t = corpus_task(corpus_dir());
        t.engine = EngineKind::Symbolic;
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
        t.strategy = StrategyKind::Forward;
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
        for d in [
            DomainKind::Int,
            DomainKind::Oct,
            DomainKind::Sign,
            DomainKind::Parity,
            DomainKind::Const,
            DomainKind::Cong,
            DomainKind::Karr,
        ] {
            let mut t = task("x := x + 1", "x = 0", Some("x = 1"));
            t.domain = d;
            assert_eq!(verify(t).unwrap(), Outcome::Positive, "{d:?}");
        }
    }

    #[test]
    fn stats_json_renders_valid_json() {
        let u = Universe::new(&[("x", -8, 8)]).unwrap();
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
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
        t.vars = vec![VarDecl {
            name: "x".into(),
            lo: 5,
            hi: 0,
        }];
        let err = verify(t).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
    }
}
