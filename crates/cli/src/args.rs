//! Command-line argument parsing (dependency-free).

use std::fmt;

pub use air_core::{DomainKind, Engine, Question, Strategy};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  air verify  --vars SPEC --code PROG|--file PATH --pre BEXP --spec BEXP
              [--domain int|oct|sign|parity|const|cong|karr] [--strategy backward|forward]
              [--engine enumerative|symbolic] [--stats] [--stats-json] [--uncached]
              [--trace FILE] [--profile] [--fuel N] [--timeout-ms N]
  air analyze --vars SPEC --code PROG|--file PATH --pre BEXP --spec BEXP [--domain ...]
              [--stats] [--stats-json] [--uncached] [--trace FILE] [--profile]
              [--fuel N] [--timeout-ms N]
  air prove   --vars SPEC --code PROG|--file PATH --pre BEXP [--spec BEXP] [--domain ...]
              [--stats] [--stats-json] [--uncached] [--trace FILE]
              [--trace-format jsonl|dot] [--profile] [--fuel N] [--timeout-ms N]
  air corpus  [--dir PATH] [--jobs N] [--domain ...] [--strategy ...] [--engine ...]
              [--stats] [--stats-json] [--uncached] [--trace FILE] [--profile]
              [--fuel N] [--timeout-ms N] [--checkpoint FILE] [--resume]
              [--shards N] [--lease N] [--hang-timeout-ms N]
              [--kill-workers N] [--kill-seed N] [--dist-frame-log FILE]
  air repair  FILE [--edit FILE]... [--domain ...] [--stats] [--stats-json]
              [--trace FILE] [--fuel N] [--timeout-ms N]
  air trace summarize FILE
  air fuzz run      [--seed N] [--cases N] [--oracle NAME] [--corpus-dir PATH]
                    [--no-shrink] [--stats-json] [--trace FILE]
                    [--checkpoint FILE] [--resume]
                    [--shards N] [--lease N] [--hang-timeout-ms N]
                    [--kill-workers N] [--kill-seed N] [--dist-frame-log FILE]
  air fuzz replay   FILE [--oracle NAME]
  air fuzz minimize FILE
  air chaos   [--dir PATH] [--plans N] [--seed N] [--fuel N] [--stats-json]
              [--trace FILE] [--shards N] [--lease N] [--hang-timeout-ms N]
              [--kill-workers N] [--kill-seed N] [--dist-frame-log FILE]
  air serve   [--stdio] [--tcp ADDR] [--workers N] [--quota FUEL]
              [--max-frame BYTES] [--trace FILE] [--metrics-addr ADDR]
  air top     --connect ADDR [--interval-ms N] [--iterations N] [--plain]

  --vars declares bounded variables, e.g. \"x:-8..8,y:0..20\"
  PROG is the Imp-like surface syntax, e.g. \"while (x > 0) do { x := x - 1 }\"
  BEXP is a boolean expression over the variables, e.g. \"x != 0 && y <= 5\"
  corpus sweeps every *.imp under --dir (default `corpus/`), reading each
  file's `# Verified with:` header, fanning programs out over --jobs threads
  --engine (verify and corpus only) selects the repair engine:
  `enumerative` (explicit bitsets, the default) or `symbolic` (on the int
  domain, repair on interval decision diagrams — same verdicts, scales to
  universes far beyond the enumerable bound; other domains run the bitset
  engine); the engine is a value of its own, apart from the semantic
  cache, so it combines with --uncached
  --stats prints cache hit/miss counters and timings; --stats-json prints the
  same as one JSON object; --uncached disables the memo tables (the
  reference path)
  --trace FILE writes a structured JSONL event log; --trace-format dot
  (prove only) writes the LCL derivation as Graphviz DOT instead;
  --profile prints a per-phase wall-time table after the run
  --fuel N caps engine-loop iterations; --timeout-ms N sets a wall-clock
  deadline; exhausting either stops the run with exit code 3 and the best
  partial result (corpus sweeps share one budget across all programs)
  repair verifies FILE (a corpus-style *.imp with a `# Verified with:`
  header), then re-verifies every --edit revision *incrementally* in one
  warm session: memoized wlp/exec/closure derivations carry over, so each
  re-repair costs roughly the structural distance of the edit, and every
  verdict is byte-identical to a from-scratch run; an --edit file reuses
  the base header unless it carries its own (same variables required)
  trace summarize aggregates a JSONL trace into per-phase tables
  fuzz run sweeps seeded random instances through every engine
  configuration and checks the paper's theorem oracles (see FUZZING.md);
  failures are shrunk and written as seed files under --corpus-dir
  (default `corpus/fuzz`); fuzz replay re-checks one seed file; fuzz
  minimize shrinks a failing seed file and prints the result
  --checkpoint FILE atomically saves sweep progress every few items so a
  killed run can restart with --resume and produce the identical report
  --shards N distributes a fuzz/corpus/chaos campaign over N worker OS
  processes with crash-tolerant leases and work-stealing; the merged
  report is byte-identical to the single-process run (see FUZZING.md);
  --lease sizes one lease in items (0 = auto), --hang-timeout-ms bounds
  worker silence before a restart, --kill-workers N SIGKILLs N workers
  mid-campaign as a chaos axis (--kill-seed picks the schedule), and
  --dist-frame-log FILE records every coordinator frame as JSONL
  chaos reruns the corpus under --plans seeded fault-injection plans
  (worker panics, cache poisoning, sink failures, budget cancellation)
  and checks that every run degrades cleanly: structured exit codes, no
  aborts, and any partial invariant sound against concrete semantics
  serve runs the repair-as-a-service daemon (see SERVING.md): verify/
  analyze/repair jobs arrive as length-prefixed JSON frames on stdin
  (--stdio) and/or a TCP socket (--tcp HOST:PORT, port 0 = ephemeral),
  and warm caches persist across requests; --workers sizes the job pool,
  --quota caps each tenant's lifetime fuel, --max-frame caps a request's
  size in bytes; the metrics plane is always on: the `metrics` job
  answers a JSON snapshot, and --metrics-addr also serves Prometheus text
  exposition on HOST:PORT (curl- and nc-friendly)
  top polls a running daemon's `metrics` job over --connect HOST:PORT
  and renders a one-screen live summary (req/s, p50/p99 cold and warm
  latency, warm hit rate, queue depth, per-tenant fuel spend) every
  --interval-ms (default 1000); --iterations N stops after N screens
  (0 = run until interrupted), --plain skips terminal escapes for logs

exit codes: 0 proved / no alarms, 1 refuted / alarms, 2 usage error,
  3 budget exhausted, 4 internal error";

/// The output format of `--trace`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceFormat {
    /// One JSON event per line (the wire schema of `air-trace`). Default.
    #[default]
    Jsonl,
    /// Graphviz DOT of the LCL derivation tree (`prove` only).
    Dot,
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `air verify` — repair until proved or refuted.
    Verify(Task),
    /// `air analyze` — plain analysis, report alarm counts.
    Analyze(Task),
    /// `air prove` — print the LCL_A derivation (with repair).
    Prove(Task),
    /// `air corpus` — verify every program in a corpus directory.
    Corpus(CorpusTask),
    /// `air repair` — incremental re-repair of edited revisions.
    Repair(RepairTask),
    /// `air trace summarize` — aggregate a JSONL trace into tables.
    TraceSummarize {
        /// Path of the JSONL trace file.
        file: String,
    },
    /// `air fuzz ...` — theorem-oracle fuzzing (see FUZZING.md).
    Fuzz(FuzzCmd),
    /// `air chaos` — corpus sweep under seeded fault-injection plans.
    Chaos(ChaosTask),
    /// `air serve` — the repair-as-a-service daemon (see SERVING.md).
    Serve(ServeTask),
    /// `air top` — live metrics view of a running daemon.
    Top(TopTask),
}

/// The `air top` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TopTask {
    /// Address of the running daemon's wire protocol (`HOST:PORT`).
    pub connect: String,
    /// Milliseconds between polls.
    pub interval_ms: u64,
    /// Screens to render before exiting (`0` = until interrupted).
    pub iterations: u64,
    /// Plain output: no cursor-home escapes, one block per poll.
    pub plain: bool,
}

/// The `air serve` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeTask {
    /// Serve length-prefixed frames on stdin/stdout.
    pub stdio: bool,
    /// TCP bind address (`HOST:PORT`, port 0 for ephemeral).
    pub tcp: Option<String>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Per-tenant lifetime fuel allowance.
    pub quota: Option<u64>,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: Option<usize>,
    /// Write a structured JSONL trace of the serving session to this file.
    pub trace: Option<String>,
    /// Bind address of the Prometheus text exposition listener.
    pub metrics_addr: Option<String>,
}

/// Distributed-campaign flags shared by `fuzz run`, `corpus` and
/// `chaos` (see `crates/dist`). All default to off; `--shards N` with
/// `N >= 1` switches the command into coordinator mode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DistOpts {
    /// Worker OS processes (`0` = single-process).
    pub shards: u64,
    /// Items per lease (`0` = auto-sized from the campaign).
    pub lease: u64,
    /// Heartbeat hang timeout in milliseconds (`0` = default 30 000).
    pub hang_ms: u64,
    /// Chaos axis: SIGKILL this many workers mid-campaign.
    pub kill_workers: u64,
    /// Seed of the deterministic kill schedule.
    pub kill_seed: u64,
    /// Record every coordinator frame as JSONL to this file.
    pub frame_log: Option<String>,
    /// Hidden (`--dist-worker N`): run as the worker for shard N,
    /// speaking the dist-frame protocol on stdin/stdout.
    pub worker: Option<u64>,
}

impl DistOpts {
    /// True when the user asked for a distributed run.
    pub fn requested(&self) -> bool {
        self.shards > 0
    }
}

/// Consumes one distributed-campaign flag into `opts`; returns
/// `Ok(false)` when `flag` is not a dist flag.
fn dist_flag(opts: &mut DistOpts, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
    match flag {
        "--shards" => opts.shards = num_flag(flag, &value(it, flag)?)?,
        "--lease" => opts.lease = num_flag(flag, &value(it, flag)?)?,
        "--hang-timeout-ms" => opts.hang_ms = num_flag(flag, &value(it, flag)?)?,
        "--kill-workers" => opts.kill_workers = num_flag(flag, &value(it, flag)?)?,
        "--kill-seed" => opts.kill_seed = num_flag(flag, &value(it, flag)?)?,
        "--dist-frame-log" => opts.frame_log = Some(value(it, flag)?),
        "--dist-worker" => opts.worker = Some(num_flag(flag, &value(it, flag)?)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The output and budget flags shared by several subcommands. Each
/// takes `--stats-json` and `--trace`; `verify`/`analyze`/`prove`/
/// `corpus` and `repair` take both budget flags, `chaos` only `--fuel`,
/// `fuzz run` neither.
#[derive(Default)]
struct CommonFlags {
    stats_json: bool,
    trace: Option<String>,
    fuel: Option<u64>,
    timeout_ms: Option<u64>,
}

impl CommonFlags {
    /// Consumes `flag` when it is `--stats-json`, `--trace` or one of
    /// the `budget` flags the caller takes; returns `Ok(false)` otherwise.
    fn take(&mut self, flag: &str, budget: &[&str], it: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--stats-json" => self.stats_json = true,
            "--trace" => self.trace = Some(value(it, flag)?),
            "--fuel" if budget.contains(&flag) => {
                self.fuel = Some(num_flag(flag, &value(it, flag)?)?)
            }
            "--timeout-ms" if budget.contains(&flag) => {
                self.timeout_ms = Some(num_flag(flag, &value(it, flag)?)?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Both budget flags, for the subcommands that take them.
const BUDGET: &[&str] = &["--fuel", "--timeout-ms"];

/// The arguments after the subcommand.
type Args<'a> = std::slice::Iter<'a, String>;

/// The value that follows `flag`.
fn value(it: &mut Args<'_>, flag: &str) -> Result<String, ArgError> {
    it.next()
        .cloned()
        .ok_or_else(|| ArgError(format!("flag `{flag}` needs a value")))
}

/// Parses the numeric value of `flag`.
fn num_flag<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ArgError> {
    v.parse()
        .map_err(|_| ArgError(format!("bad {flag} value `{v}`")))
}

/// Rejects dist tuning flags without `--shards`, and `--shards`
/// together with `--dist-worker` (a process is one or the other).
fn check_dist(opts: &DistOpts) -> Result<(), ArgError> {
    if opts.worker.is_some() && opts.requested() {
        return Err(ArgError(
            "--dist-worker is mutually exclusive with --shards".into(),
        ));
    }
    // Without --shards or --dist-worker, any other dist flag is a tuning flag.
    if !opts.requested() && opts.worker.is_none() && *opts != DistOpts::default() {
        return Err(ArgError(
            "distributed flags (--lease, --hang-timeout-ms, --kill-workers, --kill-seed, \
             --dist-frame-log) require --shards N"
                .into(),
        ));
    }
    Ok(())
}

/// The `air chaos` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosTask {
    /// Directory holding `*.imp` programs with `# Verified with:` headers.
    pub dir: String,
    /// Number of seeded fault plans to sweep.
    pub plans: u64,
    /// Base seed; plan `i` is derived from `seed + i`.
    pub seed: u64,
    /// Fuel budget per plan run (`None` = a generous default).
    pub fuel: Option<u64>,
    /// Print the deterministic campaign report as one JSON line.
    pub stats_json: bool,
    /// Write a structured JSONL trace of the whole sweep to this file.
    pub trace: Option<String>,
    /// Distributed-campaign options (`--shards N`, see crates/dist).
    pub dist: DistOpts,
}

/// The `air fuzz` actions.
#[derive(Clone, Debug, PartialEq)]
pub enum FuzzCmd {
    /// Run a fuzz campaign over `seed..seed + cases`.
    Run {
        /// First seed.
        seed: u64,
        /// Number of cases.
        cases: u64,
        /// Restrict to one oracle by name.
        oracle: Option<String>,
        /// Directory to write shrunk failing seed files into.
        corpus_dir: String,
        /// Minimize failures before persisting them.
        shrink: bool,
        /// Print the deterministic campaign report as one JSON line.
        stats_json: bool,
        /// Write `fuzz_case`/`fuzz_shrink` events to this JSONL file.
        trace: Option<String>,
        /// Crash-safe progress checkpoint file.
        checkpoint: Option<String>,
        /// Resume from `checkpoint` instead of starting over.
        resume: bool,
        /// Hidden: exit(0) after N cases, simulating a crash (CI uses
        /// this to exercise `--resume` deterministically).
        halt_after: Option<u64>,
        /// Distributed-campaign options (`--shards N`, see crates/dist).
        dist: DistOpts,
    },
    /// Re-check one seed file.
    Replay {
        /// Path of the seed file.
        file: String,
        /// Restrict to one oracle by name.
        oracle: Option<String>,
    },
    /// Shrink a failing seed file and print the minimized seed file.
    Minimize {
        /// Path of the seed file.
        file: String,
    },
}

/// The common task payload: the question plus how to run it.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// What to verify (`spec` is `None` only for `prove`).
    pub question: Question,
    /// Repair strategy.
    pub strategy: Strategy,
    /// Semantic engine backend.
    pub engine: Engine,
    /// Print cache hit/miss counters and timings after the run.
    pub stats: bool,
    /// Print the same statistics as one machine-readable JSON object.
    pub stats_json: bool,
    /// Disable memoization (the reference path).
    pub uncached: bool,
    /// Write a structured trace to this file.
    pub trace: Option<String>,
    /// Format of the `--trace` output.
    pub trace_format: TraceFormat,
    /// Print a per-phase wall-time profile after the run.
    pub profile: bool,
    /// Fuel budget: maximum engine-loop iterations before exit code 3.
    pub fuel: Option<u64>,
    /// Wall-clock budget in milliseconds before exit code 3.
    pub timeout_ms: Option<u64>,
}

/// The `air repair` payload: one base program plus edited revisions,
/// re-verified incrementally in a single warm session.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairTask {
    /// The base program: a corpus-style `*.imp` with a `# Verified
    /// with:` header.
    pub file: String,
    /// Edited revisions, re-verified in order against the warm session.
    pub edits: Vec<String>,
    /// Base domain (overridden by a `domain` header clause).
    pub domain: DomainKind,
    /// Print per-revision timings, reuse and cache counters.
    pub stats: bool,
    /// Print the same statistics as machine-readable JSON lines.
    pub stats_json: bool,
    /// Write a structured JSONL trace of the whole session to this file.
    pub trace: Option<String>,
    /// Fuel budget shared by the whole session.
    pub fuel: Option<u64>,
    /// Wall-clock budget in milliseconds for the whole session.
    pub timeout_ms: Option<u64>,
}

/// The corpus-sweep payload.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusTask {
    /// Directory holding `*.imp` programs with `# Verified with:` headers.
    pub dir: String,
    /// Worker threads for the program fan-out (`0` = one per program).
    pub jobs: usize,
    /// Base domain (overridden per-file by a `domain` header clause).
    pub domain: DomainKind,
    /// Repair strategy.
    pub strategy: Strategy,
    /// Semantic engine backend.
    pub engine: Engine,
    /// Print per-program timings and cache counters.
    pub stats: bool,
    /// Print aggregate statistics as one machine-readable JSON object.
    pub stats_json: bool,
    /// Disable memoization (the reference path).
    pub uncached: bool,
    /// Write a structured JSONL trace of the whole sweep to this file.
    pub trace: Option<String>,
    /// Print a per-phase wall-time profile after the sweep.
    pub profile: bool,
    /// Fuel budget shared by the whole sweep (all programs together).
    pub fuel: Option<u64>,
    /// Wall-clock budget in milliseconds for the whole sweep.
    pub timeout_ms: Option<u64>,
    /// Crash-safe progress checkpoint file.
    pub checkpoint: Option<String>,
    /// Resume from `checkpoint` instead of starting over.
    pub resume: bool,
    /// Distributed-campaign options (`--shards N`, see crates/dist).
    pub dist: DistOpts,
}

/// A parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn parse_fuzz(it: &mut Args<'_>) -> Result<Command, ArgError> {
    let action = it
        .next()
        .ok_or_else(|| ArgError("`fuzz` needs an action (run, replay, minimize)".into()))?;
    match action.as_str() {
        "run" => {
            let mut seed = 0u64;
            let mut cases = 1000u64;
            let mut oracle = None;
            let mut corpus_dir = String::from("corpus/fuzz");
            let mut shrink = true;
            let mut common = CommonFlags::default();
            let mut checkpoint = None;
            let mut resume = false;
            let mut halt_after = None;
            let mut dist = DistOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => seed = num_flag(flag, &value(it, flag)?)?,
                    "--cases" => cases = num_flag(flag, &value(it, flag)?)?,
                    "--oracle" => oracle = Some(value(it, flag)?),
                    "--corpus-dir" => corpus_dir = value(it, flag)?,
                    "--no-shrink" => shrink = false,
                    "--checkpoint" => checkpoint = Some(value(it, flag)?),
                    "--resume" => resume = true,
                    "--halt-after" => halt_after = Some(num_flag(flag, &value(it, flag)?)?),
                    other => {
                        if !common.take(other, &[], it)? && !dist_flag(&mut dist, other, it)? {
                            return Err(ArgError(format!("unknown fuzz flag `{other}`")));
                        }
                    }
                }
            }
            if resume && checkpoint.is_none() {
                return Err(ArgError("--resume requires --checkpoint".into()));
            }
            check_dist(&dist)?;
            Ok(Command::Fuzz(FuzzCmd::Run {
                seed,
                cases,
                oracle,
                corpus_dir,
                shrink,
                stats_json: common.stats_json,
                trace: common.trace,
                checkpoint,
                resume,
                halt_after,
                dist,
            }))
        }
        "replay" | "minimize" => {
            let file = it
                .next()
                .cloned()
                .ok_or_else(|| ArgError(format!("`fuzz {action}` needs a FILE")))?;
            if action == "minimize" {
                if let Some(extra) = it.next() {
                    return Err(ArgError(format!("unexpected argument `{extra}`")));
                }
                return Ok(Command::Fuzz(FuzzCmd::Minimize { file }));
            }
            let mut oracle = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--oracle" => oracle = Some(value(it, flag)?),
                    other => return Err(ArgError(format!("unknown fuzz flag `{other}`"))),
                }
            }
            Ok(Command::Fuzz(FuzzCmd::Replay { file, oracle }))
        }
        other => Err(ArgError(format!("unknown fuzz action `{other}`"))),
    }
}

fn parse_chaos(it: &mut Args<'_>) -> Result<Command, ArgError> {
    let mut dir = String::from("corpus");
    let mut plans = 64u64;
    let mut seed = 0u64;
    let mut common = CommonFlags::default();
    let mut dist = DistOpts::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => dir = value(it, flag)?,
            "--plans" => plans = num_flag(flag, &value(it, flag)?)?,
            "--seed" => seed = num_flag(flag, &value(it, flag)?)?,
            other => {
                if !common.take(other, &["--fuel"], it)? && !dist_flag(&mut dist, other, it)? {
                    return Err(ArgError(format!("unknown chaos flag `{other}`")));
                }
            }
        }
    }
    check_dist(&dist)?;
    if dist.requested() && common.trace.is_some() {
        return Err(ArgError(
            "--shards is incompatible with chaos --trace (workers own their sinks)".into(),
        ));
    }
    Ok(Command::Chaos(ChaosTask {
        dir,
        plans,
        seed,
        fuel: common.fuel,
        stats_json: common.stats_json,
        trace: common.trace,
        dist,
    }))
}

fn parse_serve(it: &mut Args<'_>) -> Result<Command, ArgError> {
    let mut stdio = false;
    let mut tcp = None;
    let mut workers = 2usize;
    let mut quota = None;
    let mut max_frame = None;
    let mut trace = None;
    let mut metrics_addr = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stdio" => stdio = true,
            "--tcp" => tcp = Some(value(it, flag)?),
            "--metrics-addr" => metrics_addr = Some(value(it, flag)?),
            "--workers" => workers = num_flag(flag, &value(it, flag)?)?,
            "--quota" => quota = Some(num_flag(flag, &value(it, flag)?)?),
            "--max-frame" => max_frame = Some(num_flag(flag, &value(it, flag)?)?),
            "--trace" => trace = Some(value(it, flag)?),
            other => return Err(ArgError(format!("unknown serve flag `{other}`"))),
        }
    }
    if !stdio && tcp.is_none() {
        return Err(ArgError(
            "serve needs a transport: --stdio and/or --tcp ADDR".into(),
        ));
    }
    Ok(Command::Serve(ServeTask {
        stdio,
        tcp,
        workers,
        quota,
        max_frame,
        trace,
        metrics_addr,
    }))
}

fn parse_repair(it: &mut Args<'_>) -> Result<Command, ArgError> {
    let mut file = None;
    let mut edits = Vec::new();
    let mut domain = DomainKind::default();
    let mut stats = false;
    let mut common = CommonFlags::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--edit" => edits.push(value(it, arg)?),
            "--domain" => domain = DomainKind::parse(&value(it, arg)?).map_err(ArgError)?,
            "--stats" => stats = true,
            other if other.starts_with("--") => {
                if !common.take(other, BUDGET, it)? {
                    return Err(ArgError(format!("unknown repair flag `{other}`")));
                }
            }
            _ if file.is_none() => file = Some(arg.clone()),
            other => return Err(ArgError(format!("unexpected argument `{other}`"))),
        }
    }
    Ok(Command::Repair(RepairTask {
        file: file.ok_or_else(|| ArgError("`repair` needs a FILE".into()))?,
        edits,
        domain,
        stats,
        stats_json: common.stats_json,
        trace: common.trace,
        fuel: common.fuel,
        timeout_ms: common.timeout_ms,
    }))
}

fn parse_top(it: &mut Args<'_>) -> Result<Command, ArgError> {
    let mut connect = None;
    let mut interval_ms = 1000u64;
    let mut iterations = 0u64;
    let mut plain = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = Some(value(it, flag)?),
            "--interval-ms" => interval_ms = num_flag(flag, &value(it, flag)?)?,
            "--iterations" => iterations = num_flag(flag, &value(it, flag)?)?,
            "--plain" => plain = true,
            other => return Err(ArgError(format!("unknown top flag `{other}`"))),
        }
    }
    Ok(Command::Top(TopTask {
        connect: connect.ok_or_else(|| ArgError("top requires --connect HOST:PORT".into()))?,
        interval_ms: interval_ms.max(1),
        iterations,
        plain,
    }))
}

/// Parses a full argv (without the binary name).
pub fn parse(argv: &[String]) -> Result<Command, ArgError> {
    let mut it = argv.iter();
    let sub = it
        .next()
        .ok_or_else(|| ArgError("missing subcommand".into()))?;
    if sub == "--help" || sub == "-h" {
        return Err(ArgError("help requested".into()));
    }
    if sub == "trace" {
        let action = it
            .next()
            .ok_or_else(|| ArgError("`trace` needs an action (summarize)".into()))?;
        if action != "summarize" {
            return Err(ArgError(format!("unknown trace action `{action}`")));
        }
        let file = it
            .next()
            .cloned()
            .ok_or_else(|| ArgError("`trace summarize` needs a FILE".into()))?;
        if let Some(extra) = it.next() {
            return Err(ArgError(format!("unexpected argument `{extra}`")));
        }
        return Ok(Command::TraceSummarize { file });
    }
    match sub.as_str() {
        "fuzz" => return parse_fuzz(&mut it),
        "chaos" => return parse_chaos(&mut it),
        "serve" => return parse_serve(&mut it),
        "top" => return parse_top(&mut it),
        "repair" => return parse_repair(&mut it),
        _ => {}
    }
    let mut vars = None;
    let mut code = None;
    let mut file = None;
    let mut pre = None;
    let mut spec = None;
    let mut domain = DomainKind::default();
    let mut strategy = Strategy::default();
    let mut engine = None;
    let mut stats = false;
    let mut uncached = false;
    let mut dir = String::from("corpus");
    let mut jobs = 0usize;
    let mut common = CommonFlags::default();
    let mut trace_format = None;
    let mut profile = false;
    let mut checkpoint = None;
    let mut resume = false;
    let mut dist = DistOpts::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--vars" => {
                let v = value(&mut it, flag)?;
                vars = Some(air_core::question::parse_vars(&v).map_err(|e| ArgError(e.message))?)
            }
            "--code" => code = Some(value(&mut it, flag)?),
            "--file" => file = Some(value(&mut it, flag)?),
            "--pre" => pre = Some(value(&mut it, flag)?),
            "--spec" => spec = Some(value(&mut it, flag)?),
            "--domain" => domain = DomainKind::parse(&value(&mut it, flag)?).map_err(ArgError)?,
            "--strategy" => strategy = Strategy::parse(&value(&mut it, flag)?).map_err(ArgError)?,
            "--engine" => engine = Some(Engine::parse(&value(&mut it, flag)?).map_err(ArgError)?),
            "--stats" => stats = true,
            "--uncached" => uncached = true,
            "--trace-format" => {
                trace_format = Some(match value(&mut it, flag)?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "dot" => TraceFormat::Dot,
                    other => return Err(ArgError(format!("unknown trace format `{other}`"))),
                })
            }
            "--profile" => profile = true,
            "--dir" => dir = value(&mut it, flag)?,
            "--jobs" => jobs = num_flag(flag, &value(&mut it, flag)?)?,
            "--checkpoint" => checkpoint = Some(value(&mut it, flag)?),
            "--resume" => resume = true,
            other => {
                if !common.take(other, BUDGET, &mut it)?
                    && (sub != "corpus" || !dist_flag(&mut dist, other, &mut it)?)
                {
                    return Err(ArgError(format!("unknown flag `{other}`")));
                }
            }
        }
    }
    let CommonFlags {
        stats_json,
        trace,
        fuel,
        timeout_ms,
    } = common;
    if (checkpoint.is_some() || resume) && sub != "corpus" {
        return Err(ArgError(
            "--checkpoint/--resume are only available for `corpus` and `fuzz run`".into(),
        ));
    }
    if resume && checkpoint.is_none() {
        return Err(ArgError("--resume requires --checkpoint".into()));
    }
    if trace_format.is_some() && trace.is_none() {
        return Err(ArgError("--trace-format requires --trace".into()));
    }
    if trace_format == Some(TraceFormat::Dot) && sub != "prove" {
        return Err(ArgError(
            "--trace-format dot is only available for `prove`".into(),
        ));
    }
    let trace_format = trace_format.unwrap_or_default();
    if engine.is_some() && sub != "verify" && sub != "corpus" {
        return Err(ArgError(format!(
            "--engine is only available for `verify` and `corpus` (`{sub}` \
             runs the enumerative engine)"
        )));
    }
    let engine = engine.unwrap_or_default();
    if sub == "corpus" {
        check_dist(&dist)?;
        if dist.requested() || dist.worker.is_some() {
            // Sharded sweeps fork per-lease processes: a single shared
            // fuel meter, the sequential checkpoint file and the trace/
            // profile sinks have no cross-process analogue.
            let conflict = [
                (checkpoint.is_some(), "--checkpoint"),
                (fuel.is_some(), "--fuel"),
                (timeout_ms.is_some(), "--timeout-ms"),
                (trace.is_some(), "--trace"),
                (profile, "--profile"),
            ]
            .iter()
            .find_map(|(on, name)| on.then_some(*name));
            if let Some(name) = conflict {
                return Err(ArgError(format!(
                    "{name} is incompatible with corpus --shards/--dist-worker"
                )));
            }
        }
        return Ok(Command::Corpus(CorpusTask {
            dir,
            jobs,
            domain,
            strategy,
            engine,
            stats,
            stats_json,
            uncached,
            trace,
            profile,
            fuel,
            timeout_ms,
            checkpoint,
            resume,
            dist,
        }));
    }
    let code = match (code, file) {
        (Some(c), None) => c,
        (None, Some(path)) => std::fs::read_to_string(&path)
            .map_err(|e| ArgError(format!("cannot read `{path}`: {e}")))?,
        (Some(_), Some(_)) => return Err(ArgError("--code and --file are exclusive".into())),
        (None, None) => return Err(ArgError("one of --code or --file is required".into())),
    };
    let task = Task {
        question: Question {
            vars: vars.ok_or_else(|| ArgError("--vars is required".into()))?,
            code,
            pre: pre.ok_or_else(|| ArgError("--pre is required".into()))?,
            spec,
            domain,
        },
        strategy,
        engine,
        stats,
        stats_json,
        uncached,
        trace,
        trace_format,
        profile,
        fuel,
        timeout_ms,
    };
    match sub.as_str() {
        "verify" | "analyze" => {
            if task.question.spec.is_none() {
                return Err(ArgError(format!("`{sub}` requires --spec")));
            }
            Ok(if sub == "verify" {
                Command::Verify(task)
            } else {
                Command::Analyze(task)
            })
        }
        "prove" => Ok(Command::Prove(task)),
        other => Err(ArgError(format!("unknown subcommand `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_vars_flag() {
        let verify = |vars: &str| {
            parse(&argv(&[
                "verify", "--vars", vars, "--code", "skip", "--pre", "true", "--spec", "true",
            ]))
        };
        let Command::Verify(task) = verify("x:-8..8, y:0..20").unwrap() else {
            panic!("expected verify");
        };
        assert_eq!(
            task.question.vars,
            vec![("x".into(), -8, 8), ("y".into(), 0, 20)]
        );
        for bad in ["x", "x:1-2", "x:a..b", ""] {
            assert!(verify(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_full_verify() {
        let cmd = parse(&argv(&[
            "verify",
            "--vars",
            "x:-8..8",
            "--code",
            "skip",
            "--pre",
            "x > 0",
            "--spec",
            "x > 0",
            "--domain",
            "oct",
            "--strategy",
            "forward",
        ]))
        .unwrap();
        let Command::Verify(task) = cmd else {
            panic!("expected verify");
        };
        assert_eq!(task.question.domain, DomainKind::Oct);
        assert_eq!(task.strategy, Strategy::Forward);
        assert_eq!(task.question.code, "skip");
    }

    #[test]
    fn prove_does_not_need_spec() {
        let cmd = parse(&argv(&[
            "prove", "--vars", "x:0..3", "--code", "skip", "--pre", "true",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Prove(_)));
        // verify without --spec is rejected.
        assert!(parse(&argv(&[
            "verify", "--vars", "x:0..3", "--code", "skip", "--pre", "true",
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_flags_and_missing_values() {
        assert!(parse(&argv(&["verify", "--bogus"])).is_err());
        assert!(parse(&argv(&["verify", "--vars"])).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&[])).is_err());
        assert!(
            parse(&argv(&[
                "verify", "--vars", "x:0..1", "--pre", "true", "--spec", "true",
            ]))
            .is_err(),
            "missing --code/--file"
        );
        assert!(
            parse(&argv(&[
                "verify", "--vars", "x:0..1", "--code", "skip", "--file", "f", "--pre", "true",
                "--spec", "true",
            ]))
            .is_err(),
            "--code and --file are exclusive"
        );
    }

    #[test]
    fn parses_corpus_subcommand() {
        let cmd = parse(&argv(&[
            "corpus",
            "--dir",
            "progs",
            "--jobs",
            "4",
            "--domain",
            "karr",
            "--stats",
            "--uncached",
        ]))
        .unwrap();
        let Command::Corpus(task) = cmd else {
            panic!("expected corpus");
        };
        assert_eq!(task.dir, "progs");
        assert_eq!(task.jobs, 4);
        assert_eq!(task.domain, DomainKind::Karr);
        assert!(task.stats && task.uncached);
        // Defaults.
        let Command::Corpus(task) = parse(&argv(&["corpus"])).unwrap() else {
            panic!("expected corpus");
        };
        assert_eq!(task.dir, "corpus");
        assert_eq!(task.jobs, 0);
        assert!(!task.stats && !task.uncached);
        assert!(parse(&argv(&["corpus", "--jobs", "x"])).is_err());
    }

    #[test]
    fn stats_flag_on_verify() {
        let cmd = parse(&argv(&[
            "verify", "--vars", "x:0..3", "--code", "skip", "--pre", "true", "--spec", "true",
            "--stats",
        ]))
        .unwrap();
        let Command::Verify(task) = cmd else {
            panic!("expected verify");
        };
        assert!(task.stats);
        assert!(!task.uncached);
    }

    #[test]
    fn parses_trace_profile_and_stats_json_flags() {
        let cmd = parse(&argv(&[
            "prove",
            "--vars",
            "x:0..3",
            "--code",
            "skip",
            "--pre",
            "true",
            "--trace",
            "out.dot",
            "--trace-format",
            "dot",
            "--profile",
            "--stats-json",
        ]))
        .unwrap();
        let Command::Prove(task) = cmd else {
            panic!("expected prove");
        };
        assert_eq!(task.trace.as_deref(), Some("out.dot"));
        assert_eq!(task.trace_format, TraceFormat::Dot);
        assert!(task.profile && task.stats_json);
        // DOT export is prove-only, and --trace-format needs --trace.
        assert!(parse(&argv(&[
            "verify",
            "--vars",
            "x:0..3",
            "--code",
            "skip",
            "--pre",
            "true",
            "--spec",
            "true",
            "--trace",
            "t.jsonl",
            "--trace-format",
            "dot",
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "prove",
            "--vars",
            "x:0..3",
            "--code",
            "skip",
            "--pre",
            "true",
            "--trace-format",
            "dot",
        ]))
        .is_err());
    }

    #[test]
    fn parses_budget_flags() {
        let cmd = parse(&argv(&[
            "verify",
            "--vars",
            "x:0..3",
            "--code",
            "skip",
            "--pre",
            "true",
            "--spec",
            "true",
            "--fuel",
            "500",
            "--timeout-ms",
            "2000",
        ]))
        .unwrap();
        let Command::Verify(task) = cmd else {
            panic!("expected verify");
        };
        assert_eq!(task.fuel, Some(500));
        assert_eq!(task.timeout_ms, Some(2000));
        let Command::Corpus(task) = parse(&argv(&["corpus", "--fuel", "9"])).unwrap() else {
            panic!("expected corpus");
        };
        assert_eq!(task.fuel, Some(9));
        assert_eq!(task.timeout_ms, None);
        assert!(parse(&argv(&["corpus", "--fuel", "many"])).is_err());
        assert!(parse(&argv(&["corpus", "--timeout-ms", "-3"])).is_err());
    }

    #[test]
    fn parses_trace_summarize() {
        assert_eq!(
            parse(&argv(&["trace", "summarize", "run.jsonl"])).unwrap(),
            Command::TraceSummarize {
                file: "run.jsonl".into()
            }
        );
        assert!(parse(&argv(&["trace"])).is_err());
        assert!(parse(&argv(&["trace", "replay", "x"])).is_err());
        assert!(parse(&argv(&["trace", "summarize"])).is_err());
        assert!(parse(&argv(&["trace", "summarize", "a", "b"])).is_err());
    }

    #[test]
    fn parses_fuzz_run_defaults_and_flags() {
        assert_eq!(
            parse(&argv(&["fuzz", "run"])).unwrap(),
            Command::Fuzz(FuzzCmd::Run {
                seed: 0,
                cases: 1000,
                oracle: None,
                corpus_dir: "corpus/fuzz".into(),
                shrink: true,
                stats_json: false,
                trace: None,
                checkpoint: None,
                resume: false,
                halt_after: None,
                dist: DistOpts::default(),
            })
        );
        assert_eq!(
            parse(&argv(&[
                "fuzz",
                "run",
                "--seed",
                "42",
                "--cases",
                "200",
                "--oracle",
                "soundness",
                "--corpus-dir",
                "/tmp/c",
                "--no-shrink",
                "--stats-json",
                "--trace",
                "f.jsonl",
            ]))
            .unwrap(),
            Command::Fuzz(FuzzCmd::Run {
                seed: 42,
                cases: 200,
                oracle: Some("soundness".into()),
                corpus_dir: "/tmp/c".into(),
                shrink: false,
                stats_json: true,
                trace: Some("f.jsonl".into()),
                checkpoint: None,
                resume: false,
                halt_after: None,
                dist: DistOpts::default(),
            })
        );
        assert!(parse(&argv(&["fuzz"])).is_err());
        assert!(parse(&argv(&["fuzz", "explode"])).is_err());
        assert!(parse(&argv(&["fuzz", "run", "--seed"])).is_err());
        assert!(parse(&argv(&["fuzz", "run", "--seed", "abc"])).is_err());
        assert!(parse(&argv(&["fuzz", "run", "--bogus"])).is_err());
    }

    #[test]
    fn parses_fuzz_replay_and_minimize() {
        assert_eq!(
            parse(&argv(&["fuzz", "replay", "seed.imp"])).unwrap(),
            Command::Fuzz(FuzzCmd::Replay {
                file: "seed.imp".into(),
                oracle: None,
            })
        );
        assert_eq!(
            parse(&argv(&["fuzz", "replay", "seed.imp", "--oracle", "sup_l"])).unwrap(),
            Command::Fuzz(FuzzCmd::Replay {
                file: "seed.imp".into(),
                oracle: Some("sup_l".into()),
            })
        );
        assert_eq!(
            parse(&argv(&["fuzz", "minimize", "seed.imp"])).unwrap(),
            Command::Fuzz(FuzzCmd::Minimize {
                file: "seed.imp".into(),
            })
        );
        assert!(parse(&argv(&["fuzz", "replay"])).is_err());
        assert!(parse(&argv(&["fuzz", "replay", "a", "--bogus"])).is_err());
        assert!(parse(&argv(&["fuzz", "minimize"])).is_err());
        assert!(parse(&argv(&["fuzz", "minimize", "a", "b"])).is_err());
    }

    #[test]
    fn parses_checkpoint_resume_and_halt_after() {
        let Command::Fuzz(FuzzCmd::Run {
            checkpoint,
            resume,
            halt_after,
            ..
        }) = parse(&argv(&[
            "fuzz",
            "run",
            "--checkpoint",
            "ck.json",
            "--resume",
            "--halt-after",
            "7",
        ]))
        .unwrap()
        else {
            panic!("expected fuzz run");
        };
        assert_eq!(checkpoint.as_deref(), Some("ck.json"));
        assert!(resume);
        assert_eq!(halt_after, Some(7));
        let Command::Corpus(task) =
            parse(&argv(&["corpus", "--checkpoint", "sweep.json", "--resume"])).unwrap()
        else {
            panic!("expected corpus");
        };
        assert_eq!(task.checkpoint.as_deref(), Some("sweep.json"));
        assert!(task.resume);
        // --resume needs --checkpoint; verify does not take either.
        assert!(parse(&argv(&["fuzz", "run", "--resume"])).is_err());
        assert!(parse(&argv(&["corpus", "--resume"])).is_err());
        assert!(parse(&argv(&[
            "verify",
            "--vars",
            "x:0..1",
            "--code",
            "skip",
            "--pre",
            "true",
            "--spec",
            "true",
            "--checkpoint",
            "x.json",
        ]))
        .is_err());
    }

    #[test]
    fn parses_repair_and_edit_chain() {
        assert_eq!(
            parse(&argv(&["repair", "base.imp"])).unwrap(),
            Command::Repair(RepairTask {
                file: "base.imp".into(),
                edits: vec![],
                domain: DomainKind::Int,
                stats: false,
                stats_json: false,
                trace: None,
                fuel: None,
                timeout_ms: None,
            })
        );
        assert_eq!(
            parse(&argv(&[
                "repair",
                "base.imp",
                "--edit",
                "v2.imp",
                "--edit",
                "v3.imp",
                "--domain",
                "oct",
                "--stats",
                "--stats-json",
                "--trace",
                "r.jsonl",
                "--fuel",
                "900",
                "--timeout-ms",
                "50",
            ]))
            .unwrap(),
            Command::Repair(RepairTask {
                file: "base.imp".into(),
                edits: vec!["v2.imp".into(), "v3.imp".into()],
                domain: DomainKind::Oct,
                stats: true,
                stats_json: true,
                trace: Some("r.jsonl".into()),
                fuel: Some(900),
                timeout_ms: Some(50),
            })
        );
        assert!(parse(&argv(&["repair"])).is_err(), "needs a FILE");
        assert!(parse(&argv(&["repair", "a.imp", "b.imp"])).is_err());
        assert!(parse(&argv(&["repair", "a.imp", "--edit"])).is_err());
        assert!(parse(&argv(&["repair", "a.imp", "--bogus"])).is_err());
    }

    #[test]
    fn parses_chaos_defaults_and_flags() {
        assert_eq!(
            parse(&argv(&["chaos"])).unwrap(),
            Command::Chaos(ChaosTask {
                dir: "corpus".into(),
                plans: 64,
                seed: 0,
                fuel: None,
                stats_json: false,
                trace: None,
                dist: DistOpts::default(),
            })
        );
        assert_eq!(
            parse(&argv(&[
                "chaos",
                "--dir",
                "progs",
                "--plans",
                "8",
                "--seed",
                "3",
                "--fuel",
                "5000",
                "--stats-json",
                "--trace",
                "c.jsonl",
            ]))
            .unwrap(),
            Command::Chaos(ChaosTask {
                dir: "progs".into(),
                plans: 8,
                seed: 3,
                fuel: Some(5000),
                stats_json: true,
                trace: Some("c.jsonl".into()),
                dist: DistOpts::default(),
            })
        );
        assert!(parse(&argv(&["chaos", "--plans", "x"])).is_err());
        assert!(parse(&argv(&["chaos", "--bogus"])).is_err());
    }

    #[test]
    fn budget_flags_reach_only_the_subcommands_that_take_them() {
        let parse_words =
            |args: &str| parse(&args.split(' ').map(String::from).collect::<Vec<_>>());
        for (args, err) in [
            ("fuzz run --fuel 5", "unknown fuzz flag `--fuel`"),
            (
                "fuzz run --timeout-ms 5",
                "unknown fuzz flag `--timeout-ms`",
            ),
            ("chaos --timeout-ms 5", "unknown chaos flag `--timeout-ms`"),
        ] {
            assert_eq!(parse_words(args), Err(ArgError(err.into())), "{args}");
        }
        for args in [
            "fuzz run --stats-json --trace t",
            "chaos --fuel 5 --stats-json",
        ] {
            assert!(parse_words(args).is_ok(), "{args}");
        }
        assert!(parse_words("repair f --fuel 5 --timeout-ms 5 --trace t").is_ok());
    }

    #[test]
    fn parses_serve_flags_and_requires_a_transport() {
        assert_eq!(
            parse(&argv(&["serve", "--stdio"])).unwrap(),
            Command::Serve(ServeTask {
                stdio: true,
                tcp: None,
                workers: 2,
                quota: None,
                max_frame: None,
                trace: None,
                metrics_addr: None,
            })
        );
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "8",
                "--quota",
                "50000",
                "--max-frame",
                "4096",
                "--trace",
                "s.jsonl",
                "--metrics-addr",
                "127.0.0.1:9100",
            ]))
            .unwrap(),
            Command::Serve(ServeTask {
                stdio: false,
                tcp: Some("127.0.0.1:0".into()),
                workers: 8,
                quota: Some(50000),
                max_frame: Some(4096),
                trace: Some("s.jsonl".into()),
                metrics_addr: Some("127.0.0.1:9100".into()),
            })
        );
        assert!(parse(&argv(&["serve"])).is_err(), "needs a transport");
        assert!(parse(&argv(&["serve", "--stdio", "--workers", "x"])).is_err());
        assert!(parse(&argv(&["serve", "--stdio", "--bogus"])).is_err());
    }

    #[test]
    fn parses_top_flags_and_requires_connect() {
        assert_eq!(
            parse(&argv(&["top", "--connect", "127.0.0.1:4777"])).unwrap(),
            Command::Top(TopTask {
                connect: "127.0.0.1:4777".into(),
                interval_ms: 1000,
                iterations: 0,
                plain: false,
            })
        );
        assert_eq!(
            parse(&argv(&[
                "top",
                "--connect",
                "h:1",
                "--interval-ms",
                "250",
                "--iterations",
                "3",
                "--plain",
            ]))
            .unwrap(),
            Command::Top(TopTask {
                connect: "h:1".into(),
                interval_ms: 250,
                iterations: 3,
                plain: true,
            })
        );
        assert!(parse(&argv(&["top"])).is_err(), "needs --connect");
        assert!(parse(&argv(&["top", "--connect", "h:1", "--bogus"])).is_err());
        // interval 0 would spin; it is clamped to 1ms.
        let Command::Top(task) =
            parse(&argv(&["top", "--connect", "h:1", "--interval-ms", "0"])).unwrap()
        else {
            panic!("expected top");
        };
        assert_eq!(task.interval_ms, 1);
    }

    #[test]
    fn parses_engine_flag() {
        let Command::Verify(task) = parse(&argv(&[
            "verify", "--vars", "x:0..3", "--code", "skip", "--pre", "true", "--spec", "true",
            "--engine", "symbolic",
        ]))
        .unwrap() else {
            panic!("expected verify");
        };
        assert_eq!(task.engine, Engine::Symbolic);
        // Default is enumerative.
        let Command::Corpus(task) = parse(&argv(&["corpus"])).unwrap() else {
            panic!("expected corpus");
        };
        assert_eq!(task.engine, Engine::Enumerative);
        let Command::Corpus(task) = parse(&argv(&["corpus", "--engine", "symbolic"])).unwrap()
        else {
            panic!("expected corpus");
        };
        assert_eq!(task.engine, Engine::Symbolic);
        assert!(parse(&argv(&["corpus", "--engine", "quantum"])).is_err());
        // The engine is chosen apart from the cache: --uncached combines.
        let Command::Corpus(task) =
            parse(&argv(&["corpus", "--engine", "symbolic", "--uncached"])).unwrap()
        else {
            panic!("expected corpus");
        };
        assert_eq!((task.engine, task.uncached), (Engine::Symbolic, true));
        // Only the repair commands take it.
        for sub in ["analyze", "prove"] {
            let args = [
                sub,
                "--vars",
                "x:0..3",
                "--code",
                "skip",
                "--pre",
                "true",
                "--spec",
                "true",
                "--engine",
                "enumerative",
            ];
            assert!(parse(&argv(&args)).is_err(), "{sub} accepted --engine");
        }
    }

    #[test]
    fn all_domains_parse() {
        for kind in DomainKind::ALL {
            let Command::Corpus(task) = parse(&argv(&["corpus", "--domain", kind.name()])).unwrap()
            else {
                panic!("expected corpus");
            };
            assert_eq!(task.domain, kind);
        }
        assert!(parse(&argv(&["corpus", "--domain", "poly"])).is_err());
    }
}
