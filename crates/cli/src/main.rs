//! `air` — a command-line verifier based on Abstract Interpretation
//! Repair.
//!
//! ```text
//! air verify  --vars "x:-8..8" --code "if (x >= 1) then { skip } else { x := 1 - x }" \
//!             --pre "x != 0" --spec "x >= 1" [--domain int] [--strategy backward]
//! air analyze --vars ... --code ... --pre ... --spec ...      # alarms, no repair
//! air prove   --vars ... --code ... --pre ...                 # LCL_A derivation
//! air corpus  [--dir corpus] [--jobs N] [--stats] [--uncached] # parallel sweep
//! air trace summarize run.jsonl                               # aggregate a trace
//! air serve --stdio --tcp 127.0.0.1:4777 [--workers N]        # repair-as-a-service
//! air top --connect 127.0.0.1:4777 [--interval-ms N]          # live daemon summary
//! ```
//!
//! `--stats` prints cache hit/miss counters and wall times — for `verify`
//! and `analyze` the time to the verdict, from universe set-up through the
//! printed report (`--stats-json` prints the same as one JSON object, the
//! time as `wall_ms`); `--uncached` disables the memo
//! tables (the reference path — results are bitwise identical either way).
//! `--trace FILE` writes a structured JSONL event log (`--trace-format dot`
//! on `prove` writes the LCL derivation as Graphviz DOT) and `--profile`
//! prints a per-phase wall-time table. `--fuel N` / `--timeout-ms N` bound
//! a run; an exhausted budget stops at the next engine loop head and
//! reports the sound partial result. Exit codes: 0 = proved / no alarms,
//! 1 = refuted / alarms, 2 = usage error, 3 = budget exhausted,
//! 4 = internal error. The paper↔code map behind the engine is
//! `PAPER_MAP.md` at the repository root.

use std::process::ExitCode;

mod args;
mod chaos;
mod dist;
mod run;
mod signal;
mod top;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match run::run(command) {
        Ok(run::Outcome::Positive) => ExitCode::SUCCESS,
        Ok(run::Outcome::Negative) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
