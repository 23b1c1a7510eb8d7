//! The fuzz campaign driver: generate → build → oracles → differential
//! sweep → shrink, with deterministic, wall-clock-free statistics.
//!
//! Determinism is a hard requirement (CI replays campaigns and diffs
//! the JSON byte-for-byte), so the report contains counters and seeds
//! only — never timings. Tracing hooks emit `fuzz_case`/`fuzz_shrink`
//! events for observability without touching the report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use air_resilience::Checkpointer;
use air_trace::{EventKind, Tracer};

use crate::case::FuzzCase;
use crate::checkpoint;
use crate::oracles::{registry, run as run_oracle};
use crate::shrink::shrink;
use crate::{diff, seed};

/// Cooperative observation and truncation of a running campaign, for
/// callers that drive `run_campaign` from another thread (the signal
/// handler, the distributed worker).
///
/// `cap` is a dynamic case budget: the campaign stops after at least
/// `cap` completed cases — checked between cases, so an in-flight case
/// always finishes — writing a final checkpoint exactly like the hidden
/// `--halt-after` crash stand-in. `u64::MAX` (the default) means
/// unlimited; storing `0` requests "stop at the next case boundary".
/// `progress` is invoked after every completed case (built *or*
/// build-skipped) with the number of cases done so far.
#[derive(Clone)]
pub struct CampaignWatch {
    cap: Arc<AtomicU64>,
    progress: Option<Arc<dyn Fn(u64) + Send + Sync>>,
}

impl CampaignWatch {
    /// A watch with no progress callback and an unlimited cap.
    pub fn new() -> Self {
        CampaignWatch {
            cap: Arc::new(AtomicU64::new(u64::MAX)),
            progress: None,
        }
    }

    /// Attaches a per-case progress callback.
    #[must_use]
    pub fn with_progress(mut self, f: impl Fn(u64) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Lowers the case budget to `cases` (never raises it: a truncation
    /// that lost a race with a smaller one must not resurrect work).
    pub fn truncate(&self, cases: u64) {
        self.cap.fetch_min(cases, Ordering::SeqCst);
    }

    /// Current case budget (`u64::MAX` = unlimited).
    pub fn cap(&self) -> u64 {
        self.cap.load(Ordering::SeqCst)
    }

    fn report(&self, done: u64) {
        if let Some(f) = &self.progress {
            f(done);
        }
    }
}

impl std::fmt::Debug for CampaignWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignWatch")
            .field("cap", &self.cap())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Default for CampaignWatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Cases between two checkpoint writes of a campaign.
const CHECKPOINT_EVERY: u64 = 16;

/// Options for one campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// First seed; cases run over `base_seed..base_seed + cases`.
    pub base_seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Restrict to one oracle by registry name (`None` = all ten).
    pub oracle: Option<String>,
    /// Minimize failures with the structural shrinker.
    pub shrink: bool,
    /// Optional tracer receiving `fuzz_case` / `fuzz_shrink` events.
    pub tracer: Option<Tracer>,
    /// Checkpoint file for crash-safe progress (atomic write-tmp-rename
    /// every 16 cases; removed when the campaign completes cleanly).
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`checkpoint`](Self::checkpoint) instead of starting
    /// over. Ignored when the file is absent, malformed, or was written
    /// by a campaign with different options.
    pub resume: bool,
    /// Test hook: stop after this many completed cases, writing a final
    /// checkpoint and returning the partial report — a deterministic
    /// stand-in for a crash (the CLI's hidden `--halt-after`).
    pub halt_after: Option<u64>,
    /// Cooperative observation/truncation hook (`None` = run to the end
    /// unobserved). See [`CampaignWatch`].
    pub watch: Option<CampaignWatch>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            base_seed: 0,
            cases: 100,
            oracle: None,
            shrink: true,
            tracer: None,
            checkpoint: None,
            resume: false,
            halt_after: None,
            watch: None,
        }
    }
}

/// Per-oracle counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleRow {
    /// Cases on which the oracle ran to a verdict.
    pub runs: u64,
    /// Verdicts that falsified the theorem.
    pub violations: u64,
    /// Unevaluable instances (universe escape, overflow, size gates).
    pub skips: u64,
}

/// One minimized failure, ready to persist as a seed file.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed of the originating case.
    pub seed: u64,
    /// Failing oracle name, or `"differential"` for a config divergence.
    pub oracle: String,
    /// The violation or disagreement message.
    pub message: String,
    /// The minimized case (equal to the original when shrinking is off
    /// or the failure did not reproduce during shrinking).
    pub shrunk: FuzzCase,
}

impl Failure {
    /// Renders the failure as a replayable seed file.
    pub fn to_seed_file(&self) -> String {
        seed::render(&self.shrunk, Some(&self.oracle), Some(&self.message))
    }
}

/// The deterministic campaign report.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Echo of the options that produced this report.
    pub base_seed: u64,
    /// Echo of the requested case count.
    pub cases: u64,
    /// Cases whose symbolic form evaluated into engine inputs.
    pub built: u64,
    /// Cases rejected at build time (invalid guard, oversized universe).
    pub build_skips: u64,
    /// Oracle runs skipped on otherwise-built cases.
    pub eval_skips: u64,
    /// Total theorem violations.
    pub violations: u64,
    /// Total differential disagreements.
    pub disagreements: u64,
    /// Per-oracle counters, keyed by registry name.
    pub oracle_rows: BTreeMap<String, OracleRow>,
    /// Minimized failures, in seed order.
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// `true` when no oracle violation and no disagreement was seen.
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.disagreements == 0
    }

    /// Renders the report as one deterministic JSON line matching
    /// `schemas/fuzz-report.schema.json`. Contains no wall-clock data:
    /// the same options always yield byte-identical output.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"air-fuzz-report/1\",\"base_seed\":{},\"cases\":{},\"built\":{},\
             \"build_skips\":{},\"eval_skips\":{},\"violations\":{},\"disagreements\":{}",
            self.base_seed,
            self.cases,
            self.built,
            self.build_skips,
            self.eval_skips,
            self.violations,
            self.disagreements
        );
        out.push_str(",\"oracles\":[");
        for (i, (name, row)) in self.oracle_rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let theorem = crate::oracles::theorem_of(name).unwrap_or("");
            let _ = write!(
                out,
                "{{\"name\":{},\"theorem\":{},\"runs\":{},\"violations\":{},\"skips\":{}}}",
                json_str(name),
                json_str(theorem),
                row.runs,
                row.violations,
                row.skips
            );
        }
        out.push_str("],\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seed\":{},\"oracle\":{},\"message\":{},\"commands\":{}}}",
                f.seed,
                json_str(&f.oracle),
                json_str(&f.message),
                f.shrunk.commands()
            );
        }
        out.push_str("]}");
        out
    }
}

use air_trace::json::str_lit as json_str;

/// The verdicts of one case replay (used by `run_campaign`, the CLI's
/// `fuzz replay`, and the regression test).
#[derive(Clone, Debug, Default)]
pub struct CaseOutcome {
    /// `(oracle, message)` theorem violations.
    pub violations: Vec<(String, String)>,
    /// `(oracle, reason)` unevaluable-oracle skips.
    pub skips: Vec<(String, String)>,
    /// Differential disagreement messages.
    pub disagreements: Vec<String>,
    /// Whole-case skip reason (build failure or diff-sweep skip).
    pub case_skip: Option<String>,
}

impl CaseOutcome {
    /// `true` when the case produced no violation and no disagreement.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.disagreements.is_empty()
    }
}

/// Replays one symbolic case under an optional oracle restriction.
pub fn replay_case(case: &FuzzCase, only: Option<&str>) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let built = match case.build() {
        Ok(b) => b,
        Err(e) => {
            out.case_skip = Some(e);
            return out;
        }
    };
    for (name, _) in registry() {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        match run_oracle(name, &built) {
            Some(Ok(verdict)) => {
                if let Some(msg) = verdict.message() {
                    out.violations.push((name.to_string(), msg.to_string()));
                }
            }
            Some(Err(e)) => out.skips.push((name.to_string(), e.to_string())),
            None => {}
        }
    }
    if only.is_none() {
        match diff::differential_sweep(&built) {
            Ok(diffs) => out.disagreements = diffs,
            Err(e) => out.skips.push(("differential".to_string(), e.to_string())),
        }
    }
    out
}

/// Runs a full campaign. Sequential by design: the report must be
/// byte-deterministic, and the parallel engine paths are themselves
/// *under test* inside each case's differential sweep.
pub fn run_campaign(opts: &FuzzOptions) -> CampaignReport {
    let mut report = CampaignReport {
        base_seed: opts.base_seed,
        cases: opts.cases,
        built: 0,
        build_skips: 0,
        eval_skips: 0,
        violations: 0,
        disagreements: 0,
        oracle_rows: registry()
            .iter()
            .filter(|(n, _)| opts.oracle.as_deref().is_none_or(|o| o == *n))
            .map(|(n, _)| (n.to_string(), OracleRow::default()))
            .collect(),
        failures: Vec::new(),
    };
    let mut checkpointer = opts.checkpoint.as_ref().map(|path| {
        Checkpointer::new(
            path.clone(),
            CHECKPOINT_EVERY,
            opts.tracer.clone().unwrap_or_else(Tracer::disabled),
        )
    });
    let mut start = opts.base_seed;
    if opts.resume {
        if let Some(state) = load_checkpoint(opts) {
            start = state.next_seed;
            report.built = state.built;
            report.build_skips = state.build_skips;
            report.eval_skips = state.eval_skips;
            report.violations = state.violations;
            report.disagreements = state.disagreements;
            report.oracle_rows = state.rows;
            // Failures are rebuilt by replay rather than deserialized:
            // the same seed yields the same case, verdicts and shrink,
            // so the resumed report matches an uninterrupted run.
            rebuild_failures(&mut report, &state.failure_seeds, opts);
        }
    }
    for seed_v in start..opts.base_seed.saturating_add(opts.cases) {
        let case = FuzzCase::generate(seed_v);
        let outcome = replay_case(&case, opts.oracle.as_deref());
        let done = seed_v - opts.base_seed + 1;
        if outcome.case_skip.is_some() {
            report.build_skips += 1;
        } else {
            report.built += 1;
            for (name, row) in report.oracle_rows.iter_mut() {
                let skipped = outcome.skips.iter().any(|(n, _)| n == name);
                let violated = outcome.violations.iter().any(|(n, _)| n == name);
                if skipped {
                    row.skips += 1;
                    report.eval_skips += 1;
                } else {
                    row.runs += 1;
                }
                if violated {
                    row.violations += 1;
                }
            }
            report.violations += outcome.violations.len() as u64;
            report.disagreements += outcome.disagreements.len() as u64;
            if let Some(tracer) = &opts.tracer {
                tracer.emit_with(|| EventKind::FuzzCase {
                    seed: seed_v,
                    violations: outcome.violations.len() as u64,
                    disagreements: outcome.disagreements.len() as u64,
                });
            }
            push_failures(&mut report, &case, &outcome, opts);
        }
        write_checkpoint(&mut checkpointer, &report, done, seed_v + 1, opts);
        if let Some(watch) = &opts.watch {
            watch.report(done);
        }
        let truncated = opts.watch.as_ref().is_some_and(|w| done >= w.cap());
        if truncated || opts.halt_after.is_some_and(|h| done >= h) {
            if let Some(cp) = &mut checkpointer {
                let _ = cp.write_now(done, || checkpoint::render(&report, seed_v + 1, opts));
            }
            return report; // halted or truncated: checkpoint retained
        }
    }
    // A completed campaign's checkpoint is stale state: drop it so the
    // next run (resumed or not) starts from scratch.
    if let Some(cp) = &checkpointer {
        cp.remove();
    }
    report
}

/// Minimizes and records the failures of one case.
fn push_failures(
    report: &mut CampaignReport,
    case: &FuzzCase,
    outcome: &CaseOutcome,
    opts: &FuzzOptions,
) {
    for (oracle, message) in &outcome.violations {
        let shrunk = minimize(case, oracle, opts);
        report.failures.push(Failure {
            seed: case.seed,
            oracle: oracle.clone(),
            message: message.clone(),
            shrunk,
        });
    }
    if !outcome.disagreements.is_empty() {
        let shrunk = minimize(case, "differential", opts);
        report.failures.push(Failure {
            seed: case.seed,
            oracle: "differential".to_string(),
            message: outcome.disagreements.join("; "),
            shrunk,
        });
    }
}

/// Replays `seeds` and appends their minimized failures to `report`.
///
/// Shared by checkpoint resume and the distributed merge: both persist
/// only the failing seeds and rebuild the full [`Failure`] records by
/// replay, which keeps the wire/disk formats tiny and guarantees the
/// rebuilt report is byte-identical to an uninterrupted run — both are
/// pure functions of the same seeds. Callers pass seeds in ascending
/// order to preserve the report's seed-ordered failure list.
pub fn rebuild_failures(report: &mut CampaignReport, seeds: &[u64], opts: &FuzzOptions) {
    for &failed in seeds {
        let case = FuzzCase::generate(failed);
        let outcome = replay_case(&case, opts.oracle.as_deref());
        push_failures(report, &case, &outcome, opts);
    }
}

/// Reads and validates the resume checkpoint; `None` means fresh start.
fn load_checkpoint(opts: &FuzzOptions) -> Option<checkpoint::CheckpointState> {
    let path = opts.checkpoint.as_deref()?;
    let text = air_resilience::checkpoint::load(path).ok().flatten()?;
    checkpoint::parse(&text, opts)
}

/// Writes a cadence checkpoint; I/O failures degrade to "no checkpoint"
/// rather than aborting the campaign (fail-soft, like trace sinks).
fn write_checkpoint(
    checkpointer: &mut Option<Checkpointer>,
    report: &CampaignReport,
    done: u64,
    next_seed: u64,
    opts: &FuzzOptions,
) {
    if let Some(cp) = checkpointer {
        let _ = cp.maybe_write(done, || checkpoint::render(report, next_seed, opts));
    }
}

/// Minimizes a failing case against "this oracle still fails" (or "the
/// differential sweep still disagrees" for `oracle = "differential"`).
pub fn minimize(case: &FuzzCase, oracle: &str, opts: &FuzzOptions) -> FuzzCase {
    if !opts.shrink {
        return case.clone();
    }
    let mut fails = |candidate: &FuzzCase| -> bool {
        let Ok(built) = candidate.build() else {
            return false;
        };
        if oracle == "differential" {
            matches!(diff::differential_sweep(&built), Ok(d) if !d.is_empty())
        } else {
            matches!(
                run_oracle(oracle, &built),
                Some(Ok(v)) if v.is_violation()
            )
        }
    };
    let shrunk = shrink(case, &mut fails);
    if let Some(tracer) = &opts.tracer {
        tracer.emit_with(|| EventKind::FuzzShrink {
            seed: case.seed,
            before: case.commands() as u64,
            after: shrunk.commands() as u64,
        });
    }
    shrunk
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_and_clean_on_small_run() {
        let opts = FuzzOptions {
            cases: 15,
            ..FuzzOptions::default()
        };
        let a = run_campaign(&opts);
        let b = run_campaign(&opts);
        assert_eq!(a.to_json(), b.to_json(), "same options ⇒ identical JSON");
        assert!(a.is_clean(), "violations on a small run: {}", a.to_json());
        assert_eq!(a.built + a.build_skips, 15);
        assert_eq!(a.oracle_rows.len(), 10);
    }

    #[test]
    fn oracle_restriction_limits_the_rows() {
        let opts = FuzzOptions {
            cases: 5,
            oracle: Some("soundness".to_string()),
            ..FuzzOptions::default()
        };
        let report = run_campaign(&opts);
        assert_eq!(report.oracle_rows.len(), 1);
        assert!(report.oracle_rows.contains_key("soundness"));
        assert_eq!(report.disagreements, 0, "diff sweep is skipped");
    }

    #[test]
    fn resumed_campaign_matches_an_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!(
            "air-fuzz-resume-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");

        let full_opts = FuzzOptions {
            cases: 10,
            ..FuzzOptions::default()
        };
        let full = run_campaign(&full_opts);

        // Fabricate the checkpoint a crash after 4 cases would leave
        // behind: the prefix campaign's counters, stamped with the full
        // run's case count.
        let mut prefix = run_campaign(&FuzzOptions {
            cases: 4,
            ..FuzzOptions::default()
        });
        prefix.cases = 10;
        air_resilience::atomic_write(&path, &checkpoint::render(&prefix, 4, &full_opts)).unwrap();

        let resumed = run_campaign(&FuzzOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..full_opts.clone()
        });
        assert_eq!(
            resumed.to_json(),
            full.to_json(),
            "resume ⇒ byte-identical report"
        );
        assert!(!path.exists(), "clean completion removes the checkpoint");

        // A checkpoint from mismatched options is ignored, not resumed.
        air_resilience::atomic_write(&path, &checkpoint::render(&prefix, 4, &full_opts)).unwrap();
        let other = run_campaign(&FuzzOptions {
            base_seed: 99,
            cases: 3,
            checkpoint: Some(path.clone()),
            resume: true,
            ..FuzzOptions::default()
        });
        assert_eq!(other.built + other.build_skips, 3, "fresh start");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_json_passes_the_checked_in_schema() {
        let report = run_campaign(&FuzzOptions {
            cases: 3,
            ..FuzzOptions::default()
        });
        let doc = air_trace::json::parse(&report.to_json()).unwrap();
        let schema =
            air_trace::Schema::parse(include_str!("../../../schemas/fuzz-report.schema.json"))
                .unwrap();
        assert_eq!(schema.check(&doc), Ok(None));
        assert_eq!(doc.get("cases").unwrap().as_num(), Some(3.0));
        assert_eq!(doc.get("oracles").unwrap().as_arr().unwrap().len(), 10);
    }
}
